import collections
import itertools

import numpy as np
import pytest

from twisteta.clifford import FluxForm, FormComponent, build_gamma_rep
from twisteta.models import (
    Lens,
    LensCharacter,
    SpectralModel,
    Sphere3,
    Torus3,
    TorusFlux,
    TorusHolonomy,
    TrivialBundle,
    build_torus_operator,
    torus_multiplication_operator,
    torus_twisted_derivative,
)
from twisteta.weitzenbock import (
    LwReport,
    TheoremViolationError,
    _zeroth_order_block,
    lw_check_deg3,
    lw_check_general,
    psc_stability_sweep,
    psc_threshold,
)


def random_flux(n, degrees, seed):
    rng = np.random.default_rng(seed)
    comps = []
    for deg in degrees:
        terms = {idx: rng.standard_normal() for idx in itertools.combinations(range(n), deg)}
        comps.append(FormComponent.from_terms(deg, terms))
    return FluxForm(tuple(comps))


# --- torus identity ----------------------------------------------------------

def test_lw_deg3_zero_flux():
    rpt = lw_check_deg3(Torus3(), TorusFlux.constant(0.0), cutoff=4)
    assert rpt.residual == 0.0


def test_lw_deg3_constant_flux():
    rpt = lw_check_deg3(Torus3(), TorusFlux.constant(0.7), cutoff=6)
    assert rpt.residual <= 1e-12


def test_lw_deg3_single_harmonic():
    rpt = lw_check_deg3(Torus3(), TorusFlux.cosine(0, 1.0), cutoff=8)
    assert rpt.residual <= 1e-10
    assert rpt.modes_compared == 15**3


def test_lw_deg3_anisotropic_torus_with_holonomy():
    geo = Torus3((1.0, 1.3, 0.7), (0.0, 0.5, 0.5))
    rpt = lw_check_deg3(geo, TorusFlux.cosine(1, 0.8), cutoff=6,
                        bundle=TorusHolonomy((0.2, 0.0, 0.4)))
    assert rpt.residual <= 1e-10


def _opnorm_bound(mat) -> float:
    """Upper bound for the spectral norm of a sparse matrix: sqrt(norm_1 * norm_inf)."""
    a = abs(mat)
    row = a.sum(axis=1).max()
    col = a.sum(axis=0).max()
    return float(np.sqrt(float(row) * float(col)))


def _lw_on_all_rows(geometry, flux, cutoff, bundle):
    """The degree-3 check from the sparse matrices, every product formed on
    all rows and the interior block taken at the end: the reference for the
    one from the symbols.  Returns the closed-form residual (against ``2
    f^2``), the Clifford-block residual (against ``f^2 (x) Z``) and the number
    of modes compared."""
    op = build_torus_operator(geometry, flux, cutoff, bundle)
    d2 = op.matrix @ op.matrix
    delta = None
    for axis in range(3):
        aj = torus_twisted_derivative(geometry, flux, cutoff, axis, bundle)
        delta = aj @ aj if delta is None else delta + aj @ aj
    delta = -delta
    f_sq = flux.convolved()
    m2 = torus_multiplication_operator(geometry, {u: 2.0 * c for u, c in f_sq.items()},
                                       cutoff, bundle, block=np.eye(2, dtype=complex))
    zero_block = _zeroth_order_block(build_gamma_rep(3), FluxForm.top(3, 1.0).complex_terms())
    m_gen = torus_multiplication_operator(geometry, f_sq, cutoff, bundle, block=zero_block)
    keep = op.interior_indices(max(flux.bandwidth, 1))
    return (_opnorm_bound((d2 - delta + m2)[keep][:, keep]),
            _opnorm_bound((d2 - delta - m_gen)[keep][:, keep]),
            int(keep.size // 2))


def _complex_flux(c1, c2, c0=0.0):
    """A real flux on the wave vectors (1, 1, 0) and (0, -1, 2), complex coefficients."""
    return TorusFlux((((1, 1, 0), c1), ((-1, -1, 0), np.conj(c1)),
                      ((0, -1, 2), c2), ((0, 1, -2), np.conj(c2)), ((0, 0, 0), c0)))


ANISOTROPIC = (Torus3((1.0, 1.3, 0.7), (0.5, 0.0, 0.5)), TorusHolonomy((0.2, 0.35, 0.9)))

# The two tests below demand exact equality between the symbol path, whose
# complex products are written out unfused in numpy, and scipy's compiled
# SpGEMM.  That holds where scipy's build does not fuse its complex
# multiply-adds (x86-64 builds of scipy do not); a build that contracts them
# into FMAs (GCC's default on aarch64) would differ in the last bits, and
# these tests would then flag a residual that is still right to rounding.


@pytest.mark.parametrize("geo,bundle,flux,cutoff", [
    (*ANISOTROPIC, TorusFlux.constant(0.7), 5),
    (*ANISOTROPIC, TorusFlux.cosine(1, -0.9, 1), 5),
    (*ANISOTROPIC, TorusFlux.cosine(2, 0.6, 2), 5),
    (Torus3((1.1, 0.9, 1.2), (0.0, 0.0, 0.0)), TrivialBundle(),
     _complex_flux(0.4 - 0.3j, -0.2 + 0.5j, 0.3), 5),
    (*ANISOTROPIC, TorusFlux.cosine(0, 0.8, 3), 6),
    # the benchmark's sizes
    (*ANISOTROPIC, TorusFlux.constant(-0.83), 8),
    (*ANISOTROPIC, TorusFlux.cosine(0, 1.1, 2), 10),
    (*ANISOTROPIC, TorusFlux.cosine(2, -0.45, 1), 12),
], ids=["constant", "cosine-1", "cosine-2", "complex-spin-000", "cosine-3",
        "constant-8", "cosine-2-10", "cosine-1-12"])
def test_lw_deg3_interior_rows_match_all_rows_bit_for_bit(geo, bundle, flux, cutoff):
    rpt = lw_check_deg3(geo, flux, cutoff, bundle)
    closed_form, clifford, modes = _lw_on_all_rows(geo, flux, cutoff, bundle)
    assert rpt.residual > 0  # rounding, not an exact zero
    # exact float equality, against both forms of the zeroth-order term
    assert rpt.residual == closed_form == clifford
    assert rpt.modes_compared == modes


def test_lw_deg3_matches_all_rows_on_seeded_tori():
    rng = np.random.default_rng(20251019)
    kinds = collections.Counter()
    for case in range(20):
        geo = Torus3(tuple(rng.uniform(0.7, 1.4, 3)), tuple(rng.choice([0.0, 0.5], 3)))
        bundle = (TrivialBundle() if case % 4 == 0
                  else TorusHolonomy(tuple(rng.uniform(0.0, 1.0, 3))))
        kind = ("constant", "cosine", "complex")[case % 3]
        if kind == "constant":
            flux = TorusFlux.constant(rng.normal())
        elif kind == "cosine":
            flux = TorusFlux.cosine(int(rng.integers(3)), rng.normal(), int(rng.integers(1, 3)))
        else:
            flux = _complex_flux(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)),
                                 rng.normal())
        cutoff = 2 * max(flux.bandwidth, 1) + int(rng.integers(0, 5))
        rpt = lw_check_deg3(geo, flux, cutoff, bundle)
        closed_form, clifford, modes = _lw_on_all_rows(geo, flux, cutoff, bundle)
        assert rpt.residual == closed_form == clifford, (case, geo, bundle, flux)
        assert rpt.modes_compared == modes
        kinds[kind] += rpt.residual > 0
    assert min(kinds.values()) >= 5  # rounding residuals of every kind, not exact zeros


@pytest.mark.parametrize("flux", [TorusFlux.constant(1e150), TorusFlux.cosine(0, 1e160)],
                         ids=["inf", "nan"])
def test_lw_deg3_refuses_a_residual_that_overflows(flux):
    with pytest.raises(ValueError, match="flux"):
        lw_check_deg3(Torus3(), flux, cutoff=4)


@pytest.mark.parametrize("residual", [float("nan"), float("inf"), -1e-300])
def test_lw_report_residual_is_a_finite_norm(residual):
    with pytest.raises(ValueError, match="finite and >= 0"):
        LwReport(residual=residual, modes_compared=1)


def test_lw_deg3_refuses_a_non_hermitian_operator():
    # within the reality tolerance of TorusFlux, but not Hermitian to 1e-12
    flux = TorusFlux((((1, 0, 0), 1e6 + 0j), ((-1, 0, 0), 1e6 + 1e-7j)))
    with pytest.raises(AssertionError, match="not Hermitian"):
        build_torus_operator(Torus3(), flux, 2)
    with pytest.raises(AssertionError, match="not Hermitian"):
        lw_check_deg3(Torus3(), flux, 2)


def test_lw_deg3_zeroth_order_block_must_be_minus_two(monkeypatch):
    # a Clifford convention slip moves the block off -2 I; the check refuses it
    # instead of reporting a residual
    monkeypatch.setattr("twisteta.weitzenbock._zeroth_order_block",
                        lambda rep, h_terms: -1.9 * np.eye(2, dtype=complex))
    with pytest.raises(TheoremViolationError, match="-2 I"):
        lw_check_deg3(Torus3(), TorusFlux.cosine(0, 1.0), cutoff=3)


def test_lw_deg3_mode_budget(monkeypatch):
    # 101^3 modes fit SHELL_BUDGET = 2^20 and 103^3 do not; the symbol
    # builder stands in for the check past the guard
    class Built(Exception):
        pass

    def build(*args, **kwargs):
        raise Built

    monkeypatch.setattr("twisteta.weitzenbock._dirac_symbol", build)
    with pytest.raises(Built):
        lw_check_deg3(Torus3(), TorusFlux.constant(0.5), 50)
    with pytest.raises(ValueError, match="cutoff 51"):
        lw_check_deg3(Torus3(), TorusFlux.constant(0.5), 51)


def test_lw_deg3_bandwidth_guard():
    with pytest.raises(ValueError):
        lw_check_deg3(Torus3(), TorusFlux.cosine(0, 1.0, harmonic=2), cutoff=3)


# --- algebraic identity --------------------------------------------------------

def test_lw_general_top_degree_dim3():
    rep = build_gamma_rep(3)
    assert lw_check_general(rep, FluxForm.top(3, 2.0)) <= 1e-13


def test_lw_general_zero_flux():
    rep = build_gamma_rep(3)
    assert lw_check_general(rep, FluxForm(())) == 0.0


@pytest.mark.parametrize("n,degrees", [
    (3, (3,)),
    (3, (1,)),
    (3, (1, 3)),
    (5, (3,)),
    (5, (5,)),
    (5, (1, 3, 5)),
    (7, (3,)),
    (7, (1, 3, 5, 7)),
])
def test_lw_general_random_fluxes(n, degrees):
    rep = build_gamma_rep(n)
    flux = random_flux(n, degrees, seed=n * 10 + len(degrees))
    assert lw_check_general(rep, flux) <= 1e-12


def test_lw_general_matches_deg3_closed_form():
    # for a degree-3 flux the left side must equal -2 |H|^2 identically
    rep = build_gamma_rep(5)
    flux = random_flux(5, (3,), seed=42)
    from twisteta.clifford import _clifford_terms, _contract, flux_action

    lhs = flux_action(rep, flux) @ flux_action(rep, flux)
    h = flux.complex_terms()
    for j in range(5):
        cj = _clifford_terms(rep, _contract(h, j))
        lhs = lhs + cj @ cj
    norm_sq = sum(abs(c) ** 2 for _, c in flux.components[0].terms)
    assert np.linalg.norm(lhs + 2.0 * norm_sq * rep.identity(), 2) <= 1e-12


def test_lw_general_dimension_guard():
    with pytest.raises(ValueError):
        lw_check_general(build_gamma_rep(1), FluxForm(()))


# --- PSC threshold -------------------------------------------------------------

def test_psc_threshold_examples():
    assert psc_threshold(8.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert psc_threshold(6.0, 1.0) == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-15)
    assert psc_threshold(6.0, 2.0) == pytest.approx(np.sqrt(3.0) / 4.0, abs=1e-15)


def test_psc_threshold_monotonicity():
    assert psc_threshold(10.0, 1.0) > psc_threshold(6.0, 1.0)
    assert psc_threshold(6.0, 3.0) < psc_threshold(6.0, 1.0)


def test_psc_threshold_rejects_nonpositive():
    with pytest.raises(ValueError):
        psc_threshold(0.0, 1.0)
    with pytest.raises(ValueError):
        psc_threshold(6.0, -1.0)


@pytest.mark.parametrize("r_min,h_norm", [
    (float("nan"), 1.0), (float("inf"), 1.0), (6.0, float("nan")), (6.0, float("inf")),
])
def test_psc_threshold_rejects_non_finite(r_min, h_norm):
    with pytest.raises(ValueError, match="finite"):
        psc_threshold(r_min, h_norm)


def test_psc_sweep_sphere():
    grid = [0.0, 0.2, 0.4, 0.8]
    rpt = psc_stability_sweep(SpectralModel(Sphere3(1.0)), grid)
    assert rpt.flow == 0
    assert rpt.rho_deviation_max == 0.0
    assert rpt.first_kernel_u == pytest.approx(1.5)
    assert rpt.u0 == psc_threshold(6.0, 1.0)
    # lowest level moves as |3/2 - u|; all grid points stay above u0 margin
    assert len(rpt.min_abs_eigenvalue) == len(grid)
    for u, low in zip(grid, rpt.min_abs_eigenvalue):
        assert low == pytest.approx(abs(1.5 - u), abs=1e-12)
        assert low >= 1.5 - rpt.u0 - 1e-12


def test_psc_sweep_lens_rho_constant():
    for k in (1, 2):
        rpt = psc_stability_sweep(
            SpectralModel(Lens(3), LensCharacter(3, k)), [0.0, 0.2, 0.4, 0.8])
        assert rpt.rho_deviation_max <= 1e-8
        assert rpt.rhos[0].rho == pytest.approx(-1.0 / 3.0 if k else 0.0, abs=1e-12)


def test_heat_psc_derives_one_cutoff_and_one_shell_per_bundle(monkeypatch):
    # without a cutoff each bundle's eta pass takes heat_cutoff once, at its
    # largest |t|, and enumerates once; the kernel scan enumerates its own
    # spectrum at cutoff 8.  Per point, the rule gives 63 and 64 on this grid.
    from twisteta import eta as eta_mod

    derived, seen = [], []
    heat_cutoff, levels = eta_mod.heat_cutoff, Lens.levels

    def recording_cutoff(model, tol=1e-8):
        derived.append((model.bundle, abs(model.flux_shift)))
        return heat_cutoff(model, tol)

    def recording_levels(self, twist, cutoff):
        seen.append(cutoff)
        return levels(self, twist, cutoff)

    monkeypatch.setattr(eta_mod, "heat_cutoff", recording_cutoff)
    monkeypatch.setattr(Lens, "levels", recording_levels)
    model = SpectralModel(Lens(5), LensCharacter(5, 2))
    grid = [psc_threshold(6.0, 1.0) * i / 14 for i in range(14)]
    heat = psc_stability_sweep(model, grid, engine="heat_kernel")
    n = [heat_cutoff(model.with_flux(u)) for u in (grid[0], grid[-1])]
    assert n == [63, 64]
    assert derived == [(LensCharacter(5, 2), grid[-1]), (TrivialBundle(1), grid[-1])]
    assert seen == [8, 64, 64]
    exact = psc_stability_sweep(model, grid).rhos
    for value, want in zip(heat.rhos, exact):
        assert value.converged
        assert abs(value.rho - want.rho) <= value.error_bound + want.error_bound


def test_psc_sweep_grid_validation():
    model = SpectralModel(Sphere3(1.0))
    with pytest.raises(ValueError):
        psc_stability_sweep(model, [0.0, 0.9])  # above u0 = 0.866
    with pytest.raises(ValueError):
        psc_stability_sweep(model, [0.4, 0.2])
    with pytest.raises(ValueError):
        psc_stability_sweep(SpectralModel(Torus3()), [0.0, 0.1])
    with pytest.raises(ValueError, match="nonempty"):
        psc_stability_sweep(model, [])


def test_psc_sweep_hard_failure_on_kernel_below_claimed_threshold():
    # inflating r_min pushes u0 past the true first kernel point at 3/2 and
    # must trip the theorem guard, not silently continue
    with pytest.raises(TheoremViolationError):
        psc_stability_sweep(SpectralModel(Sphere3(1.0)), [0.0, 1.5], r_min=60.0)


def test_psc_sweep_flow_guard_against_crossed_kernel():
    with pytest.raises(TheoremViolationError):
        psc_stability_sweep(SpectralModel(Sphere3(1.0)), [0.0, 1.7], r_min=60.0)
