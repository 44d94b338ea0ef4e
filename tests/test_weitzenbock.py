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
)
from twisteta.weitzenbock import (
    TheoremViolationError,
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
    assert rpt.residual_deg3 == 0.0
    assert rpt.residual_general == 0.0


def test_lw_deg3_constant_flux():
    rpt = lw_check_deg3(Torus3(), TorusFlux.constant(0.7), cutoff=6)
    assert rpt.residual_deg3 <= 1e-12
    assert rpt.residual_general <= 1e-12


def test_lw_deg3_single_harmonic():
    rpt = lw_check_deg3(Torus3(), TorusFlux.cosine(0, 1.0), cutoff=8)
    assert rpt.residual_deg3 <= 1e-10
    assert rpt.residual_general <= 1e-10
    assert rpt.modes_compared == 15**3


def test_lw_deg3_anisotropic_torus_with_holonomy():
    geo = Torus3((1.0, 1.3, 0.7), (0.0, 0.5, 0.5))
    rpt = lw_check_deg3(geo, TorusFlux.cosine(1, 0.8), cutoff=6,
                        bundle=TorusHolonomy((0.2, 0.0, 0.4)))
    assert rpt.residual_deg3 <= 1e-10


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
    assert psc_threshold(8.0, 1.0).u0 == pytest.approx(1.0, abs=1e-15)
    assert psc_threshold(6.0, 1.0).u0 == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-15)
    assert psc_threshold(6.0, 2.0).u0 == pytest.approx(np.sqrt(3.0) / 4.0, abs=1e-15)


def test_psc_threshold_monotonicity():
    assert psc_threshold(10.0, 1.0).u0 > psc_threshold(6.0, 1.0).u0
    assert psc_threshold(6.0, 3.0).u0 < psc_threshold(6.0, 1.0).u0


def test_psc_threshold_rejects_nonpositive():
    with pytest.raises(ValueError):
        psc_threshold(0.0, 1.0)
    with pytest.raises(ValueError):
        psc_threshold(6.0, -1.0)


def test_psc_sweep_sphere():
    rpt = psc_stability_sweep(SpectralModel(Sphere3(1.0)), [0.0, 0.2, 0.4, 0.8])
    assert rpt.flow == 0
    assert rpt.rho_deviation_max == 0.0
    assert rpt.first_kernel_u == pytest.approx(1.5)
    # lowest level moves as |3/2 - u|; all grid points stay above u0 margin
    for u, low in zip(rpt.u_grid, rpt.min_abs_eigenvalue):
        assert low == pytest.approx(abs(1.5 - u), abs=1e-12)
        assert low >= 1.5 - rpt.threshold.u0 - 1e-12


def test_psc_sweep_lens_rho_constant():
    for k in (1, 2):
        rpt = psc_stability_sweep(
            SpectralModel(Lens(3), LensCharacter(3, k)), [0.0, 0.2, 0.4, 0.8])
        assert rpt.rho_deviation_max <= 1e-8
        assert rpt.rhos[0].rho == pytest.approx(-1.0 / 3.0 if k else 0.0, abs=1e-12)


def test_psc_sweep_grid_validation():
    model = SpectralModel(Sphere3(1.0))
    with pytest.raises(ValueError):
        psc_stability_sweep(model, [0.0, 0.9])  # above u0 = 0.866
    with pytest.raises(ValueError):
        psc_stability_sweep(model, [0.4, 0.2])
    with pytest.raises(ValueError):
        psc_stability_sweep(SpectralModel(Torus3()), [0.0, 0.1])


def test_psc_sweep_hard_failure_on_kernel_below_claimed_threshold():
    # inflating r_min pushes u0 past the true first kernel point at 3/2 and
    # must trip the theorem guard, not silently continue
    with pytest.raises(TheoremViolationError):
        psc_stability_sweep(SpectralModel(Sphere3(1.0)), [0.0, 1.5], r_min=60.0)


def test_psc_sweep_flow_guard_against_crossed_kernel():
    with pytest.raises(TheoremViolationError):
        psc_stability_sweep(SpectralModel(Sphere3(1.0)), [0.0, 1.7], r_min=60.0)
