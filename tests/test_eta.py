import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisteta.eta import (
    _UNDERFLOW,
    EtaRegularityError,
    eta_for_model,
    eta_heat,
    eta_hurwitz,
    hurwitz_zeta_nonpositive,
    rho,
)
from twisteta.eta import _OddTrace, _tail_floor
from twisteta.models import (
    Circle,
    CircleHolonomy,
    EigenItem,
    Lens,
    LensCharacter,
    Progression,
    ProgressionSpectrum,
    SpectralModel,
    Sphere3,
    Torus3,
    TrivialBundle,
    enumerate_spectrum,
    progression_spectrum,
)


# --- Hurwitz zeta building block --------------------------------------------

def test_hurwitz_zeta_at_zero():
    for q in (0.25, 0.5, 1.0, 1.75, 3.2):
        assert hurwitz_zeta_nonpositive(0, q) == pytest.approx(0.5 - q, abs=1e-15)


def test_hurwitz_zeta_riemann_values():
    # zeta(-1) = -1/12, zeta(-2) = 0, zeta(-3) = 1/120 via q = 1
    assert hurwitz_zeta_nonpositive(1, 1.0) == pytest.approx(-1.0 / 12.0, abs=1e-15)
    assert hurwitz_zeta_nonpositive(2, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert hurwitz_zeta_nonpositive(3, 1.0) == pytest.approx(1.0 / 120.0, abs=1e-15)


def test_hurwitz_zeta_shift_identity():
    # zeta_H(-i, q) = zeta_H(-i, q+1) + q^i
    for i in (0, 1, 2, 3):
        for q in (0.3, 1.7):
            lhs = hurwitz_zeta_nonpositive(i, q)
            rhs = hurwitz_zeta_nonpositive(i, q + 1.0) + q**i
            assert lhs == pytest.approx(rhs, abs=1e-14)


# --- eta via exact continuation ----------------------------------------------

@pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_circle_eta_closed_form(a):
    model = SpectralModel(Circle(1.0), CircleHolonomy(a))
    value = eta_for_model(model, "hurwitz")
    assert value.eta == pytest.approx(1.0 - 2.0 * a, abs=1e-12)
    assert value.kernel_dim == 0
    assert value.xi == (value.kernel_dim + value.eta) / 2.0  # bit-exact


def test_circle_eta_abel_richardson_oracle():
    # independent regularization: Abel sums of the enumerated spectrum at
    # eps0 / 2^j, extrapolated in powers of eps
    a = 0.3
    items = SpectralModel(Circle(1.0), CircleHolonomy(a))
    from twisteta.models import enumerate_spectrum

    lam = np.array([v for v, _ in enumerate_spectrum(items, 40000)])
    eps0, levels = 0.04, 7  # keep eps * cutoff >> 1 at the smallest rung
    seq = []
    for j in range(levels):
        eps = eps0 / 2**j
        seq.append(float(np.sum(np.sign(lam) * np.exp(-eps * np.abs(lam)))))
    table = [np.array(seq)]
    for p in range(1, levels):
        prev = table[-1]
        table.append((2**p * prev[1:] - prev[:-1]) / (2**p - 1))
    oracle = table[-1][-1]
    assert oracle == pytest.approx(1.0 - 2.0 * a, abs=1e-9)
    value = eta_for_model(items, "hurwitz")
    assert value.eta == pytest.approx(oracle, abs=1e-8)


def test_sphere_eta_zero_by_symmetry():
    value = eta_for_model(SpectralModel(Sphere3(1.0)), "hurwitz")
    assert value.eta == pytest.approx(0.0, abs=1e-13)


def test_sphere_eta_shift_closed_form():
    # exact response between crossings: eta(t) = t/2 - (2/3) t^3; at t = 1/2
    # the levels are integers and the value collapses to -2 zeta(-1) = 1/6
    for t in (0.1, 0.25, 0.5, 1.0, 1.4):
        value = eta_for_model(SpectralModel(Sphere3(1.0), flux_shift=t), "hurwitz")
        assert value.eta == pytest.approx(t / 2 - 2 * t**3 / 3, abs=1e-12)
    half = eta_for_model(SpectralModel(Sphere3(1.0), flux_shift=0.5), "hurwitz")
    assert half.eta == pytest.approx(1.0 / 6.0, abs=1e-13)


def test_sphere_eta_jump_across_crossing():
    # the mult-2 level crosses zero at t = 3/2: eta jumps by +4
    lo = eta_for_model(SpectralModel(Sphere3(1.0), flux_shift=1.5 - 1e-6), "hurwitz").eta
    hi = eta_for_model(SpectralModel(Sphere3(1.0), flux_shift=1.5 + 1e-6), "hurwitz").eta
    assert hi - lo == pytest.approx(4.0, abs=1e-4)


def test_sphere_radius_covariance():
    a = eta_for_model(SpectralModel(Sphere3(2.0), flux_shift=0.3), "hurwitz").eta
    b = eta_for_model(SpectralModel(Sphere3(1.0), flux_shift=0.6), "hurwitz").eta
    assert a == pytest.approx(b, abs=1e-13)


def test_lens_eta_frozen_values():
    # character-sum construction; values are exact rationals of the
    # continuation (verified against the p=1 sphere limit and additivity)
    cases = {(2, 0): 0.25, (2, 1): -0.25,
             (3, 0): 4.0 / 9.0, (3, 1): -2.0 / 9.0, (3, 2): -2.0 / 9.0}
    for (p, k), expected in cases.items():
        value = eta_for_model(SpectralModel(Lens(p), LensCharacter(p, k)), "hurwitz")
        assert value.eta == pytest.approx(expected, abs=1e-12)
        assert value.kernel_dim == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lens_eta_additivity_over_characters(p):
    t = 0.3
    total = sum(
        eta_for_model(SpectralModel(Lens(p), LensCharacter(p, k), flux_shift=t), "hurwitz").eta
        for k in range(p))
    sphere = eta_for_model(SpectralModel(Sphere3(1.0), flux_shift=t), "hurwitz").eta
    assert total == pytest.approx(sphere, abs=1e-11)


def test_eta_scale_invariance():
    ps = progression_spectrum(SpectralModel(Lens(3), LensCharacter(3, 1), flux_shift=0.2))
    scaled = ProgressionSpectrum(
        tuple(Progression(f.sign, 7.0 * f.offset, 7.0 * f.step, f.mult_coeffs)
              for f in ps.families),
        tuple(EigenItem(7.0 * e.value, e.multiplicity) for e in ps.extras),
        ps.kernel_dim)
    assert eta_hurwitz(scaled).eta == pytest.approx(eta_hurwitz(ps).eta, abs=1e-10)


def test_eta_hurwitz_antisymmetry():
    ps = progression_spectrum(SpectralModel(Circle(1.0), CircleHolonomy(0.3)))
    flipped = ProgressionSpectrum(
        tuple(Progression(-f.sign, f.offset, f.step, f.mult_coeffs) for f in ps.families),
        tuple(EigenItem(-e.value, e.multiplicity) for e in ps.extras),
        ps.kernel_dim)
    assert eta_hurwitz(flipped).eta == pytest.approx(-eta_hurwitz(ps).eta, abs=1e-13)


def test_eta_hurwitz_input_validation():
    with pytest.raises(ValueError):
        Progression(sign=1, offset=-1.0, step=1.0, mult_coeffs=(1.0,))
    with pytest.raises(ValueError):
        Progression(sign=1, offset=1.0, step=0.0, mult_coeffs=(1.0,))
    with pytest.raises(ValueError):
        eta_hurwitz([Progression(sign=1, offset=1.0, step=1.0, mult_coeffs=(0.5,))])


# --- heat engine --------------------------------------------------------------

def test_heat_symmetric_spectrum_cancels_exactly():
    items = [EigenItem(v, 2) for v in (-3.5, -1.5, 1.5, 3.5)]
    value = eta_heat(items)
    assert value.eta == 0.0
    assert value.error_bound == 0.0


def test_heat_circle_matches_closed_form():
    from twisteta.models import enumerate_spectrum

    model = SpectralModel(Circle(1.0), CircleHolonomy(0.25))
    items = enumerate_spectrum(model, 2000)
    value = eta_heat(items)
    assert value.eta == pytest.approx(0.5, abs=1e-6)
    assert value.converged
    assert abs(value.eta - 0.5) <= value.error_bound


@pytest.mark.parametrize("t", [0.1, 0.7, 2.0])
def test_heat_agrees_with_hurwitz_on_shifted_sphere(t):
    model = SpectralModel(Sphere3(1.0), flux_shift=t)
    exact = eta_for_model(model, "hurwitz")
    heat = eta_for_model(model, "heat_kernel", cutoff=400)
    assert abs(heat.eta - exact.eta) <= heat.error_bound + exact.error_bound
    assert abs(heat.eta - exact.eta) <= 1e-6


def test_heat_torus_cubic_response():
    # eta on the flat unit torus responds as -Vol t^3 / (3 pi^2); the heat
    # engine is the only numerical route here (no progression form exists)
    t = 0.5
    model = SpectralModel(Torus3(), flux_shift=t)
    value = eta_for_model(model, "heat_kernel", cutoff=40)
    assert value.eta == pytest.approx(-(t**3) / (3 * np.pi**2), abs=1e-9)
    assert value.converged


def test_heat_rejects_kernel_modes():
    with pytest.raises(ValueError):
        eta_heat([EigenItem(0.0, 1), EigenItem(1.0, 1)])


def test_heat_unconverged_flagged():
    from twisteta.models import enumerate_spectrum

    items = enumerate_spectrum(SpectralModel(Circle(1.0), CircleHolonomy(0.25)), 12)
    value = eta_heat(items, tol=1e-13)
    assert not value.converged
    assert value.error_bound > 1e-13


def test_heat_pole_detection_on_artificial_spectrum():
    # geometric spectrum: eta(s) = 1/(1 - 2^{-s}) has a genuine simple pole
    # at s = 0 with residue 1/ln 2; the engine must report it, not a value
    items = [EigenItem(float(2**k), 1) for k in range(26)]
    with pytest.raises(EtaRegularityError) as excinfo:
        eta_heat(items)
    assert excinfo.value.residue == pytest.approx(1.0 / np.log(2.0), rel=0.05)


@pytest.mark.parametrize("model,cutoff", [
    (SpectralModel(Circle(1.0), CircleHolonomy(0.3), flux_shift=0.37), 2000),
    (SpectralModel(Sphere3(0.9), flux_shift=1.3), 400),
    (SpectralModel(Torus3((1.0, 1.1, 0.95)), flux_shift=0.2), 12),
], ids=["circle", "sphere", "torus"])
def test_windowed_trace_matches_full_sum(model, cutoff):
    ld = np.longdouble
    trace = _OddTrace(enumerate_spectrum(model, cutoff))
    t_floor, _ = _tail_floor(trace, 1e-11)
    t_max = 80.0 / trace.min_abs**2
    ts = np.geomspace(t_floor, t_max, 20).astype(ld)
    lam, mult = trace.lam, trace.mult
    abs_all, mult_all = trace._abs_all.astype(ld), trace._mult_all.astype(ld)
    full_odd = np.array([np.sum(mult * lam * np.exp(-t * lam * lam)) for t in ts])
    full_gross = np.array([np.sum(mult_all * abs_all * np.exp(-t * abs_all * abs_all))
                           for t in ts])
    odd, gross = trace.odd(ts), trace.gross(ts)
    eps = np.finfo(ld).eps
    assert np.all(np.abs(odd - full_odd) <= 4 * eps * full_gross)
    assert np.all(np.abs(gross - full_gross) <= 4 * eps * full_gross)
    one_by_one = np.array([trace.odd([t])[0] for t in ts])
    assert np.all(np.abs(one_by_one - full_odd) <= 4 * eps * full_gross)


def test_trace_is_exactly_zero_where_every_term_underflows():
    assert np.exp(-np.longdouble(_UNDERFLOW)) == 0.0
    trace = _OddTrace(enumerate_spectrum(SpectralModel(Sphere3(1.0), flux_shift=0.3), 50))
    t = 1.01 * _UNDERFLOW / trace.min_abs**2
    lam, mult = trace.lam, trace.mult
    assert np.sum(mult * lam * np.exp(-np.longdouble(t) * lam * lam)) == 0.0
    assert trace.odd([t])[0] == 0.0
    assert trace.gross([t])[0] == 0.0


@st.composite
def _round_models(draw):
    kind = draw(st.sampled_from(["circle", "sphere", "lens"]))
    radius = draw(st.floats(0.5, 2.0))
    t = draw(st.floats(-3.0, 3.0, exclude_min=True, exclude_max=True))
    if kind == "circle":
        a = draw(st.floats(0.0, 1.0, exclude_max=True))
        return SpectralModel(Circle(radius), CircleHolonomy(a), t), 400
    if kind == "sphere":
        return SpectralModel(Sphere3(radius), flux_shift=t), 200
    p = draw(st.integers(2, 7))
    k = draw(st.integers(0, p - 1))
    return SpectralModel(Lens(p, radius), LensCharacter(p, k), t), 200


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_round_models())
def test_heat_agrees_with_hurwitz_within_both_bounds(drawn):
    model, cutoff = drawn
    exact = eta_for_model(model, "hurwitz")
    heat = eta_for_model(model, "heat_kernel", cutoff=cutoff)
    assert heat.kernel_dim == exact.kernel_dim
    assert abs(heat.eta - exact.eta) <= heat.error_bound + exact.error_bound


# --- rho ---------------------------------------------------------------------

def test_rho_trivial_bundle_vanishes():
    value = rho(SpectralModel(Circle(1.0)))
    assert value.rho == 0.0
    value = rho(SpectralModel(Sphere3(1.0), TrivialBundle(2)))
    assert value.rho == 0.0


def test_rho_circle_quarter():
    value = rho(SpectralModel(Circle(1.0), CircleHolonomy(0.25)))
    assert value.rho == pytest.approx(-0.25, abs=1e-12)
    assert value.xi_twisted.xi == pytest.approx(0.25, abs=1e-12)
    assert value.xi_trivial.xi == pytest.approx(0.5, abs=1e-12)
    assert value.rank == 1


def test_rho_lens_engines_agree():
    model = SpectralModel(Lens(3), LensCharacter(3, 1))
    exact = rho(model, engine="hurwitz")
    heat = rho(model, engine="heat_kernel", cutoff=300)
    assert exact.rho == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert abs(heat.rho - exact.rho) <= 1e-8


def test_rho_geometry_mismatch_rejected():
    twisted = SpectralModel(Circle(1.0), CircleHolonomy(0.25))
    with pytest.raises(ValueError):
        rho(twisted, SpectralModel(Circle(2.0)))
    with pytest.raises(ValueError):
        rho(twisted, SpectralModel(Circle(1.0), TrivialBundle(2)))
