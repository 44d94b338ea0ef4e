import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

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
    rho,
)
from twisteta import eta as eta_mod
from twisteta import models as models_mod
from twisteta.eta import _GL20_W, _GL20_X, _GL_W, _GL_X, _OddTrace, _integrate_log, _tail_floor
from twisteta.models import (
    Circle,
    CircleHolonomy,
    Lens,
    LensCharacter,
    Progression,
    ProgressionSpectrum,
    SpectralModel,
    Sphere3,
    Torus3,
    TorusHolonomy,
    TrivialBundle,
    enumerate_spectrum,
    progression_spectrum,
)
from twisteta.specflow import sf_for_flux


# --- Hurwitz zeta building block --------------------------------------------

def _family_eta(coeffs, q):
    """Eta of one family ``k + q``, ``q > 0``: the polynomial ``F_m(q)``."""
    return eta_hurwitz(ProgressionSpectrum.of((Progression(1, q, 1.0, coeffs),)))


def test_hurwitz_zeta_at_zero():
    # m = 1: F(q) = zeta_H(0, q) = 1/2 - q and S(n) = n, both tables exact
    assert models_mod._family_polys((1.0,)) == ((-1.0, 0.5), (1, 0), 1)
    for q in (0.25, 0.5, 1.0, 1.75, 3.2):
        value = _family_eta((1.0,), q)
        assert value.eta == pytest.approx(0.5 - q, abs=1e-15)
        assert abs(value.eta - (0.5 - q)) <= value.error_bound


def test_hurwitz_zeta_riemann_values():
    # m(k) = (k + 1)^i at q = 1: F(1) = zeta_H(-i, 1) = zeta(-i), which is
    # -1/12, 0 and 1/120 for i = 1, 2, 3
    for i, zeta in [(1, Fraction(-1, 12)), (2, Fraction(0)), (3, Fraction(1, 120))]:
        value = _family_eta(tuple(float(math.comb(i, j)) for j in range(i + 1)), 1.0)
        assert value.eta == pytest.approx(float(zeta), abs=1e-15)
        assert abs(Fraction(value.eta) - zeta) <= Fraction(value.error_bound)


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

    lam = enumerate_spectrum(items, 40000)[:, 0]
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


def _oracles():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import oracles

    return oracles


def test_hurwitz_matches_mpmath_zeta_oracle():
    # third engine: bench/oracles.py sums c_i zeta_H(-i, q) at 40 digits from
    # brute-force lens weight counts and imports nothing from twisteta; it
    # holds below the first level, |tau| < 3/2, and |tau| = 1e-3 probes s = 0
    oracles = _oracles()
    taus = (-1.37, -0.6, 0.0, 0.45, 1.2, 1.49)
    for p in (1, 2, 3, 5, 7, 12):
        for k in range(p):
            radius = 1.3 if k % 2 else 1.0
            geometry = Sphere3(radius) if p == 1 else Lens(p, radius)
            bundle = TrivialBundle(1) if p == 1 else LensCharacter(p, k)
            for tau in ((-1) ** k * 1e-3, taus[(p + k) % len(taus)]):
                model = SpectralModel(geometry, bundle, flux_shift=tau / radius)
                exact = eta_hurwitz(progression_spectrum(model)).eta
                assert exact == pytest.approx(oracles.level_eta_direct(p, k, tau), abs=1e-12)


def _hurwitz_honesty_draws(seed=1):
    """``(model, p, k, rank)``: one lens draw per character of p in {2, 3, 5,
    7, 12}, 15 spheres and 10 lens spaces with trivial bundles of rank 1-3,
    radius 0.8-1.25 and scale-free flux |tau| <= 50 off the levels."""
    oracles = _oracles()
    rng = random.Random(seed)
    cases = [(p, k) for p in (2, 3, 5, 7, 12) for k in range(p)]
    cases += [(1, None)] * 15 + [(p, None) for p in (2, 3, 5, 7, 12)] * 2
    draws = []
    for p, k in cases:
        r = rng.uniform(0.8, 1.25)
        rank = 1 if k is not None else rng.randint(1, 3)
        geometry = Sphere3(r) if p == 1 else Lens(p, r)
        bundle = TrivialBundle(rank) if k is None else LensCharacter(p, k)
        tau = rng.uniform(-50.0, 50.0)
        while oracles.level_kernel_margin(tau) < 1e-6:
            tau = rng.uniform(-50.0, 50.0)
        draws.append((SpectralModel(geometry, bundle, tau / r), p, k or 0, rank))
    return draws


def test_hurwitz_bounds_are_honest_on_a_seeded_scan():
    # the fold count against bench/oracles: mpmath below the first level, the
    # flux-response identity beyond it, at the model's own tau = t r
    oracles = _oracles()
    outside = []
    for model, p, k, rank in _hurwitz_honesty_draws():
        value = eta_for_model(model, "hurwitz")
        exact = rank * oracles.level_eta(p, k, model.flux_shift * model.geometry.radius)
        if not (value.kernel_dim == 0 and abs(value.eta - exact) <= value.error_bound + 1e-12):
            outside.append((model, value, exact))
    assert outside == []


def test_hurwitz_kernel_on_a_level_is_its_multiplicity():
    # at tau = +-(3/2 + m) the level -+(3/2 + m) is the kernel; eta leaves it
    # out, so it exceeds the value below the level (the oracle's) by
    # sign(tau) times the multiplicity
    oracles = _oracles()
    rng = random.Random(2)
    for i in range(12):
        p = (1, 2, 3, 5, 7, 12)[i % 6]
        k, r, side = rng.randrange(p), rng.uniform(0.8, 1.25), rng.choice((-1, 1))
        kernel = 0
        while not kernel:
            m = rng.randrange(48)
            kernel = oracles.level_multiplicities(m, p, k)[0 if side < 0 else 1]
        tau = side * (1.5 + m)
        geometry = Sphere3(r) if p == 1 else Lens(p, r)
        bundle = TrivialBundle(1) if p == 1 else LensCharacter(p, k)
        value = eta_for_model(SpectralModel(geometry, bundle, tau / r), "hurwitz")
        assert value.kernel_dim == kernel
        exact = oracles.level_eta(p, k, tau) + side * kernel
        assert abs(value.eta - exact) <= value.error_bound + 1e-12


@pytest.mark.parametrize("tau", [12000.25, -12000.25, 1e7 + 0.3, 1e10])
def test_hurwitz_eta_past_ten_thousand_crossed_levels(tau):
    # unit sphere, tau > 0: eta = 2 S(n) + tau/2 - 2 tau^3/3, where the n
    # lowest negative levels, S(n) = n(n+1)(n+2)/3 modes, have crossed zero;
    # eta is odd in tau.  At tau = 1e10, F(q) and 2 S(n) are 20 orders of
    # magnitude above their difference.
    value = eta_for_model(SpectralModel(Sphere3(1.0), flux_shift=tau), "hurwitz")
    t = abs(Fraction(tau))
    n = math.ceil(t - Fraction(3, 2))
    exact = Fraction(2 * n * (n + 1) * (n + 2), 3) + t / 2 - 2 * t**3 / 3
    assert value.kernel_dim == 0
    assert abs(Fraction(value.eta) - math.copysign(1, tau) * exact) <= Fraction(value.error_bound)


@pytest.mark.parametrize("tau", [1e7 + 1.5, 1e100])
def test_hurwitz_refuses_a_kernel_test_it_cannot_resolve(tau):
    # a kernel at 1e7 + 3/2 is exact in floats, but the test's rounding error
    # eps |offset| is above ZERO_TOL there; at 1e100 the index nearest -q
    # gives a float value of exactly 0
    model = SpectralModel(Sphere3(1.0), flux_shift=tau)
    with pytest.raises(ValueError, match="flux puts offset"):
        eta_for_model(model, "hurwitz")
    with pytest.raises(ValueError, match="flux puts offset"):
        [fam.crossing() for fam in progression_spectrum(model).families]


def test_eta_scale_invariance():
    # at t = 4.1 the lowest levels have crossed zero
    for t in (0.2, 4.1):
        ps = progression_spectrum(SpectralModel(Lens(3), LensCharacter(3, 1), flux_shift=t))
        scaled = ProgressionSpectrum.of(
            tuple(Progression(f.sign, 7.0 * f.offset, 7.0 * f.step, f.mult_coeffs)
                  for f in ps.families))
        assert eta_hurwitz(scaled).eta == pytest.approx(eta_hurwitz(ps).eta, abs=1e-10)


def test_eta_hurwitz_antisymmetry():
    for t in (0.0, 2.45):
        ps = progression_spectrum(SpectralModel(Circle(1.0), CircleHolonomy(0.3), t))
        flipped = ProgressionSpectrum.of(
            tuple(Progression(-f.sign, f.offset, f.step, f.mult_coeffs) for f in ps.families))
        assert eta_hurwitz(flipped).eta == pytest.approx(-eta_hurwitz(ps).eta, abs=1e-13)


def test_eta_hurwitz_input_validation():
    for offset in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            Progression(sign=1, offset=offset, step=1.0, mult_coeffs=(1.0,))
    with pytest.raises(ValueError):
        Progression(sign=1, offset=1.0, step=0.0, mult_coeffs=(1.0,))
    with pytest.raises(ValueError):
        eta_hurwitz(ProgressionSpectrum.of(
            (Progression(sign=1, offset=1.0, step=1.0, mult_coeffs=(0.5,)),)))


def _shifted(coeffs, by=1):
    """Coefficients of ``m(k + by)``, exact for integer coefficients."""
    return tuple(sum(c * math.comb(n, i) * by ** (n - i) for n, c in enumerate(coeffs) if n >= i)
                 for i in range(len(coeffs)))


@pytest.mark.parametrize("coeffs", [(1.0,), (2.0, 3.0, 1.0), (0.0, 0.5, 0.5), (4.0, 0.0, 2.0),
                                    (1.0, 0.0, 0.0, 1.0)])
def test_eta_hurwitz_fold_identity(coeffs):
    # zeta_H(-i, q) - zeta_H(-i, q + 1) = q^i: dropping a family's first value
    # v0 changes eta by sign(v0) m(0), or the kernel by m(0) where v0 = 0
    m0 = coeffs[0]
    for sign in (1, -1):
        for step in (1.0, 0.7):
            for offset in (-7.3, -2.1, -0.4, 0.0, 0.6, 3.25):
                family = ProgressionSpectrum.of((Progression(sign, offset, step, coeffs),))
                later = ProgressionSpectrum.of(
                    (Progression(sign, offset + step, step, _shifted(coeffs)),))
                a, b = eta_hurwitz(family), eta_hurwitz(later)
                v0 = sign * offset
                assert abs(a.eta - (b.eta + np.sign(v0) * m0)) <= a.error_bound + b.error_bound
                assert a.kernel_dim == b.kernel_dim + (m0 if offset == 0 else 0)


# --- heat engine --------------------------------------------------------------

def test_gauss_legendre_rule_matches_mpmath():
    import mpmath
    from mpmath.calculus.quadrature import GaussLegendre

    ctx = mpmath.mp.clone()
    ctx.dps = 30
    # degree 4 of mpmath's rule is the 3 * 2^3 = 24 point rule on [-1, 1]
    nodes = sorted(GaussLegendre(ctx).calc_nodes(4, ctx.prec))
    assert len(nodes) == _GL_X.size == _GL_W.size == 24
    assert _GL_X.dtype == _GL_W.dtype == np.longdouble
    eps = ctx.mpf(float(np.finfo(np.longdouble).eps))
    # str of a longdouble round-trips, and 30 digits carry it to within 1e-30
    for x, w, (x_ref, w_ref) in zip(_GL_X, _GL_W, nodes):
        assert abs(ctx.mpf(str(x)) - x_ref) <= 4 * eps
        assert abs(ctx.mpf(str(w)) - w_ref) <= 4 * eps


@pytest.mark.parametrize("x,w,n", [(_GL20_X, _GL20_W, 20), (_GL_X, _GL_W, 24)],
                         ids=["20-point", "24-point"])
def test_gauss_legendre_rules_integrate_even_moments_exactly(x, w, n):
    # an n-point rule is exact to degree 2n - 1: sum w x^2k = 2/(2k + 1)
    assert x.size == w.size == n
    assert x.dtype == w.dtype == np.longdouble
    eps = np.finfo(np.longdouble).eps
    for k in range(n):
        exact = np.longdouble(2) / (2 * k + 1)
        assert abs(np.sum(w * x ** (2 * k)) - exact) <= 8 * eps


def _seeded_heat_models():
    """Models on all four geometries with |t r| <= 2.9 (r the radius, the
    largest torus edge): holonomy circles, spheres, lens characters p <= 12
    and holonomy tori with L_max/L_min <= 2, at cutoffs that converge and
    ones that do not."""
    rng = np.random.default_rng(19)
    models = []
    for cutoff in (200, 800, 2000):
        r = rng.uniform(0.5, 2.0)
        models.append((SpectralModel(Circle(r), CircleHolonomy(rng.uniform(0.0, 1.0)),
                                     rng.uniform(-2.9, 2.9) / r), cutoff))
    for cutoff in (60, 150, 400):
        r = rng.uniform(0.5, 2.0)
        models.append((SpectralModel(Sphere3(r), flux_shift=rng.uniform(-2.9, 2.9) / r),
                       cutoff))
    for cutoff in (60, 150, 400, 400):
        r, p = rng.uniform(0.5, 2.0), int(rng.integers(2, 13))
        character = LensCharacter(p, int(rng.integers(0, p)))
        models.append((SpectralModel(Lens(p, r), character, rng.uniform(-2.9, 2.9) / r),
                       cutoff))
    for cutoff in (8, 12):
        lengths = rng.uniform(1.0, 2.0, 3)
        lengths[rng.integers(0, 3)] = 1.0
        holonomy = TorusHolonomy(tuple(rng.uniform(0.0, 1.0, 3)))
        models.append((SpectralModel(Torus3(tuple(lengths)), holonomy,
                                     rng.uniform(-2.9, 2.9) / lengths.max()), cutoff))
    return [pytest.param(model, cutoff, id=f"{model.geometry.config_name}-{cutoff}")
            for model, cutoff in models]


def _record_integrals(monkeypatch) -> list:
    """Make ``eta_heat`` record the ``(trace, t0, t1, panels, |G24 - G20|)``
    of each of its ``_integrate_log`` calls in the returned list."""
    calls = []
    integrate_log = eta_mod._integrate_log

    def spy(trace, t0, t1, panels):
        value, err = integrate_log(trace, t0, t1, panels)
        calls.append((trace, t0, t1, panels, err))
        return value, err

    monkeypatch.setattr(eta_mod, "_integrate_log", spy)
    return calls


@pytest.mark.parametrize("model,cutoff", _seeded_heat_models())
def test_quadrature_estimate_bounds_the_two_panel_error(monkeypatch, model, cutoff):
    # on each half of eta_heat's split, |G24 - G20| at 2 panels bounds the
    # distance of the 2-panel G24 from the 16-panel G24, up to the rounding
    # of the sums, 8 eps times the integral of t^(-1/2) times the gross
    # trace (the evaluation noise that eta_heat budgets separately)
    calls = _record_integrals(monkeypatch)
    heat = eta_for_model(model, "heat_kernel", cutoff=cutoff)
    halves = [call for call in calls if call[3] == 2]
    assert len(halves) in (1, 2)
    eps = float(np.finfo(np.longdouble).eps)
    for trace, lo, hi, _, quad_err in halves:
        g24, _ = _integrate_log(trace, lo, hi, 2)
        reference, _ = _integrate_log(trace, lo, hi, 16)
        gross, _ = _integrate_log(SimpleNamespace(odd=trace.gross), lo, hi, 2)
        assert abs(float(g24 - reference)) <= quad_err + 8 * eps * float(gross)
    if not isinstance(model.geometry, Torus3):
        exact = eta_for_model(model, "hurwitz")
        assert abs(heat.eta - exact.eta) <= heat.error_bound + exact.error_bound


def test_quadrature_doubles_the_panels_when_the_pair_disagrees(monkeypatch):
    # at tol 1e-13 the 2-panel |G24 - G20| (about 8.8e-12) fails tol/16, so
    # both halves are integrated again on 4 panels, where it passes
    model = SpectralModel(Sphere3(0.8422), flux_shift=0.155296)
    calls = _record_integrals(monkeypatch)
    heat = eta_for_model(model, "heat_kernel", cutoff=400, tol=1e-13)
    assert [call[3] for call in calls] == [2, 2, 4, 4]
    assert sum(call[4] for call in calls[:2]) > 1e-13 / 16
    assert sum(call[4] for call in calls[2:]) <= 1e-13 / 16
    exact = eta_for_model(model, "hurwitz")
    assert abs(heat.eta - exact.eta) <= heat.error_bound + exact.error_bound


@pytest.mark.parametrize("model,cutoff", [
    (SpectralModel(Circle(0.8918), CircleHolonomy(0.151786), flux_shift=1.376719), 40),
    (SpectralModel(Sphere3(0.8422), flux_shift=0.155296), 400),
], ids=["circle", "sphere"])
def test_heat_eta_evaluates_201_trace_rows(monkeypatch, model, cutoff):
    # 12 odd and 12 gross ladder rows, 1 t_max row, and 2 halves x 2 panels
    # x (24 + 20) quadrature nodes
    rows = []
    heat_sums = eta_mod._heat_sums
    monkeypatch.setattr(eta_mod, "_heat_sums",
                        lambda lam, weight, ts, reach:
                        rows.append(ts.size) or heat_sums(lam, weight, ts, reach))
    assert eta_for_model(model, "heat_kernel", cutoff=cutoff).converged
    assert sum(rows) == 201


def test_heat_symmetric_spectrum_cancels_exactly():
    items = [(v, 2) for v in (-3.5, -1.5, 1.5, 3.5)]
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
        eta_heat([(0.0, 1), (1.0, 1)])


@pytest.mark.parametrize("mult", [0, -1, 1.5, float("nan")])
def test_multiplicities_must_be_positive_integers(mult):
    with pytest.raises(ValueError, match="positive integers"):
        eta_heat([(1.0, mult), (2.0, 1)])


def test_heat_unconverged_flagged():
    from twisteta.models import enumerate_spectrum

    items = enumerate_spectrum(SpectralModel(Circle(1.0), CircleHolonomy(0.25)), 12)
    value = eta_heat(items, tol=1e-13)
    assert not value.converged
    assert value.error_bound > 1e-13


def test_heat_pole_detection_on_artificial_spectrum():
    # geometric spectrum: eta(s) = 1/(1 - 2^{-s}) has a genuine simple pole
    # at s = 0 with residue 1/ln 2; the engine must report it, not a value
    items = [(float(2**k), 1) for k in range(26)]
    with pytest.raises(EtaRegularityError) as excinfo:
        eta_heat(items)
    assert excinfo.value.residue == pytest.approx(1.0 / np.log(2.0), rel=0.05)


@pytest.mark.parametrize("model,cutoff", [
    (SpectralModel(Circle(1.0), CircleHolonomy(0.3), flux_shift=0.37), 2000),
    (SpectralModel(Sphere3(0.9), flux_shift=1.3), 400),
    (SpectralModel(Torus3((1.0, 1.1, 0.95)), flux_shift=0.2), 12),
], ids=["circle", "sphere", "torus"])
def test_windowed_trace_matches_full_sum(monkeypatch, model, cutoff):
    # on a geometric sweep of t and at every t that eta_heat itself sums:
    # its ladder, t_max and quadrature nodes
    ld = np.longdouble
    engine_ts = []
    heat_sums = eta_mod._heat_sums
    monkeypatch.setattr(eta_mod, "_heat_sums", lambda lam, weight, ts, reach:
                        engine_ts.append(ts) or heat_sums(lam, weight, ts, reach))
    eta_for_model(model, "heat_kernel", cutoff=cutoff)
    monkeypatch.undo()
    assert sum(ts.size for ts in engine_ts) == 201
    trace = _OddTrace(enumerate_spectrum(model, cutoff))
    t_floor = _tail_floor(trace, 1e-11)
    t_max = 80.0 / trace.min_abs**2
    ts = np.concatenate([np.geomspace(t_floor, t_max, 20).astype(ld), *engine_ts])
    lam, mult = trace.lam, trace.mult
    abs_all, mult_all = trace._abs_all.astype(ld), trace._mult_all.astype(ld)
    full_odd = np.array([np.sum(mult * lam * np.exp(-t * lam * lam)) for t in ts])
    full_gross = np.array([np.sum(mult_all * abs_all * np.exp(-t * abs_all * abs_all))
                           for t in ts])
    odd, gross = trace.odd(ts), trace.gross(ts)
    # rounding of the sums, plus the at most 1e-60 that each window drops
    slack = 4 * np.finfo(ld).eps * full_gross + 1e-60
    assert np.all(np.abs(odd - full_odd) <= slack)
    assert np.all(np.abs(gross - full_gross) <= slack)
    one_by_one = np.array([trace.odd([t])[0] for t in ts])
    assert np.all(np.abs(one_by_one - full_odd) <= slack)


def test_heat_eta_sums_only_the_terms_that_can_matter(monkeypatch):
    # the window t lambda^2 <= ln(W) + 60 ln 10 of each trace: 179,215 terms
    # for this eta, where the underflow window t lambda^2 <= 11500 sums 347,593
    summed = []
    heat_sums = eta_mod._heat_sums

    def spy(lam, weight, ts, reach):
        r = np.sqrt(reach / ts.astype(float))
        summed.append(int(np.sum(np.searchsorted(lam, r, side="right")
                                 - np.searchsorted(lam, -r, side="left"))))
        return heat_sums(lam, weight, ts, reach)

    monkeypatch.setattr(eta_mod, "_heat_sums", spy)
    model = SpectralModel(Circle(1.1549), CircleHolonomy(0.495892), flux_shift=0.674237)
    heat = eta_for_model(model, "heat_kernel", cutoff=2000)
    assert sum(summed) < 200_000
    exact = eta_for_model(model, "hurwitz")
    assert heat.converged
    assert abs(heat.eta - exact.eta) <= heat.error_bound + exact.error_bound


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


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_round_models())
def test_heat_agrees_with_hurwitz_within_both_bounds(drawn):
    model, cutoff = drawn
    exact = eta_for_model(model, "hurwitz")
    heat = eta_for_model(model, "heat_kernel", cutoff=cutoff)
    assert heat.kernel_dim == exact.kernel_dim
    assert abs(heat.eta - exact.eta) <= heat.error_bound + exact.error_bound


def _honesty_draws(count=80, seed=1):
    """``(model, cutoff)`` draws cycling through the four geometries, at
    cutoffs that converge and many that do not: holonomy circles at N
    10-2000, spheres and lens characters (p in {2, 3, 5, 7, 12}) at N 10-400
    with |t r| <= 2.9, and non-cubic holonomy tori at N 6-20."""
    rng = random.Random(seed)
    draws = []
    for i in range(count):
        kind = ("circle", "sphere", "lens", "torus")[i % 4]
        if kind == "torus":
            lengths = [1.0, rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0)]
            rng.shuffle(lengths)
            holonomy = TorusHolonomy(tuple(rng.uniform(0.0, 1.0) for _ in range(3)))
            t = rng.uniform(-2.9, 2.9) / max(lengths)
            draws.append((SpectralModel(Torus3(tuple(lengths)), holonomy, t), rng.randint(6, 20)))
            continue
        r = rng.uniform(0.5, 2.0)
        t = rng.uniform(-2.9, 2.9) / r
        top = 2000 if kind == "circle" else 400
        cutoff = round(math.exp(rng.uniform(math.log(10), math.log(top))))
        if kind == "circle":
            model = SpectralModel(Circle(r), CircleHolonomy(rng.uniform(0.0, 1.0)), t)
        elif kind == "sphere":
            model = SpectralModel(Sphere3(r), flux_shift=t)
        else:
            p = rng.choice([2, 3, 5, 7, 12])
            model = SpectralModel(Lens(p, r), LensCharacter(p, rng.randrange(p)), t)
        draws.append((model, cutoff))
    return draws


def _exact_eta(model):
    """(eta, its bound): Hurwitz, or ``2 sf - Vol t^3/(3 pi^2)`` on the flat
    torus, whose holonomy spectrum is symmetric at zero flux."""
    if isinstance(model.geometry, Torus3):
        t = model.flux_shift
        return 2 * sf_for_flux(model, t).flow - model.geometry.volume * t**3 / (3 * np.pi**2), 0.0
    exact = eta_for_model(model, "hurwitz")
    return exact.eta, exact.error_bound


def test_heat_bounds_are_honest_on_a_seeded_scan():
    # every heat value, converged or not, lies within its bound of the exact
    # one; with the budget's former tail, next-term and fit-noise terms none
    # of these draws was outside either (the sparse-lens defect in CHANGES.md
    # hits none of them)
    outside = []
    for model, cutoff in _honesty_draws():
        heat = eta_for_model(model, "heat_kernel", cutoff=cutoff)
        exact, exact_bound = _exact_eta(model)
        if abs(heat.eta - exact) > heat.error_bound + exact_bound:
            outside.append((model, cutoff, heat.converged))
    assert outside == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="FOUND in CHANGES.md: unconverged heat bounds on sparse lens "
                          "spectra, fitted on 8 of 12 ladder points, miss the exact eta")
@pytest.mark.parametrize("p,k,radius,t,cutoff", [
    (7, 0, 1.4020459598729607, 0.9383711119643134, 10),
    (12, 6, 1.2615758757669742, 1.8857948915664013, 20),
], ids=["lens-7-0", "lens-12-6"])
def test_unconverged_heat_bound_covers_a_sparse_lens_spectrum(p, k, radius, t, cutoff):
    model = SpectralModel(Lens(p, radius), LensCharacter(p, k), t)
    heat = eta_for_model(model, "heat_kernel", cutoff=cutoff)
    exact = eta_for_model(model, "hurwitz")
    assert abs(heat.eta - exact.eta) <= heat.error_bound + exact.error_bound


# --- rho ---------------------------------------------------------------------

def test_rho_trivial_bundle_vanishes():
    value = rho(SpectralModel(Circle(1.0)))
    assert value.rho == 0.0
    value = rho(SpectralModel(Sphere3(1.0), TrivialBundle(2)))
    assert value.rho == 0.0


@pytest.mark.parametrize("rank,t,flow", [(2, 0.3, 0), (3, 1.7, 2)])
def test_rho_of_a_trivial_bundle_subtracts_rank_copies(rank, t, flow):
    # on the unit sphere eta = 2 sf + t/2 - (2/3) t^3 per copy of the line
    # bundle, so xi is nonzero and only the rank factor makes rho vanish
    value = rho(SpectralModel(Sphere3(1.0), TrivialBundle(rank), t))
    xi_line = (2 * flow + t / 2 - 2 * t**3 / 3) / 2
    assert value.xi_trivial.xi == pytest.approx(xi_line, abs=1e-12)
    assert value.xi_twisted.xi == pytest.approx(rank * xi_line, abs=1e-12)
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

