import collections
import functools
import json
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
    EtaValue,
    eta_for_model,
    eta_heat,
    eta_hurwitz,
    heat_cutoff,
    rho,
)
from twisteta import eta as eta_mod
from twisteta import models as models_mod
from twisteta.eta import (
    _GL20_W,
    _GL20_X,
    _GL_W,
    _GL_X,
    _KAPPA,
    _OddTrace,
    _integrate_log,
)
from twisteta.models import (
    Circle,
    CircleHolonomy,
    Lens,
    LensCharacter,
    ProgressionSpectrum,
    SpectralModel,
    Sphere3,
    Torus3,
    TorusHolonomy,
    TrivialBundle,
    ZERO_TOL,
    enumerate_spectrum,
    progression_spectrum,
)
from twisteta.specflow import sf_for_flux


# --- Hurwitz zeta building block --------------------------------------------

def _spectrum(*families):
    """The spectrum of families ``(sign, offset, step, mult_coeffs)``, each
    ``sign (offset + step k)`` for k >= 0, at radius 1 and flux 0."""
    return ProgressionSpectrum(tuple(models_mod._row(s, s * o, st, c) for s, o, st, c in families))


def _rows(spectrum):
    """The spectrum's family table read at its radius and flux, ``(sign,
    offset, step, mult_coeffs, polys)`` per family, each pair checked to have
    a finite step above ``2 ZERO_TOL`` and a finite ``offset/step``, all
    before the first row is returned."""
    r, t = spectrum.radius, spectrum.flux
    rows = []
    for sign, v0, step, coeffs, polys in spectrum.table:
        offset, step = sign * (v0 / r + t), step / r
        if not (2 * ZERO_TOL < step < math.inf and math.isfinite(offset / step)):
            raise ValueError(f"step must be finite and above {2 * ZERO_TOL:g}, and "
                             f"offset/step finite, got {offset!r}/{step!r}")
        rows.append((sign, offset, step, coeffs, polys))
    return rows


def _eta_hurwitz_reference(spectrum):
    """The Hurwitz eta of one spectrum by a Python loop over its rows, which
    ``eta_hurwitz``'s numpy pass must match bit for bit: per row, Horner's
    rule with its running error sum ``mu``, ``_crossing`` and the exact
    Faulhaber fold, the running total and bound; an ``OverflowError`` is a
    count past the double range, and a rank past it refuses every value."""
    total = bound = 0.0
    kernel = 0
    rows = _rows(spectrum)
    try:
        for sign, offset, step, coeffs, (f_coeffs, s_coeffs, denom) in rows:
            q = offset / step
            abs_q = abs(q)
            value = mu = 0.0
            for a in f_coeffs:
                value = value * q + a
                mu = mu * abs_q + abs(value)
            n, k = models_mod._crossing(offset, step, coeffs)
            fold = k
            if n:  # S_m(0) = 0
                s = 0
                for a in s_coeffs:
                    s = s * n + a
                fold += 2 * ((2 * s + denom) // (2 * denom))  # S_m(n), the nearest integer
            total += sign * (value - fold)
            bound += mu + fold + abs(total)
            kernel += k
    except OverflowError:
        total = math.inf
    error = 3.0 * eta_mod._EPS * bound
    if not math.isfinite(total + error):
        raise ValueError("the flux is too large: the Hurwitz eta is not finite in doubles")
    rank = spectrum.rank
    if rank > sys.float_info.max or not math.isfinite(rank * (abs(total) + error)):
        raise ValueError(f"rank {rank} puts eta outside the double range")
    if rank * kernel > sys.float_info.max or rank * kernel != float(rank * kernel):
        raise ValueError(f"rank {rank} puts the kernel dimension above 2^53, "
                         "where a double no longer holds it exactly")
    return EtaValue(rank * total, rank * kernel, "hurwitz", float(rank * error))


def _eta(spectrum):
    """``eta_hurwitz`` of one spectrum, a batch of one: its value, or its
    error raised."""
    return eta_mod._value(eta_hurwitz([spectrum])[0])


def _family_eta(coeffs, q):
    """Eta of one family ``k + q``, ``q > 0``: the polynomial ``F_m(q)``."""
    return _eta(_spectrum((1, q, 1.0, coeffs)))


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
                exact = _eta(progression_spectrum(model)).eta
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
        [models_mod._crossing(*row[1:4]) for row in _rows(progression_spectrum(model))]


def test_eta_scale_invariance():
    # at t = 4.1 the lowest levels have crossed zero
    for t in (0.2, 4.1):
        ps = progression_spectrum(SpectralModel(Lens(3), LensCharacter(3, 1), flux_shift=t))
        scaled = _spectrum(*((sign, 7.0 * offset, 7.0 * step, coeffs)
                             for sign, offset, step, coeffs, _ in _rows(ps)))
        assert _eta(scaled).eta == pytest.approx(_eta(ps).eta, abs=1e-10)


def test_eta_hurwitz_antisymmetry():
    for t in (0.0, 2.45):
        ps = progression_spectrum(SpectralModel(Circle(1.0), CircleHolonomy(0.3), t))
        flipped = _spectrum(*((-sign, offset, step, coeffs)
                              for sign, offset, step, coeffs, _ in _rows(ps)))
        assert _eta(flipped).eta == pytest.approx(-_eta(ps).eta, abs=1e-13)


def _bit_identity_batches(seed=11):
    """Batches ``(table, rank, points)`` for the numpy pass against the
    reference: every circle, sphere and lens character table (p <= 12) and
    three hand-made ones, 8 points a batch, fluxes across crossings, on
    kernel points, near the threshold that cannot be resolved (``|offset|``
    about 4.5e6) and at 1e300."""
    rng = random.Random(seed)
    models = [SpectralModel(Circle(1.0))] + [
        SpectralModel(Circle(1.0), CircleHolonomy(a)) for a in (0.25, 0.5, 0.8)]
    models += [SpectralModel(Sphere3(1.0))] + [
        SpectralModel(Lens(p), LensCharacter(p, k)) for p in range(2, 13) for k in range(p)]
    tables = [progression_spectrum(model).table for model in models] + [
        # positive families only: past 1e102 F(q) leaves the doubles
        _spectrum((1, 0.5, 1.0, (1.0, 1.0, 1.0))).table,
        # a step 3e-9 falls under 2 ZERO_TOL at radius 1.5 and up
        _spectrum((1, 0.5, 1.0, (2.0, 3.0, 1.0)), (1, 0.3, 3e-9, (1.0,)),
                  (-1, 0.25, 1.0, (1.0, 1.0))).table,
        _spectrum((1, 0.5, 1.0, (1.0,)), (1, 1.0, 0.0, (1.0,))).table,  # a zero step
    ]

    def flux(table, r):
        sign, v0, step, _, _ = rng.choice(table)
        kind = rng.randrange(5)
        if kind == 0:
            return rng.uniform(-9.0, 9.0)
        if kind == 1:  # on the k-th value of a family: a kernel
            return -(v0 + sign * step * rng.randrange(12)) / r
        if kind == 2:  # near the k-th value, k where |offset| is about 4.5e6
            k = round(4.5e6 * r / step) if step else 0
            return -(v0 + sign * step * k) / r + rng.choice((0.0, 1.0, -1.0, 2.0)) * 1e-9
        return rng.choice((1e300, -1e300, 1e200, -1e10 - 0.3))

    batches = []
    for table in tables:
        for _ in range(3):
            points = []
            for _ in range(8):
                r = rng.choice((1.0, rng.uniform(0.5, 3.0)))
                points.append((r, flux(table, r)))
            batches.append((table, rng.randint(1, 3), points))
    # the kernel count 2^53 + 1 is no double, 10^19 is; no double holds 10^400,
    # nor 10^308 times the unit sphere's eta -6.308 at flux 3.3 or its kernel
    # 2 at 1.5, but 10^308 times its eta 0.132 at 0.3; F(1/2) = 0 for m = 1,
    # so the one family -(k + 1/2) sums to -0.0, which a sum from 0.0 is not
    circle, sphere = tables[0], tables[4]
    batches += [(circle, 2**53 + 1, [(1.0, 0.0), (1.0, 0.3)]), (circle, 10**19, [(1.0, 0.0)]),
                (circle, 10**400, [(1.0, 0.3), (1.0, 0.0)]),
                (sphere, 10**308, [(1.0, 3.3), (1.0, 0.3), (1.0, 1.5)]),
                (_spectrum((-1, 0.5, 1.0, (1.0,))).table, 1, [(1.0, 0.0), (2.0, 0.0)])]
    return batches


def _outcome_bits(outcome):
    """An eta value's fields bit for bit (``repr`` tells -0.0 from 0.0), or an
    error's type and message."""
    return repr(outcome) if isinstance(outcome, EtaValue) else (type(outcome), str(outcome))


def test_eta_hurwitz_pass_matches_the_per_row_loop_bit_for_bit():
    # every point of a batch has the bits of the reference loop run on it
    # alone, or its error; the pass runs under error::RuntimeWarning
    seen = collections.Counter()
    draws = 0
    for table, rank, points in _bit_identity_batches():
        spectra = [ProgressionSpectrum(table, r, t, rank) for r, t in points]
        kinds = set()
        for spectrum, outcome in zip(spectra, eta_hurwitz(spectra)):
            try:
                expected = _eta_hurwitz_reference(spectrum)
            except ValueError as exc:
                expected = exc
                kinds.add(next(k for k in ("step", "offset", "too large", "double range",
                                           "2^53") if k in str(exc)))
            else:
                kinds.add("kernel" if expected.kernel_dim else "value")
            assert _outcome_bits(outcome) == _outcome_bits(expected), spectrum
            draws += 1
        seen.update(kinds)
        seen["two errors"] += len(kinds - {"kernel", "value"}) >= 2
    assert draws >= 2000
    # the premises, counted in batches: values with and without a kernel,
    # each error, and points of one batch that fail in different ways
    assert len(seen) == 8 and min(seen.values()) >= 1, seen


def test_eta_hurwitz_input_validation():
    for offset in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="offset/step finite"):
            _eta(_spectrum((1, offset, 1.0, (1.0,))))
    with pytest.raises(ValueError, match="step must be finite"):
        _eta(_spectrum((1, 1.0, 0.0, (1.0,))))
    with pytest.raises(ValueError, match="not integer-valued"):
        _eta(_spectrum((1, 1.0, 1.0, (0.5,))))


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
                family = _spectrum((sign, offset, step, coeffs))
                later = _spectrum((sign, offset + step, step, _shifted(coeffs)))
                a, b = _eta(family), _eta(later)
                v0 = sign * offset
                assert abs(a.eta - (b.eta + np.sign(v0) * m0)) <= a.error_bound + b.error_bound
                assert a.kernel_dim == b.kernel_dim + (m0 if offset == 0 else 0)


# --- heat engine --------------------------------------------------------------

def _small_time(model, cutoff):
    """The keyword arguments of ``eta_heat`` that ``eta_for_model`` passes for
    ``model`` enumerated at ``cutoff``: its geometry's small-time heat data at
    its flux and rank."""
    geo, t, rank = model.geometry, model.flux_shift, model.rank
    return {"weyl": rank * geo.weyl_coefficient * t, "geodesic": geo.shortest_geodesic,
            "remainder": lambda s: rank * (geo.heat_remainder(s, t) + geo.heat_tail(s, t, cutoff)),
            "flux": t}


def _gross(trace):
    """``sum m |lambda| exp(-t lambda^2)`` over the whole spectrum of a trace,
    unwindowed, for a vector of t, each exponential taken as the engine takes
    it: the scale of the rounding of its sums."""
    lam, weight = trace.values, trace.mults * np.abs(trace.values)

    def gross(ts):
        return np.array([np.sum(weight * np.exp(-t * lam * lam))
                         for t in np.asarray(ts, dtype=float)])

    return gross


def test_gauss_legendre_rule_matches_mpmath():
    import mpmath
    from mpmath.calculus.quadrature import GaussLegendre

    ctx = mpmath.mp.clone()
    ctx.dps = 40
    # degree 4 of mpmath's rule is the 3 * 2^3 = 24 point rule on [-1, 1]; the
    # 20-point rule's nodes are the roots of P_20 near the engine's.  Both
    # rules are float64 on [0, 1], nodes (1 + x)/2 and weights w/2, each
    # within u64 of its value: the rounding the bound carries for them
    rules = {24: sorted(GaussLegendre(ctx).calc_nodes(4, ctx.prec))}
    roots = [ctx.findroot(lambda x: ctx.legendre(20, x), 2 * ctx.mpf(float(z)) - 1)
             for z in _GL20_X]
    rules[20] = [(x, 2 / ((1 - x * x) * ctx.diff(lambda y: ctx.legendre(20, y), x) ** 2))
                 for x in roots]
    u = ctx.mpf(2) ** -53
    for (z, w), n in [((_GL_X, _GL_W), 24), ((_GL20_X, _GL20_W), 20)]:
        assert len(rules[n]) == z.size == w.size == n
        assert z.dtype == w.dtype == np.float64
        for z_k, w_k, (x_ref, w_ref) in zip(z, w, rules[n]):
            assert abs(ctx.mpf(float(z_k)) - (1 + x_ref) / 2) <= u * (1 + x_ref) / 2
            assert abs(ctx.mpf(float(w_k)) - w_ref / 2) <= u * w_ref / 2


@pytest.mark.parametrize("x,w,n", [(_GL20_X, _GL20_W, 20), (_GL_X, _GL_W, 24)],
                         ids=["20-point", "24-point"])
def test_gauss_legendre_rules_integrate_even_moments_exactly(x, w, n):
    # an n-point rule on [0, 1] is exact to degree 2n - 1: sum w z^j = 1/(j +
    # 1), even and odd j.  With every node and weight within u64 of its
    # value, the rounded rule's moment, summed exactly, is within ((1 +
    # u64)^(j + 1) - 1)/(j + 1) of it
    assert x.size == w.size == n
    assert x.dtype == w.dtype == np.float64
    u = Fraction(1, 2**53)
    nodes, weights = [Fraction(z) for z in x.tolist()], [Fraction(v) for v in w.tolist()]
    for j in range(2 * n):
        moment = sum(v * z**j for z, v in zip(nodes, weights))
        assert abs(moment - Fraction(1, j + 1)) <= ((1 + u) ** (j + 1) - 1) / (j + 1)


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
    # on each half of eta_heat's split, |G24 - G20| on its first panels bounds
    # the distance of that G24 from the one on 8 times the panels, up to the
    # rounding of G24, G20 and the reference.  The derivation of eta_heat's
    # rounding term holds for one half [lo, hi] as for [t_min, t_max], and
    # on any number of panels (math.fsum has no depth): each of the three
    # is within _rounding(trace, lo, hi), which also counts the levels'
    # own rounding, not needed here
    calls = _record_integrals(monkeypatch)
    heat = eta_for_model(model, "heat_kernel", cutoff=cutoff)
    halves = calls[:2] if len(calls) > 1 and calls[1][1] == 1.0 else calls[:1]
    for trace, lo, hi, panels, quad_err in halves:
        g24, _ = _integrate_log(trace, lo, hi, panels)
        reference, _ = _integrate_log(trace, lo, hi, 8 * panels)
        rounding = eta_mod._rounding(trace, lo, hi, 0.0)
        assert abs(g24 - reference) <= quad_err + 3 * rounding
    if not isinstance(model.geometry, Torus3):
        exact = eta_for_model(model, "hurwitz")
        assert abs(heat.eta - exact.eta) <= heat.error_bound + exact.error_bound


def test_quadrature_doubles_the_panels_when_the_pair_disagrees(monkeypatch):
    # the halves of [0.16, 80/0.1^2] start on 2 and 3 panels (the upper one
    # is 9.0 wide in log t); at tol 1e-13 their |G24 - G20| (about 4e-14)
    # is below the rounding term R = 5.6e-12 already in the bound, and no
    # panel is doubled.  On panels up to 4.5 wide the upper half starts on 2,
    # where it reads 6.8e-10, past both tol/16 and R, so both halves are
    # integrated again on twice the panels, where it reads 1.2e-14
    model = SpectralModel(Sphere3(1.0), flux_shift=8.6)
    exact = eta_for_model(model, "hurwitz")
    floors, quadrature = [], eta_mod._quadrature
    monkeypatch.setattr(eta_mod, "_quadrature",
                        lambda *args: floors.append(args[-1]) or quadrature(*args))
    calls = _record_integrals(monkeypatch)
    eta_for_model(model, "heat_kernel", cutoff=400, tol=1e-13)
    assert [call[3] for call in calls] == [2, 3]
    assert 1e-13 / 16 < sum(call[4] for call in calls) <= floors[-1]
    monkeypatch.setattr(eta_mod, "_PANEL_WIDTH", 4.5)
    calls.clear()
    heat = eta_for_model(model, "heat_kernel", cutoff=400, tol=1e-10)
    floor = max(1e-10 / 16, floors[-1])
    assert [call[3] for call in calls] == [2, 2, 4, 4]
    assert sum(call[4] for call in calls[:2]) > floor
    assert sum(call[4] for call in calls[2:]) <= floor
    assert heat.converged
    assert abs(heat.eta - exact.eta) <= heat.error_bound + exact.error_bound


@pytest.mark.parametrize("model,cutoff,panels", [
    (SpectralModel(Circle(0.8918), CircleHolonomy(0.151786), flux_shift=1.376719), 40, 5),
    (SpectralModel(Sphere3(0.8422), flux_shift=0.155296), 400, 4),
], ids=["circle", "sphere"])
def test_heat_eta_evaluates_its_trace_rows(monkeypatch, model, cutoff, panels):
    # 1 t_max row and (24 + 20) quadrature nodes on each panel: 221 and 177
    # rows (the eigenvalue-rounding term is a closed form, no trace row).
    # The circle's upper half, [1, 80/0.43^2], is 6.1 wide in log t, so it
    # starts on 3 panels; every other half on 2
    rows = []
    heat_sums = eta_mod._heat_sums
    monkeypatch.setattr(eta_mod, "_heat_sums",
                        lambda lam, weight, ts, reach:
                        rows.append(ts.size) or heat_sums(lam, weight, ts, reach))
    assert eta_for_model(model, "heat_kernel", cutoff=cutoff).converged
    assert sum(rows) == 1 + 44 * panels


def test_heat_bound_covers_a_level_near_zero():
    # the level 1.5/r - 0.9 = 0.018 puts t_max at 2.4e5: the upper half is 12.5
    # wide in log t, where 2 panels' |G24 - G20| read 1.3e-10 against an error
    # of 3.3e-10 (the value and bound the engine gave before the panel width)
    model = SpectralModel(Sphere3(1.6337467851441891), flux_shift=0.9)
    heat = eta_for_model(model, "heat_kernel", cutoff=200)
    exact = eta_for_model(model, "hurwitz")
    assert heat.converged
    assert abs(heat.eta - exact.eta) <= heat.error_bound + exact.error_bound


def test_heat_symmetric_spectrum_cancels_exactly():
    # the odd trace is empty, but the bound still holds the Weyl term's, the
    # small-time remainder's and the eigenvalues' rounding: it covers the
    # unit sphere's exact eta 0 without claiming exactness
    items = [(v, 2) for v in (-3.5, -1.5, 1.5, 3.5)]
    value = eta_heat(items, **_small_time(SpectralModel(Sphere3(1.0)), 2))
    exact = eta_for_model(SpectralModel(Sphere3(1.0)), "hurwitz")
    assert value.eta == 0.0
    assert value.error_bound > 0.0
    assert abs(value.eta - exact.eta) <= value.error_bound + exact.error_bound


@pytest.mark.parametrize("r", [1e-30, 1e-20, 1e-16, 1e-12])
def test_heat_bound_covers_a_spectrum_that_rounds_symmetric(r):
    # at radius r <= 1e-16 every lambda + 0.3 rounds to a symmetric spectrum,
    # so the odd trace cancels exactly; the exact eta, r t/2 - (2/3)(r t)^3 by
    # the calibrated flux-response identity (eta(0) = 0, no flow), is not 0
    t = 0.3
    model = SpectralModel(Sphere3(r), flux_shift=t)
    heat, exact = eta_for_model(model, "heat_kernel"), eta_for_model(model, "hurwitz")
    closed = r * t / 2 - 2 * (r * t) ** 3 / 3
    assert heat.converged and 0.0 < heat.error_bound <= 1e-13
    assert abs(heat.eta - exact.eta) <= heat.error_bound + exact.error_bound
    assert abs(heat.eta - closed) <= heat.error_bound


def _panel_quadrature(trace, t_min, t_max, tol, rounding):
    """``_quadrature`` over its panels whatever the trace: the reference for
    its empty-trace return."""
    halves = [(t_min, 1.0), (1.0, t_max)] if t_max > 1.0 > t_min else [(t_min, t_max)]
    panels = [max(2, math.ceil(math.log(hi / lo) / eta_mod._PANEL_WIDTH)) for lo, hi in halves]
    while True:
        parts = [eta_mod._integrate_log(trace, lo, hi, n) for (lo, hi), n in zip(halves, panels)]
        integral = sum(val for val, _ in parts)
        quad_err = sum(err for _, err in parts)
        if max(panels) >= 512 or quad_err <= max(tol / 16.0, rounding):
            return integral, quad_err
        panels = [2 * n for n in panels]


@pytest.mark.parametrize("model,cutoff", [
    (SpectralModel(Torus3((1.1247,) * 3)), 40),
    (SpectralModel(Sphere3(1e-16), flux_shift=0.3), None),
], ids=["cubic-torus", "sphere-that-rounds-symmetric"])
def test_heat_empty_trace_is_the_panels_sum_without_panels(monkeypatch, model, cutoff):
    # both odd traces cancel exactly: the quadrature is (0, 0) with no panel
    # integrated, and the value keeps every bit of the panels' path
    real, calls = eta_mod._integrate_log, []
    monkeypatch.setattr(eta_mod, "_integrate_log", lambda *args: calls.append(args) or real(*args))
    value = eta_for_model(model, "heat_kernel", cutoff)
    assert not calls
    monkeypatch.setattr(eta_mod, "_quadrature", _panel_quadrature)
    reference = eta_for_model(model, "heat_kernel", cutoff)
    assert calls
    assert value == reference and repr(value) == repr(reference)
    assert value.error_bound > 0.0


@pytest.mark.parametrize("model,last", [
    (SpectralModel(Torus3((1.0, 1.3, 0.7)), TorusHolonomy((0.3, 0.1, 0.0)), flux_shift=0.1), 49),
    (SpectralModel(Circle(1.0), CircleHolonomy(0.25), flux_shift=0.1), 524286),
], ids=["torus", "circle"])
def test_heat_given_cutoff_past_the_shell_budget_is_refused(monkeypatch, model, last):
    # a given cutoff obeys the derived one's budget: the last shell within it
    # is enumerated, the next is refused before any array is built
    asked = []

    def enumerate_spectrum(model, cutoff):
        asked.append(cutoff)
        raise ValueError("enumerated")

    monkeypatch.setattr(eta_mod, "enumerate_spectrum", enumerate_spectrum)
    dim = model.geometry.index_dim
    assert (2 * last + 3) ** dim <= models_mod.SHELL_BUDGET < (2 * last + 5) ** dim
    with pytest.raises(ValueError, match="enumerated"):
        eta_for_model(model, "heat_kernel", last)
    with pytest.raises(ValueError, match=f"cutoff {last + 1} is past {last},"):
        eta_for_model(model, "heat_kernel", last + 1)
    assert asked == [last]


def test_heat_circle_matches_closed_form():
    from twisteta.models import enumerate_spectrum

    model = SpectralModel(Circle(1.0), CircleHolonomy(0.25))
    items = enumerate_spectrum(model, 2000)
    value = eta_heat(items, **_small_time(model, 2000))
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


_CIRCLE_DATA = _small_time(SpectralModel(Circle(1.0)), 2)


def test_heat_rejects_kernel_modes():
    with pytest.raises(ValueError):
        eta_heat([(0.0, 1), (1.0, 1)], **_CIRCLE_DATA)


@pytest.mark.parametrize("mult", [0, -1, 1.5, float("nan")])
def test_multiplicities_must_be_positive_integers(mult):
    with pytest.raises(ValueError, match="positive integers"):
        eta_heat([(1.0, mult), (2.0, 1)], **_CIRCLE_DATA)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_heat_eta_refuses_non_finite_multiplicities(bad):
    # an infinite multiplicity once gave eta -5.2e18 with a finite bound 456
    with pytest.raises(ValueError, match="multiplicities must be positive integers"):
        eta_heat([(1.0, bad), (-2.0, 1), (3.0, 1)], weyl=0.0, geodesic=6.28,
                 remainder=lambda T: 0.0)


@pytest.mark.parametrize("weyl,geodesic", [(float("nan"), 1.0), (0.0, 0.0),
                                           (0.0, float("inf"))])
def test_heat_rejects_bad_small_time_data(weyl, geodesic):
    data = {**_CIRCLE_DATA, "weyl": weyl, "geodesic": geodesic}
    with pytest.raises(ValueError, match="Weyl term"):
        eta_heat([(1.0, 1), (2.0, 1)], **data)


def test_heat_unconverged_flagged():
    from twisteta.models import enumerate_spectrum

    model = SpectralModel(Circle(1.0), CircleHolonomy(0.25))
    value = eta_heat(enumerate_spectrum(model, 8), **_small_time(model, 8), tol=1e-13)
    assert not value.converged
    assert value.error_bound > 1e-13


@pytest.mark.parametrize("model,cutoff,rows", [
    (SpectralModel(Circle(1.0), CircleHolonomy(0.3), flux_shift=0.37), 2000, 221),
    (SpectralModel(Sphere3(0.9), flux_shift=1.3), 400, 221),
    (SpectralModel(Torus3((1.0, 1.1, 0.95)), flux_shift=0.2), 12, 177),
], ids=["circle", "sphere", "torus"])
def test_windowed_trace_matches_full_sum(monkeypatch, model, cutoff, rows):
    # every windowed sum eta_heat takes (its t_max and quadrature rows)
    # equals the full sum over its eigenvalues, and the odd trace does on a
    # geometric sweep of t too
    engine_sums = []
    heat_sums = eta_mod._heat_sums

    def spy(lam, weight, ts, reach):
        out = heat_sums(lam, weight, ts, reach)
        engine_sums.append((lam, weight, ts, out))
        return out

    monkeypatch.setattr(eta_mod, "_heat_sums", spy)
    eta_for_model(model, "heat_kernel", cutoff=cutoff)
    monkeypatch.undo()
    assert sum(ts.size for _, _, ts, _ in engine_sums) == rows

    def full(lam, weight, ts):
        # the full sum, correctly rounded, of the terms as the engine takes
        # them (the exponent, its exp and the product by the weight in
        # float64), and the slack: a window's sum errs by gamma_depth <=
        # (depth + 1) u64 of its |terms| (eta._sum_depth), the reference by
        # u64, one more u64 for the rounding of the slack, plus the at most
        # 1e-60 that each window drops
        assert lam.dtype == weight.dtype == np.float64
        terms = [weight * np.exp(-t * lam * lam) for t in ts.astype(float)]
        depth = eta_mod._sum_depth(lam.size)
        return (np.array([math.fsum(x) for x in terms]),
                (depth + 3) * 2.0**-53 * np.array([np.sum(np.abs(x)) for x in terms]) + 1e-60)

    for lam, weight, ts, out in engine_sums:
        exact, slack = full(lam, weight, ts)
        assert np.all(np.abs(out - exact) <= slack)
    trace = _OddTrace(enumerate_spectrum(model, cutoff))
    t_geo = model.geometry.shortest_geodesic**2 / (4 * _KAPPA)
    t_max = 80.0 / trace.min_abs**2
    ts = np.concatenate([np.geomspace(t_geo / 8, t_max, 20),
                         *(ts for lam, _, ts, _ in engine_sums
                           if lam.shape == trace.lam.shape and np.all(lam == trace.lam))])
    exact, _ = full(trace.lam, trace.mult * trace.lam, ts)
    slack = (eta_mod._sum_depth(trace.lam.size) + 3) * 2.0**-53 * _gross(trace)(ts) + 1e-60
    assert np.all(np.abs(trace.odd(ts) - exact) <= slack)
    one_by_one = np.array([trace.odd([t])[0] for t in ts])
    assert np.all(np.abs(one_by_one - exact) <= slack)


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


def test_sum_depth_bounds_numpy_pairwise_order():
    # numpy sums n < 8 terms in one loop, up to 128 with 8 accumulators (n//8
    # - 1 additions each, 3 joining them, one per remaining term), and above
    # that halves at a multiple of 8, one addition joining the halves; the
    # head term of reduceat adds one.  _sum_depth(n) bounds the most
    # additions a term meets in any sum of at most n terms, and exceeds the
    # exact count by at most 3
    @functools.lru_cache(maxsize=None)
    def depth(n):
        if n < 8:
            return n
        if n <= 128:
            return n // 8 + 2 + n % 8
        half = n // 2 - n // 2 % 8
        return 1 + max(depth(half), depth(n - half))

    most = 0
    for n in range(1, 40_000):
        most = max(most, 1 + depth(n))
        assert most <= eta_mod._sum_depth(n) <= most + 3


def test_trace_is_exactly_zero_where_every_term_underflows():
    assert np.exp(-_UNDERFLOW) == 0.0
    trace = _OddTrace(enumerate_spectrum(SpectralModel(Sphere3(1.0), flux_shift=0.3), 50))
    t = 1.01 * _UNDERFLOW / trace.min_abs**2
    lam, mult = trace.lam, trace.mult
    assert np.sum(mult * lam * np.exp(-t * lam * lam)) == 0.0
    assert trace.odd([t])[0] == 0.0


def _per_row_sums(lam, weight, ts, reach):
    """The trace sums one t at a time, each window a slice summed by numpy,
    the exponent ``(-t lam) lam``, its exp, the terms and sums in float64:
    the reference for ``_heat_sums``."""
    assert lam.dtype == weight.dtype == ts.dtype == np.float64
    r = np.sqrt(reach / ts)
    lo, hi = np.searchsorted(lam, -r, side="left"), np.searchsorted(lam, r, side="right")
    out = np.empty(ts.size)
    for i, t in enumerate(ts):
        window = lam[lo[i]:hi[i]]
        out[i] = (np.exp(-t * window * window) * weight[lo[i]:hi[i]]).sum()
    return out


def _same_bits(a, b):
    """Equal float64 values with equal signs of zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _heat_sums_cases():
    """``(lam, weight, ts, reach)`` calls: windows empty and one at the
    split length (the half-integer levels up to 300 put ``2 floor(r + 1/2)``
    in ``[-r, r]``), rows in unsorted t order, one row, fewer short windows
    than ``_FEW`` and exactly that many, terms that underflow to zeros of both
    signs, and windows of 1 to 4 terms that all underflow to -0 (their sums
    read +0)."""
    rng = np.random.default_rng(7)
    lam = np.arange(-300, 300) + 0.5
    weight = lam * rng.integers(1, 9, lam.size)
    split = eta_mod._SPLIT
    at_split = np.array([140.0 / (split / 2) ** 2, 140.0 / ((split + 2) / 2) ** 2])
    mixed = np.concatenate([at_split, [1e9, 1e-6], np.geomspace(1e-3, 1e3, 60)])
    few = np.geomspace(0.05, 1.0, eta_mod._FEW)
    ragged = np.sort(rng.uniform(-50.0, 50.0, 100))
    far = np.arange(1000, 1010) + 0.5
    return [
        (lam, weight, rng.permutation(mixed), 140.0),
        (lam, weight, np.array([0.3]), 140.0),
        (lam, weight, np.array([1e-6]), 140.0),
        (lam, weight, np.array([1e9, 2e9]), 140.0),
        (lam, weight, few[1:], 140.0),
        (lam, weight, few, 140.0),
        (ragged, ragged * rng.choice([-3, 1, 2], ragged.size), rng.uniform(1.0, 11.0, 90),
         11500.0),
        (far, -far, 11500.0 / np.linspace(1001.0, 1003.9, 8) ** 2, 11500.0),
    ]


def test_heat_sums_equal_the_per_row_sums_bit_for_bit(monkeypatch):
    cases = _heat_sums_cases()
    lam, _, ts, reach = cases[0]
    r = np.sqrt(reach / ts)
    sizes = np.searchsorted(lam, r, side="right") - np.searchsorted(lam, -r, side="left")
    assert 0 in sizes and eta_mod._SPLIT in sizes and eta_mod._SPLIT + 2 in sizes
    assert np.any(np.diff(ts) < 0)
    lam, weight, ts, reach = cases[-2]
    terms = weight * np.exp(-ts[:, None] * lam * lam)
    zero = (ts[:, None] * lam * lam <= reach) & (terms == 0)
    assert np.any(zero & np.signbit(terms)) and np.any(zero & ~np.signbit(terms))
    lam, weight, ts, reach = cases[-1]
    assert np.all(weight[:4] * np.exp(-ts[:, None] * lam[:4] ** 2) == 0)
    for lam, weight, ts, reach in cases:
        assert _same_bits(eta_mod._heat_sums(lam, weight, ts, reach),
                          _per_row_sums(lam, weight, ts, reach))
    # batches of about 100 terms: every pass holds a few windows
    monkeypatch.setattr(eta_mod, "_BATCH", 100)
    for lam, weight, ts, reach in cases:
        assert _same_bits(eta_mod._heat_sums(lam, weight, ts, reach),
                          _per_row_sums(lam, weight, ts, reach))


def _traced_peak(fn):
    """``fn()`` and the peak of the memory traced while it ran, in bytes."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


# the torus a user meets: edges 1, 1.3, 0.7, holonomy (0.3, 0.1, 0), flux 0.1
_USER_TORUS = SpectralModel(Torus3((1.0, 1.3, 0.7)), TorusHolonomy((0.3, 0.1, 0.0)), 0.1)


def test_heat_eta_memory_on_the_non_cubic_holonomy_torus():
    # 115,144 levels at the former default cutoff 40 (the derived one is
    # 25), nearly all inside the window
    # of most of the 179 rows: one flat pass over every window traces 188 MB;
    # as slices, the long windows leave the enumeration's 18 MB the peak.  At
    # both cutoffs eta converges within its bound of 2 sf - Vol t^3/(3 pi^2)
    exact, _ = _exact_eta(_USER_TORUS)
    for cutoff in (40, None):
        heat, peak = _traced_peak(
            lambda: eta_for_model(_USER_TORUS, "heat_kernel", cutoff=cutoff))
        assert heat.converged
        assert abs(heat.eta - exact) <= heat.error_bound
        assert peak < 32 * 2**20


def test_heat_sums_memory_is_capped_by_the_batch():
    # 6,000 short windows of 96-104 terms: one pass over their 599,108 terms
    # traces 19 MB of float64 and int64 temporaries, batches of _BATCH terms
    # (about six arrays of 2^16 entries) 3.4 MB
    lam = np.arange(-60, 60) + 0.5
    weight = lam.copy()
    ts = np.random.default_rng(3).uniform(140.0 / 52**2, 140.0 / 48**2, 6000)
    sums, peak = _traced_peak(lambda: eta_mod._heat_sums(lam, weight, ts, 140.0))
    assert _same_bits(sums, _per_row_sums(lam, weight, ts, 140.0))
    assert peak < 8 * 2**20


# Hypothesis mixes into its float and integer draws constants it reads from
# the source of every loaded module outside the tests (twisteta, bench/,
# tools/), so st.floats drew other examples in a run that had imported more of
# them, derandomized or not.  Booleans never take such constants, and neither
# do integers in (-100, 100): a float here is a point of a 2^-30 grid drawn
# as 30 booleans, and the examples depend on this file alone.
_BITS = 30


def _grid(lo, hi):
    """Floats in the open interval ``(lo, hi)``, midpoints of a 2^-30 grid."""
    return st.lists(st.booleans(), min_size=_BITS, max_size=_BITS).map(
        lambda bits: lo + (hi - lo) * (sum(b << i for i, b in enumerate(bits)) + 0.5) / 2**_BITS)


@st.composite
def _round_models(draw):
    kind = draw(st.sampled_from(["circle", "sphere", "lens"]))
    radius = draw(_grid(0.5, 2.0))
    t = draw(_grid(-3.0, 3.0))
    if kind == "circle":
        a = draw(_grid(0.0, 1.0))
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


_DRAWS_SCRIPT = """
import json, sys
from hypothesis import given, settings, strategies as st
from test_eta import _round_models

def drawn(strategy):
    seen = []
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(strategy)
    def record(x):
        seen.append(repr(x))
    record()
    return seen

before = drawn(_round_models()), drawn(st.floats(0.5, 2.0))
import literals
after = drawn(_round_models()), drawn(st.floats(0.5, 2.0))
print(json.dumps([len(before[0]), before[0] == after[0], before[1] != after[1]]))
"""


def test_round_model_draws_do_not_depend_on_the_loaded_modules(tmp_path):
    # the draws of the test above, before and after a module full of float
    # and integer literals is imported: the same; st.floats' draws change
    import os
    import subprocess

    (tmp_path / "literals.py").write_text(
        "VALUES = [0.61, 0.77, 1.3, 1.9, 1.25, -2.5, 2.25, 0.123, 150, 2000, 31337]\n")
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here), str(tmp_path), str(here.parent / "src")])
    done = subprocess.run([sys.executable, "-c", _DRAWS_SCRIPT], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == [60, True, True]


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


def _floor_draws(count=40, seed=2):
    """``(model, cutoff)`` draws cycling through the four geometries at
    cutoffs below the geodesic scale, where the modes past the cutoff move
    the quadrature's start above ``t_geo = l^2/(4 kappa)``: holonomy
    circles at N 2-9, spheres at N 2-8, lens characters (p in {2, 3, 5, 7,
    12}) at N 2-8p, all with ``|t r| <= 2.9`` and inside 0.45 of the smaller
    extreme level (so inside half the enumerated radius), and non-cubic
    holonomy tori at N 2-10 L_max/L_min."""
    rng = random.Random(seed)
    draws = []
    for i in range(count):
        kind = ("circle", "sphere", "lens", "torus")[i % 4]
        if kind == "torus":
            lengths = [1.0, rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0)]
            rng.shuffle(lengths)
            holonomy = TorusHolonomy(tuple(rng.uniform(0.0, 1.0) for _ in range(3)))
            t = rng.uniform(-2.9, 2.9) / max(lengths)
            cutoff = rng.randint(2, int(10 * max(lengths)))
            draws.append((SpectralModel(Torus3(tuple(lengths)), holonomy, t), cutoff))
            continue
        r = rng.uniform(0.5, 2.0)
        p = rng.choice([2, 3, 5, 7, 12])
        cutoff = rng.randint(2, {"circle": 9, "sphere": 8, "lens": 8 * p}[kind])
        if kind == "circle":
            model = SpectralModel(Circle(r), CircleHolonomy(rng.uniform(0.0, 1.0)))
        elif kind == "sphere":
            model = SpectralModel(Sphere3(r))
        else:
            model = SpectralModel(Lens(p, r), LensCharacter(p, rng.randrange(p)))
        levels = enumerate_spectrum(model, cutoff)[:, 0]
        top = min(2.9 / r, 0.45 * min(levels[-1], -levels[0]))
        draws.append((model.with_flux(rng.uniform(-top, top)), cutoff))
    return draws


def _exact_eta(model):
    """(eta, its bound): Hurwitz, or ``2 sf - Vol t^3/(3 pi^2)`` on the flat
    torus, whose holonomy spectrum is symmetric at zero flux."""
    if isinstance(model.geometry, Torus3):
        t = model.flux_shift
        return 2 * sf_for_flux(model, t).flow - model.geometry.volume * t**3 / (3 * np.pi**2), 0.0
    exact = eta_for_model(model, "hurwitz")
    return exact.eta, exact.error_bound


def _default_cutoff_draws(per_geometry=10, seed=11):
    """Models for the derived cutoff, ``per_geometry`` of each kind, all
    with ``|t r| <= 2.9``: holonomy circles, spheres of rank 1-3, lens
    characters (p in {2, 3, 5, 7, 12}) and non-cubic holonomy tori with
    ``L_max/L_min <= 2``."""
    rng = random.Random(seed)
    draws = []
    for _ in range(per_geometry):
        r = rng.uniform(0.5, 2.0)
        draws.append(SpectralModel(Circle(r), CircleHolonomy(rng.uniform(0.0, 1.0)),
                                   rng.uniform(-2.9, 2.9) / r))
        r = rng.uniform(0.5, 2.0)
        draws.append(SpectralModel(Sphere3(r), TrivialBundle(rng.randint(1, 3)),
                                   rng.uniform(-2.9, 2.9) / r))
        r, p = rng.uniform(0.5, 2.0), rng.choice([2, 3, 5, 7, 12])
        draws.append(SpectralModel(Lens(p, r), LensCharacter(p, rng.randrange(p)),
                                   rng.uniform(-2.9, 2.9) / r))
        lengths = [1.0, rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0)]
        rng.shuffle(lengths)
        holonomy = TorusHolonomy(tuple(rng.uniform(0.0, 1.0) for _ in range(3)))
        draws.append(SpectralModel(Torus3(tuple(lengths)), holonomy,
                                   rng.uniform(-2.9, 2.9) / max(lengths)))
    return draws


def test_heat_converges_honestly_at_the_derived_cutoff():
    # no cutoff given: every value converges at tol 1e-8 and lies within its
    # bound of the exact one
    failed = []
    for model in _default_cutoff_draws():
        heat = eta_for_model(model, "heat_kernel")
        exact, exact_bound = _exact_eta(model)
        if not heat.converged or abs(heat.eta - exact) > heat.error_bound + exact_bound:
            failed.append((model, heat_cutoff(model), heat))
    assert failed == []


@pytest.mark.parametrize("model,cutoff", [
    (SpectralModel(Circle(0.7), CircleHolonomy(0.3)), 60),
    (SpectralModel(Circle(1.0)), 60),
    (SpectralModel(Sphere3(1.3), TrivialBundle(2)), 30),
    (SpectralModel(Lens(5, 0.9), LensCharacter(5, 2)), 30),
    (SpectralModel(Torus3((1.0, 1.0, 1.3)), TorusHolonomy((0.25, 0.25, 0.0))), 8),
], ids=["circle", "circle-kernel", "sphere-rank2", "lens", "torus"])
def test_heat_sweep_is_eta_heat_on_the_enumeration_bit_for_bit(model, cutoff):
    # the sweep reads every point's spectrum off one zero-flux shell; the
    # reference enumerates each point's own
    fluxes = (0.0, 0.37, -1.3, 2.6)
    swept = eta_mod.eta_sweep([model.with_flux(t) for t in fluxes], "heat_kernel", cutoff)
    for t, value in zip(fluxes, swept):
        assert repr(value) == repr(_heat_on_its_enumeration(model.with_flux(t), cutoff)), t


def _heat_on_its_enumeration(model, cutoff):
    """``eta_heat`` on ``enumerate_spectrum(model, cutoff)``, the kernel split off."""
    spec = enumerate_spectrum(model, cutoff)
    zero = np.abs(spec[:, 0]) <= ZERO_TOL
    return eta_heat(spec[~zero], **_small_time(model, cutoff), tol=1e-8,
                    kernel_dim=int(spec[zero, 1].sum()))


@pytest.mark.parametrize("model,cutoff", [
    (SpectralModel(Circle(0.7), CircleHolonomy(0.3), 0.37), 60),
    (SpectralModel(Sphere3(1.3), TrivialBundle(2), -1.3), None),
    (SpectralModel(Lens(5, 0.9), LensCharacter(5, 2), 0.37), None),
    (SpectralModel(Torus3((1.0, 1.0, 1.3)), TorusHolonomy((0.25, 0.25, 0.0)), 0.9), 8),
], ids=["circle", "sphere-rank2", "lens", "torus"])
def test_a_lone_heat_model_has_the_bits_of_its_own_enumeration(model, cutoff):
    # a pass of one model, as eta_for_model and either eta of rho make, has
    # the bits of eta_heat on its own enumeration, at the given or the
    # derived cutoff
    partner = model.trivial_partner()
    want = _heat_on_its_enumeration(model, cutoff or heat_cutoff(model))
    assert repr(eta_for_model(model, "heat_kernel", cutoff)) == repr(want)
    value = rho(model, "heat_kernel", cutoff)
    assert repr(value.xi_twisted) == repr(want)
    assert repr(value.xi_trivial) == repr(
        _heat_on_its_enumeration(partner, cutoff or heat_cutoff(partner)))


def _premise_draws(count, seed):
    """Models on the circle, the sphere, lens orders p <= 12 and holonomy
    tori, radii and edges in [0.5, 2]: twisted at rank 1, trivial at ranks
    1-3."""
    rng = random.Random(seed)
    for _ in range(count):
        kind, rank, r = rng.choice("CSLT"), rng.randint(1, 3), rng.uniform(0.5, 2.0)
        if kind == "C":
            yield SpectralModel(Circle(r), TrivialBundle(rank) if rank > 1
                                else CircleHolonomy(rng.uniform(0.0, 1.0)))
        elif kind == "S":
            yield SpectralModel(Sphere3(r), TrivialBundle(rank))
        elif kind == "L":
            p = rng.randint(2, 12)
            yield SpectralModel(Lens(p, r), TrivialBundle(rank) if rank > 1
                                else LensCharacter(p, rng.randrange(p)))
        else:
            lengths = tuple(rng.uniform(0.5, 2.0) for _ in range(3))
            yield SpectralModel(Torus3(lengths), TrivialBundle(rank) if rank > 1
                                else TorusHolonomy(tuple(rng.uniform(0.0, 1.0) for _ in range(3))))


def test_heat_cutoff_never_decreases_with_the_flux_and_is_even_in_it():
    # the premise of a heat pass's one cutoff: taken at the pass's largest
    # |t| it serves every smaller |t|, and a refused |t| refuses every larger
    def derived(model):
        try:
            return heat_cutoff(model)
        except ValueError as exc:
            assert "eigenvalues are too large for the heat engine" in str(exc)
            return math.inf

    refused_past_a_cutoff = 0
    for model in _premise_draws(120, seed=35):
        rng = random.Random(repr(model))
        cutoffs = []
        for t in sorted(rng.uniform(0.0, 40.0) for _ in range(5)):
            n = derived(model.with_flux(t))
            assert derived(model.with_flux(-t)) == n, (model, t)
            cutoffs.append(n)
        assert cutoffs == sorted(cutoffs), model
        refused_past_a_cutoff += cutoffs[0] < math.inf and cutoffs[-1] == math.inf
    assert refused_past_a_cutoff > 0


def test_derived_cutoff_is_the_smallest_whose_tail_fits():
    # the tail at twice the flux fits tol/16 at N and not at N - 1, and the
    # shell reaches past 2|t|, as the half-radius check asks
    for model in _default_cutoff_draws(per_geometry=3, seed=5):
        geo, t, n = model.geometry, model.flux_shift, heat_cutoff(model)
        t_geo = geo.shortest_geodesic**2 / (4 * _KAPPA)
        assert model.rank * geo.heat_tail(t_geo, 2 * t, n) <= 1e-8 / 16
        assert model.rank * geo.heat_tail(t_geo, 2 * t, n - 1) > 1e-8 / 16
        levels = enumerate_spectrum(model.with_flux(0.0), n)[:, 0]
        assert min(levels[-1], -levels[0]) > 2 * abs(t)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_heat_eta_refuses_non_finite_eigenvalues(bad):
    # a NaN level once gave eta 0.818 marked converged with bound 1.8e-15
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        eta_heat([(bad, 1), (1.0, 1), (2.0, 1)], weyl=0.0, geodesic=6.28,
                 remainder=lambda T: 0.0)


def test_heat_bounds_are_honest_on_a_seeded_scan(monkeypatch):
    # every heat value, converged or not, lies within its bound of the exact
    # one, also at cutoffs so low that the quadrature starts above t_geo
    calls = _record_integrals(monkeypatch)
    draws = [(d, False) for d in _honesty_draws()] + [(d, True) for d in _floor_draws()]
    outside = []
    for (model, cutoff), low in draws:
        calls.clear()
        heat = eta_for_model(model, "heat_kernel", cutoff=cutoff)
        t_geo = model.geometry.shortest_geodesic**2 / (4 * _KAPPA)
        assert not low or calls[0][1] > t_geo
        exact, exact_bound = _exact_eta(model)
        if abs(heat.eta - exact) > heat.error_bound + exact_bound:
            outside.append((model, cutoff, heat.converged))
    assert outside == []


# (p, k, radius, t, cutoff) of two lens characters cut far below the
# geodesic scale
_SPARSE_LENSES = {
    "lens-7-0": (7, 0, 1.4020459598729607, 0.9383711119643134, 10),
    "lens-12-6": (12, 6, 1.2615758757669742, 1.8857948915664013, 20),
}


@pytest.mark.parametrize("p,k,radius,t,cutoff", list(_SPARSE_LENSES.values()),
                         ids=list(_SPARSE_LENSES))
def test_unconverged_heat_bound_covers_a_sparse_lens_spectrum(monkeypatch, p, k, radius, t,
                                                              cutoff):
    # the cutoff is far below the geodesic scale: the modes past it move the
    # quadrature's start to many times t_geo, where the derived remainder
    # carries the bound
    model = SpectralModel(Lens(p, radius), LensCharacter(p, k), t)
    calls = _record_integrals(monkeypatch)
    heat = eta_for_model(model, "heat_kernel", cutoff=cutoff)
    exact = eta_for_model(model, "hurwitz")
    assert calls[0][1] > 10 * model.geometry.shortest_geodesic**2 / (4 * _KAPPA)
    assert not heat.converged
    assert abs(heat.eta - exact.eta) <= heat.error_bound + exact.error_bound


def _longdouble_exponent_sums(lam, weight, ts, reach):
    """The trace sums over the engine's windows with each exponent ``-t
    lambda^2`` and its exp in longdouble, at the longdouble t: the reference
    for the float64 exponentials."""
    r = np.sqrt(reach / ts.astype(float))
    lo, hi = np.searchsorted(lam, -r, side="left"), np.searchsorted(lam, r, side="right")
    lam = lam.astype(np.longdouble)
    return np.array([np.sum(weight[a:b] * np.exp(-t * lam[a:b] * lam[a:b]))
                     for t, a, b in zip(ts, lo, hi)], dtype=np.longdouble)


def test_exponent_rounding_term_covers_the_float64_exponentials(monkeypatch):
    # eta_heat's rounding term alone covers the distance of its eta from the
    # same quadrature on a trace whose exponentials are longdouble: seeded
    # draws on the four geometries, the user's torus at its derived cutoff,
    # and the two sparse lenses
    draws = _honesty_draws(count=24, seed=5) + _floor_draws(count=8, seed=5)
    draws.append((_USER_TORUS, None))
    draws += [(SpectralModel(Lens(p, radius), LensCharacter(p, k), t), cutoff)
              for p, k, radius, t, cutoff in _SPARSE_LENSES.values()]
    calls = _record_integrals(monkeypatch)
    uncovered = []
    for model, cutoff in draws:
        calls.clear()
        heat = eta_for_model(model, "heat_kernel", cutoff=cutoff)
        steps = [call[1:4] for call in calls]
        term = eta_mod._rounding(calls[0][0], calls[0][1], calls[-1][2], model.flux_shift)
        calls.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_OddTrace, "odd", lambda trace, ts: _longdouble_exponent_sums(
                trace.lam, trace._odd_weight.astype(np.longdouble),
                np.asarray(ts, dtype=np.longdouble), trace._odd_reach))
            reference = eta_for_model(model, "heat_kernel", cutoff=cutoff)
        assert [call[1:4] for call in calls] == steps  # the same t_max and panels
        if abs(heat.eta - reference.eta) > term:
            uncovered.append((model, cutoff, heat.eta - reference.eta, term))
    assert uncovered == []


def _gauss_legendre_ld(n):
    """Gauss-Legendre nodes and weights on [-1, 1] in longdouble: Newton
    steps on the three-term recurrence from numpy's ``leggauss`` nodes,
    weights ``2 / ((1 - x^2) P_n'(x)^2)``."""

    def legendre(x):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1)

    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for _ in range(3):
        p, dp = legendre(x)
        x = x - p / dp
    _, dp = legendre(x)
    return x, 2 / ((1 - x * x) * dp * dp)


def _longdouble_eta(trace, steps, weyl):
    """The heat eta in longdouble throughout, on the engine's halves and
    panels ``steps`` (``(t0, t1, panels)`` each): panels in ``ln t``, the
    24-point rule by Newton steps in longdouble, and every exponent, exp,
    weight, term and sum in longdouble, over all trace rows: the reference
    for the engine's float64 rounding."""
    ld = np.longdouble
    x, w = _gauss_legendre_ld(24)
    lam, weight = trace.lam.astype(ld), trace.mult.astype(ld) * trace.lam.astype(ld)
    integral = ld(0)
    for t0, t1, panels in steps:
        edges = np.linspace(np.log(ld(t0)), np.log(ld(t1)), panels + 1)
        half = (edges[1:] - edges[:-1]) / 2
        xs = ((edges[1:] + edges[:-1]) / 2)[:, None] + half[:, None] * x
        trace_sums = np.array([np.sum(weight * np.exp(-t * lam * lam)) for t in np.exp(xs).ravel()])
        integral += np.sum(half[:, None] * np.exp(xs / 2) * trace_sums.reshape(xs.shape) * w)
    t_min = ld(steps[0][0])
    return (integral - ld(weyl) / t_min) / ld("1.7724538509055160272981674833411451828")


def test_rounding_term_covers_a_longdouble_reference(monkeypatch):
    # the whole float64 pass against the same quadrature in longdouble
    # (tests/_longdouble_eta): eta_heat's rounding term covers the distance,
    # plus four roundings of at most |c|/t_min (the float64 c/t_min, the
    # subtraction and the division by sqrt(pi)) that the bound's Weyl term
    # carries.  Seeded draws on the four geometries, cutoffs that converge
    # and ones below the geodesic scale, and the user's torus at its derived
    # cutoff.  The engine's arrays are float64: the trace's weights and its
    # sums
    draws = _honesty_draws(count=20, seed=7) + _floor_draws(count=8, seed=7)
    draws.append((_USER_TORUS, None))
    calls = _record_integrals(monkeypatch)
    uncovered = []
    for model, cutoff in draws:
        calls.clear()
        heat = eta_for_model(model, "heat_kernel", cutoff=cutoff)
        trace, t_min, t_max = calls[0][0], calls[0][1], calls[-1][2]
        assert trace.mult.dtype == trace._odd_weight.dtype == np.float64
        assert trace.odd([t_min, t_max]).dtype == np.float64
        steps = [call[1:4] for call in calls[-2 if calls[-1][1] != t_min else -1:]]
        weyl = model.rank * model.geometry.weyl_coefficient * model.flux_shift
        reference = _longdouble_eta(trace, steps, weyl)
        term = (eta_mod._rounding(trace, t_min, t_max, model.flux_shift)
                + 2 * np.finfo(float).eps * abs(weyl) / t_min)
        if abs(heat.eta - float(reference)) > term:
            uncovered.append((model, cutoff, heat.eta - float(reference), term))
    assert uncovered == []


def test_float64_exp_is_within_three_ulps():
    # the exp error that the rounding term assumes, 3 ulps, on exponents
    # across float64's normal range of exp and near 0, and on the positive
    # ones of the quadrature's nodes t0 exp(x) and factors exp(x/2)
    x = -np.concatenate([np.random.default_rng(2).uniform(0.0, 708.0, 200_000),
                         np.geomspace(1e-300, 708.0, 20_000)])
    x = np.concatenate([x, -x[::4]])
    value = np.exp(x)
    exact = np.exp(x.astype(np.longdouble))
    assert np.all(np.abs(value - exact) <= 3 * np.spacing(value))


def test_log_is_within_one_ulp():
    # the panel ends ln(t1/t0) that the rounding term assumes within an ulp,
    # math.log on quotients across the heat engine's range, 1e-300 to 1e300
    rng = np.random.default_rng(4)
    x = np.concatenate([np.exp(rng.uniform(-690.0, 690.0, 100_000)),
                        1 + np.geomspace(1e-15, 1.0, 2000)])
    value = np.array([math.log(v) for v in x.tolist()])
    exact = np.log(x.astype(np.longdouble))
    assert np.all(np.abs(value - exact) <= np.spacing(np.abs(value)))


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


@pytest.mark.parametrize("engine", ["hurwitz", "heat_kernel"])
@pytest.mark.parametrize("model,evaluations", [
    (SpectralModel(Sphere3(1.0), flux_shift=0.3), 1),
    (SpectralModel(Circle(1.0), TrivialBundle(1), 0.2), 1),
    (SpectralModel(Sphere3(1.0), TrivialBundle(2), 0.3), 2),
    (SpectralModel(Lens(3), LensCharacter(3, 1), 0.2), 2),
], ids=["sphere-line", "circle-line", "sphere-rank-2", "lens-character"])
def test_rho_evaluates_a_model_that_is_its_own_reference_once(monkeypatch, engine, model,
                                                              evaluations):
    calls = []
    eta_sweep = eta_mod.eta_sweep

    def counting(models, *args, **kwargs):
        calls.extend(models)
        return eta_sweep(models, *args, **kwargs)

    monkeypatch.setattr(eta_mod, "eta_sweep", counting)
    value = rho(model, engine=engine, cutoff=40)
    assert calls == [model, model.trivial_partner()][:evaluations]
    if evaluations == 1:
        assert value.xi_trivial is value.xi_twisted and value.rho == 0.0


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

