"""Acceptance suite: one callable per criterion, shared by the test suite
and the CLI ``selftest`` subcommand.

Each criterion returns a :class:`CriterionResult` with the measured numbers
in ``detail``; nothing is asserted here, so the CLI can print a full table
even when a criterion fails.  Criterion 3 is evaluated in both
normalizations.  A3b confirms the calibrated curvature/flux local term.
A3 confirms that the bare volume constant ``h/(2 pi^2)`` is refuted, by
exactly the predicted amount: on the unit 3-sphere the measured response
between crossings is ``t/2 - (2/3) t^3`` (pinned independently by the
Hurwitz continuation, the finite-part heat engine and a closed-form
evaluation at t = 1/2), so the bare residual is ``|t/2 + (2/3) t^3|``.

Each result carries the criterion's wall seconds and its process CPU
seconds; runtime budgets are gated on the CPU seconds, which other load
on a shared machine does not inflate.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import (
    Circle,
    CircleHolonomy,
    FluxForm,
    FormComponent,
    Lens,
    LensCharacter,
    SpectralModel,
    Sphere3,
    Torus3,
    TorusFlux,
    TorusHolonomy,
    boundary_reduction_check,
    build_even_gamma_rep,
    build_gamma_rep,
    check_flux_response,
    check_rho_conformal,
    clifford_action,
    degree_adjointness,
    enumerate_spectrum,
    eta_for_model,
    grading_anticommute_check,
    lw_check_deg3,
    lw_check_general,
    psc_stability_sweep,
    psc_threshold,
    transform_spectrum,
)
from .conformal import ConformalScale
from .weitzenbock import TheoremViolationError

__all__ = ["CriterionResult", "run_criteria", "format_table"]


@dataclass(frozen=True)
class CriterionResult:
    ident: str
    name: str
    passed: bool
    detail: str
    seconds: float       # wall clock
    cpu_seconds: float   # process CPU time, the quantity runtime budgets gate


def _c1_clifford_algebra() -> tuple[bool, str]:
    tol = 1e-12
    worst = 0.0
    for n in (1, 3, 5):
        rep = build_gamma_rep(n)
        eye = rep.identity()
        for i in range(n):
            for j in range(n):
                worst = max(worst, float(np.linalg.norm(
                    rep.gammas[i] @ rep.gammas[j] + rep.gammas[j] @ rep.gammas[i]
                    + 2.0 * (i == j) * eye, 2)))
            worst = max(worst, float(np.linalg.norm(rep.gammas[i] + rep.gammas[i].conj().T, 2)))
        # adjointness classification vs direct matrix check, all degrees
        rng = np.random.default_rng(n)
        for deg in range(0, n + 1):
            terms = {idx: rng.standard_normal()
                     for idx in itertools.combinations(range(n), deg)}
            mat = clifford_action(rep, FormComponent.from_terms(deg, terms))
            dev_self = float(np.linalg.norm(mat - mat.conj().T, 2))
            dev_skew = float(np.linalg.norm(mat + mat.conj().T, 2))
            if degree_adjointness(deg) == "self_adjoint":
                worst = max(worst, dev_self)
            else:
                worst = max(worst, dev_skew)
    for dim in (2, 4):
        rep = build_even_gamma_rep(dim)
        rng = np.random.default_rng(dim)
        for deg in range(0, dim + 1):
            terms = {idx: rng.standard_normal() + 1j * rng.standard_normal()
                     for idx in itertools.combinations(range(dim), deg)}
            worst = max(worst, grading_anticommute_check(
                rep, FormComponent.from_terms(deg, terms)))
        worst = max(worst, boundary_reduction_check(rep))
    return worst <= tol, f"worst residual {worst:.2e} (tol {tol:.0e})"


def _c2_eta_oracle() -> tuple[bool, str]:
    worst_h = worst_heat = 0.0
    for a in [round(0.1 * i, 1) for i in range(1, 10)]:
        model = SpectralModel(Circle(1.0), CircleHolonomy(a))
        exact = 1.0 - 2.0 * a
        worst_h = max(worst_h, abs(eta_for_model(model, "hurwitz").eta - exact))
        heat = eta_for_model(model, "heat_kernel", cutoff=2000)
        worst_heat = max(worst_heat, abs(heat.eta - exact))
    worst_pair = 0.0
    for t in np.linspace(-1.4, 1.4, 10):
        model = SpectralModel(Sphere3(1.0), flux_shift=float(t))
        ref = eta_for_model(model, "hurwitz")
        heat = eta_for_model(model, "heat_kernel", cutoff=400)
        gap = abs(ref.eta - heat.eta)
        budget = ref.error_bound + heat.error_bound
        worst_pair = max(worst_pair, gap - budget)
    ok = worst_h <= 1e-10 and worst_heat <= 1e-6 and worst_pair <= 0.0
    return ok, (f"hurwitz dev {worst_h:.2e} (1e-10), heat dev {worst_heat:.2e} "
                f"(1e-6), sphere agreement slack {worst_pair:.2e} (<=0)")


def _sweep_t_values() -> list[float]:
    ts = [round(x, 3) for x in np.linspace(-2.9, 2.9, 24)]
    return [t for t in ts
            if abs(abs(t) - 1.5) > 0.05 and abs(abs(t) - 2.5) > 0.05 and abs(t) > 0.01]


@cache
def _sphere_sweep() -> tuple:
    """``(t, check_flux_response report)`` on the unit 3-sphere (Hurwitz) at
    every sweep point: one measurement shared by A3 and A3b."""
    return tuple((t, check_flux_response(SpectralModel(Sphere3(1.0), flux_shift=t),
                                         engine="hurwitz"))
                 for t in _sweep_t_values())


def _c3_bare() -> tuple[bool, str]:
    # On the unit 3-sphere (Vol = 2 pi^2, R = 6) the bare term h/(2 pi^2) is t,
    # while the APS variation d eta/dt = Vol (R/12 - 2 t^2)/(2 pi^2) integrates
    # to t/2 - 2 t^3/3.  The bare residual must equal the gap |t/2 + 2 t^3/3|,
    # written out here rather than taken from reduced_local_term, and must be
    # nonzero everywhere: the bare identity is refuted, by exactly that much.
    tol = 1e-8
    worst = (0.0, 0.0)
    least = (np.inf, 0.0)
    for t, rpt in _sphere_sweep():
        residual = rpt.residuals["bare"]
        predicted = abs(t / 2.0 + 2.0 * t**3 / 3.0)
        worst = max(worst, (abs(residual - predicted), t))
        least = min(least, (residual, t))
    ok = worst[0] <= tol and least[0] > tol
    return ok, (
        f"max deviation from predicted |t/2 + 2t^3/3| {worst[0]:.1e} at t={worst[1]} "
        f"(tol {tol:.0e}), min bare residual {least[0]:.3e} at t={least[1]} (must exceed {tol:.0e})"
    )


def _c3_calibrated() -> tuple[bool, str]:
    tol = 1e-8
    worst = 0.0
    sf_ok = True
    for t, rpt in _sphere_sweep():
        worst = max(worst, rpt.residuals["calibrated"])
        expected_sf = int(np.sign(t)) * 2 if 1.5 < abs(t) < 2.5 else (
            int(np.sign(t)) * 8 if abs(t) > 2.5 else 0)
        if rpt.sf.flow != expected_sf:
            sf_ok = False
    extra = check_flux_response(
        SpectralModel(Torus3(), flux_shift=0.5), engine="heat_kernel", cutoff=40)
    worst = max(worst, extra.residuals["calibrated"])
    ok = worst <= tol and sf_ok
    return ok, (f"max residual {worst:.3e} (tol {tol:.0e}), crossing flow "
                f"{'correct' if sf_ok else 'WRONG'} (+-2 past |t|=3/2)")


def _c4_weitzenbock() -> tuple[bool, str]:
    worst_t = 0.0
    for flux in (TorusFlux.constant(0.7), TorusFlux.cosine(0, 1.0)):
        rpt = lw_check_deg3(Torus3(), flux, cutoff=8)
        worst_t = max(worst_t, rpt.residual)
    rng = np.random.default_rng(12)
    worst_a = 0.0
    for n in (3, 5):
        rep = build_gamma_rep(n)
        terms = {idx: rng.standard_normal() for idx in itertools.combinations(range(n), 3)}
        flux = FluxForm((FormComponent.from_terms(3, terms),))
        worst_a = max(worst_a, lw_check_general(rep, flux))
    ok = worst_t <= 1e-10 and worst_a <= 1e-12
    return ok, f"torus residual {worst_t:.2e} (1e-10), algebraic {worst_a:.2e} (1e-12)"


def _c5_psc() -> tuple[bool, str]:
    u0 = psc_threshold(6.0, 1.0)
    u0_ok = abs(u0 - np.sqrt(3.0) / 2.0) <= 1e-14
    grid = [0.0, 0.2, 0.4, 0.8]
    sphere = psc_stability_sweep(SpectralModel(Sphere3(1.0)), grid)
    dev = 0.0
    for k in (1, 2):
        rpt = psc_stability_sweep(
            SpectralModel(Lens(3), LensCharacter(3, k)), grid)
        dev = max(dev, rpt.rho_deviation_max)
    try:
        psc_stability_sweep(SpectralModel(Sphere3(1.0)), [0.0, 1.7], r_min=60.0)
        guard = False
    except TheoremViolationError:
        guard = True
    ok = (u0_ok and sphere.flow == 0 and min(sphere.min_abs_eigenvalue) > 0.0
          and dev <= 1e-8 and guard)
    return ok, (f"u0 dev {abs(u0 - np.sqrt(3)/2):.1e}, sphere flow {sphere.flow}, "
                f"min|eig| {min(sphere.min_abs_eigenvalue):.3f}, lens rho dev {dev:.2e} "
                f"(1e-8), hard-failure guard {'armed' if guard else 'MISSING'}")


def _c6_conformal() -> tuple[bool, str]:
    scales = [-1.0, -0.5, 0.5, 1.0]
    models = [
        SpectralModel(Circle(1.0), CircleHolonomy(0.25)),
        SpectralModel(Sphere3(1.0), flux_shift=0.1),
        SpectralModel(Lens(3), LensCharacter(3, 1), flux_shift=0.1),
    ]
    worst_spec = worst_rho = 0.0
    for model in models:
        for u in scales:
            scaled = transform_spectrum(model, ConformalScale(u))
            s0 = enumerate_spectrum(model, 150)
            s1 = enumerate_spectrum(scaled, 150)
            if s0.shape == s1.shape and np.array_equal(s0[:, 1], s1[:, 1]):
                dev = float(np.max(np.abs(s1[:, 0] - np.exp(-u) * s0[:, 0])))
            else:
                dev = np.inf
            worst_spec = max(worst_spec, dev)
        worst_rho = max(worst_rho, check_rho_conformal(model, scales))
    ok = worst_spec <= 1e-10 and worst_rho <= 1e-8
    return ok, f"spectrum scaling dev {worst_spec:.2e} (1e-10), rho dev {worst_rho:.2e} (1e-8)"


def _c7_stability() -> tuple[bool, str]:
    from .eta import rho as rho_fn

    cases = [
        (SpectralModel(Circle(1.0), CircleHolonomy(0.25)), (100, 200, 400)),
        (SpectralModel(Lens(3), LensCharacter(3, 1)), (50, 100, 200)),
        (SpectralModel(Torus3(), TorusHolonomy((0.3, 0.0, 0.0))), (4, 6, 8)),
        (SpectralModel(Sphere3(1.0)), (50, 100, 200)),
    ]
    worst_final = 0.0
    monotone = True
    for model, cutoffs in cases:
        values = [rho_fn(model, engine="heat_kernel", cutoff=n) for n in cutoffs]
        deltas = [abs(b.rho - a.rho) for a, b in zip(values, values[1:])]
        # Cauchy contraction at achievable precision: a delta may exceed the
        # previous one only within the engines' reported noise floor
        floor = 4.0 * sum(v.error_bound for v in values)
        for a, b in zip(deltas, deltas[1:]):
            if b > a + floor:
                monotone = False
        worst_final = max(worst_final, deltas[-1])
    ok = monotone and worst_final <= 1e-6
    return ok, f"final delta {worst_final:.2e} (1e-6), contraction {'ok' if monotone else 'VIOLATED'}"


_CRITERIA = [
    ("A1", "Clifford and grading algebra", _c1_clifford_algebra),
    ("A2", "Eta oracle, dual engines", _c2_eta_oracle),
    ("A3", "Flux response, bare h/(2 pi^2) constant refuted", _c3_bare),
    ("A3b", "Flux response, calibrated local term", _c3_calibrated),
    ("A4", "Lichnerowicz-Weitzenbock residuals", _c4_weitzenbock),
    ("A5", "PSC threshold and stability", _c5_psc),
    ("A6", "Conformal invariance", _c6_conformal),
    ("A7", "Truncation stability", _c7_stability),
]


def run_criteria() -> list[CriterionResult]:
    results = []
    for ident, name, fn in _CRITERIA:
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CriterionResult(
            ident=ident, name=name, passed=passed, detail=detail,
            seconds=time.perf_counter() - start,
            cpu_seconds=time.process_time() - cpu_start))
    return results


def format_table(results: list[CriterionResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.ident:<3s} {r.name:<48s} {r.seconds:6.1f}s  {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
