"""Spectral flow along flux paths and the flux-response identity checks.

The path is ``u -> D + u c(H)`` with constant top-degree flux, so every
eigenvalue moves affinely: ``lambda(u) = lambda_0 + sign(t) u``.  Flow is
counted on the half-open interval ``(0, u_max]`` with negative-to-nonnegative
crossings as +1; zeros are treated as nonnegative throughout, so for matrix
paths the flow equals ``N_neg(start) - N_neg(end)``.

:func:`check_flux_response` measures ``eta(D_H) - eta(D) - 2 sf`` once on a
3-dimensional model and reports its residual against each named local term
of :data:`LOCAL_TERMS`:

* ``bare``: the volume-normalized constant ``h / (2 pi^2)`` with
  ``h = t Vol``.  Exact computation refutes this normalization on curved
  models (see ``calibrated``); its residual is simply reported.
* ``calibrated``: the curvature-corrected local term that the exact engines
  do confirm on every supported model,

      eta(D_H) - eta(D) = 2 sf + (1/(6 pi^2)) Int_Y (R/4 - 2|H|^2) H
                        = 2 sf + R Vol t / (24 pi^2) - Vol t^3 / (3 pi^2).

  On a unit 3-sphere this gives ``t/2 - (2/3) t^3`` between crossings, a
  value pinned independently by the exact Hurwitz engine (e.g. the shift
  t = 1/2 evaluates in closed form to 1/6) and by the heat engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .eta import EtaValue, eta_for_model
from .models import ZERO_TOL, SpectralModel, enumerate_spectrum

__all__ = [
    "AffinePath",
    "Crossing",
    "SfResult",
    "sf_affine",
    "sf_for_flux",
    "FluxResponseReport",
    "LOCAL_TERMS",
    "check_flux_response",
    "reduced_local_term",
]


@dataclass(frozen=True)
class AffinePath:
    """Affine eigenvalue lines ``(intercept, slope, multiplicity)`` over
    ``u in [0, u_max]``."""

    lines: tuple[tuple[float, float, int], ...]
    u_max: float

    def __post_init__(self):
        if self.u_max <= 0:
            raise ValueError("u_max must be positive")
        for _, _, m in self.lines:
            if m < 1:
                raise ValueError("multiplicities must be >= 1")


@dataclass(frozen=True)
class Crossing:
    u: float
    multiplicity: int
    direction: int  # +1 negative -> nonnegative, -1 the other way


@dataclass(frozen=True)
class SfResult:
    flow: int
    crossings: tuple[Crossing, ...]
    endpoint_kernel_flags: tuple[bool, bool]


def sf_affine(path: AffinePath) -> SfResult:
    """Exact spectral flow of an affine path.

    A line crosses at ``u* = -intercept/slope`` when ``0 < u* <= u_max`` and
    contributes ``sign(slope) * multiplicity``.  Lines within ``ZERO_TOL``
    of zero at an endpoint are flagged (the result is then convention
    sensitive); a line identically zero is rejected.
    """
    start_kernel = end_kernel = False
    crossings: dict[float, dict[int, int]] = {}
    flow = 0
    for lam0, slope, mult in path.lines:
        if lam0 == 0.0 and slope == 0.0:
            raise ValueError("line identically zero on the whole range")
        if abs(lam0) <= ZERO_TOL:
            start_kernel = True
        if abs(lam0 + slope * path.u_max) <= ZERO_TOL:
            end_kernel = True
        if slope == 0.0:
            continue
        u_star = -lam0 / slope
        if 0.0 < u_star <= path.u_max:
            direction = 1 if slope > 0 else -1
            flow += direction * mult
            crossings.setdefault(u_star, {})[direction] = (
                crossings.setdefault(u_star, {}).get(direction, 0) + mult
            )
    out = []
    for u_star in sorted(crossings):
        for direction, mult in sorted(crossings[u_star].items()):
            out.append(Crossing(u=u_star, multiplicity=mult, direction=direction))
    return SfResult(flow=flow, crossings=tuple(out),
                    endpoint_kernel_flags=(start_kernel, end_kernel))


# ---------------------------------------------------------------------------
# model-level drivers
# ---------------------------------------------------------------------------

def unfluxed_spectrum(model: SpectralModel, reach: float) -> np.ndarray:
    """The zero-flux spectrum past ``reach`` on both sides: the cutoff starts
    at 8 and doubles until both ends lie beyond it.  Cutoffs are shell
    complete, so it holds every eigenvalue in ``[-reach, reach]`` and the
    nearest one on each side of any point there, on a geometry of any size."""
    base = model.with_flux(0.0)
    n = 8
    spec = enumerate_spectrum(base, n)
    while min(-spec[0, 0], spec[-1, 0]) <= reach:
        n *= 2
        spec = enumerate_spectrum(base, n)
    return spec


def affine_path_for_model(model: SpectralModel, t: float) -> AffinePath:
    """Eigenvalue path of ``u -> D + u * sign(t) * vol-flux`` up to ``|t|``.

    Lines start from :func:`unfluxed_spectrum`; only lines that can reach
    zero (plus a margin of 1) are kept.
    """
    if t == 0.0:
        raise ValueError("no path for t = 0")
    reach = abs(t) + 1.0
    spec = unfluxed_spectrum(model, reach)
    slope = 1.0 if t > 0 else -1.0
    lines = tuple((v, slope, int(m)) for v, m in spec[np.abs(spec[:, 0]) <= reach].tolist())
    return AffinePath(lines=lines, u_max=abs(t))


def sf_for_flux(model: SpectralModel, t: float) -> SfResult:
    """Spectral flow from the unfluxed operator to flux ``t`` (exact)."""
    if t == 0.0:
        return SfResult(flow=0, crossings=(), endpoint_kernel_flags=(False, False))
    return sf_affine(affine_path_for_model(model, t))


def _require_3d(model: SpectralModel):
    if model.geometry.dim != 3:
        raise ValueError("flux-response checks need a 3-dimensional model")


def reduced_local_term(model: SpectralModel, t: float) -> float:
    """Curvature/flux local term ``R Vol t/(24 pi^2) - Vol t^3/(3 pi^2)``.

    This is ``(1/(6 pi^2)) Int (R/4 - 2|H|^2) H`` for ``H = t vol`` with
    ``|vol| = 1``; on flat tori only the cubic term survives.
    """
    _require_3d(model)
    vol = model.geometry.volume
    r_scal = model.geometry.scalar_curvature
    return r_scal * vol * t / (24.0 * np.pi**2) - vol * t**3 / (3.0 * np.pi**2)


# name -> predicted smooth part of eta(D_H) - eta(D) - 2 sf at flux t
LOCAL_TERMS: dict[str, Callable[[SpectralModel, float], float]] = {
    "bare": lambda model, t: t * model.geometry.volume / (2.0 * np.pi**2),
    "calibrated": reduced_local_term,
}


@dataclass(frozen=True)
class FluxResponseReport:
    """Everything measured while testing the eta-difference identity."""

    t: float
    eta_flux: EtaValue
    eta_zero: EtaValue
    sf: SfResult
    h: float                     # t Vol
    terms: dict[str, float]      # LOCAL_TERMS name -> predicted smooth term
    residuals: dict[str, float]  # name -> |delta eta - 2 sf - term|
    error_budget: float


def check_flux_response(model: SpectralModel, engine: str = "hurwitz",
                        cutoff: int | None = None, tol: float = 1e-8,
                        eta_zero: EtaValue | None = None) -> FluxResponseReport:
    """Residuals of ``eta(D_H) - eta(D) - 2 sf - term`` for every local term
    of :data:`LOCAL_TERMS`, from one measurement of the eta difference and
    the spectral flow.

    Both endpoint operators must be invertible.  ``eta_zero`` is the eta of
    the unfluxed operator ``model.with_flux(0)`` through the same engine,
    cutoff and tol; a sweep over fluxes evaluates it once and passes it to
    every point.  It is evaluated here when not given.
    """
    _require_3d(model)
    t = model.flux_shift
    if eta_zero is None:
        eta_zero = eta_for_model(model.with_flux(0.0), engine, cutoff, tol)
    eta_flux = eta_for_model(model, engine, cutoff, tol)
    if eta_zero.kernel_dim or eta_flux.kernel_dim:
        raise ValueError("endpoint operator has a kernel: identity hypothesis violated")
    sf = sf_for_flux(model, t)
    terms = {name: term(model, t) for name, term in LOCAL_TERMS.items()}
    residuals = {name: abs(eta_flux.eta - eta_zero.eta - 2.0 * sf.flow - term)
                 for name, term in terms.items()}
    return FluxResponseReport(t=t, eta_flux=eta_flux, eta_zero=eta_zero, sf=sf,
                              h=t * model.geometry.volume, terms=terms,
                              residuals=residuals,
                              error_budget=eta_flux.error_bound + eta_zero.error_bound)
