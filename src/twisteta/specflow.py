"""Spectral flow along flux paths and the flux-response identity checks.

The path is ``u -> D + u c(H)`` with constant top-degree flux ``H = t vol``,
which acts as ``t`` times the identity, so every eigenvalue moves with slope
``sign(t)``: ``lambda(u) = lambda_0 + sign(t) u``.  The flow over ``u in
(0, |t|]`` is therefore a count on the zero-flux spectrum
(:func:`sf_on_spectrum`): ``+#{lambda_0 in [-t, 0)}`` for ``t > 0`` and
``-#{lambda_0 in (0, |t|]}`` for ``t < 0``.  Negative-to-nonnegative
crossings count +1 and zeros are treated as nonnegative throughout, so the
flow equals ``N_neg(start) - N_neg(end)``.

:func:`check_flux_response` measures ``eta(D_H) - eta(D) - 2 sf`` once on a
3-dimensional model and reports its residual against two local terms:

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

import numpy as np

from .eta import EtaValue, eta_for_model
from .models import ZERO_TOL, SpectralModel, enumerate_spectrum

__all__ = [
    "Crossing",
    "SfResult",
    "sf_on_spectrum",
    "sf_for_flux",
    "UnfluxedSpectrum",
    "FluxResponseReport",
    "check_flux_response",
    "reduced_local_term",
]


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


def sf_on_spectrum(spectrum: np.ndarray, t: float) -> SfResult:
    """Exact spectral flow of ``u -> D + u sign(t) vol-flux`` over
    ``u in (0, |t|]``, from the zero-flux rows ``[value, multiplicity]``.

    At path parameter ``u`` every eigenvalue is shifted by ``sign(t) u``, so
    ``lambda`` crosses zero at ``u = -lambda/sign(t)`` and contributes
    ``sign(t) * multiplicity`` when that lies in ``(0, |t|]``.  Rows within
    ``ZERO_TOL`` of zero at an endpoint are flagged (the result is then
    convention sensitive).
    """
    slope = 1.0 if t > 0 else -1.0
    u_max = abs(t)
    lam = spectrum[:, 0]
    u = -lam / slope
    hit = (0.0 < u) & (u <= u_max)
    crossings: dict[float, int] = {}
    for u_star, mult in zip(u[hit].tolist(), spectrum[hit, 1].tolist()):
        crossings[u_star] = crossings.get(u_star, 0) + int(mult)
    direction = int(slope)
    return SfResult(
        flow=direction * sum(crossings.values()),
        crossings=tuple(Crossing(u=u_star, multiplicity=mult, direction=direction)
                        for u_star, mult in sorted(crossings.items())),
        endpoint_kernel_flags=(bool(np.any(np.abs(lam) <= ZERO_TOL)),
                               bool(np.any(np.abs(lam + slope * u_max) <= ZERO_TOL))))


# ---------------------------------------------------------------------------
# model-level drivers
# ---------------------------------------------------------------------------

class UnfluxedSpectrum:
    """The zero-flux spectrum of a model, enumerated on demand and kept for
    the next request: :meth:`past` grows it only when a reach lies beyond
    it, so a sweep enumerates it once per new reach, never ahead of a point.
    Its cutoff starts at 8 and doubles until both ends lie beyond the reach
    (an empty spectrum, a shell too small for any mode of a long thin torus,
    doubles too).  Cutoffs are shell complete, so every eigenvalue of a
    larger cutoff is one of a smaller cutoff with the same bits and
    multiplicity, or lies beyond that cutoff's ends."""

    def __init__(self, model: SpectralModel):
        self._base = model.with_flux(0.0)
        self._grown = None  # (cutoff, spectrum), set in one assignment

    def past(self, reach: float) -> np.ndarray:
        """The spectrum past ``reach`` on both sides: it holds every
        eigenvalue in ``[-reach, reach]`` and the nearest one on each side of
        any point there, on a geometry of any size."""
        n, spec = self._grown or (8, enumerate_spectrum(self._base, 8))
        while not len(spec) or min(-spec[0, 0], spec[-1, 0]) <= reach:
            n *= 2
            spec = enumerate_spectrum(self._base, n)
        self._grown = (n, spec)
        return spec


def sf_for_flux(model: SpectralModel, t: float,
                unfluxed: UnfluxedSpectrum | None = None) -> SfResult:
    """Spectral flow from the unfluxed operator to flux ``t`` (exact).  A
    sweep passes the zero-flux spectrum ``unfluxed`` that its points share;
    without it the spectrum is enumerated here."""
    spectrum = (unfluxed or UnfluxedSpectrum(model)).past(abs(t) + 1.0)
    return sf_on_spectrum(spectrum, t)


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


@dataclass(frozen=True)
class FluxResponseReport:
    """Everything measured while testing the eta-difference identity."""

    eta_flux: EtaValue
    eta_zero: EtaValue
    sf: SfResult
    residuals: dict[str, float]  # "bare", "calibrated" -> |delta eta - 2 sf - term|
    error_budget: float


def check_flux_response(model: SpectralModel, engine: str = "hurwitz",
                        cutoff: int | None = None, tol: float = 1e-8,
                        eta_zero: EtaValue | None = None,
                        unfluxed: UnfluxedSpectrum | None = None) -> FluxResponseReport:
    """Residuals of ``eta(D_H) - eta(D) - 2 sf - term`` for the bare term
    ``t Vol/(2 pi^2)`` and the calibrated :func:`reduced_local_term`, from one
    measurement of the eta difference and the spectral flow.

    Both endpoint operators must be invertible.  ``eta_zero`` is the eta of
    the unfluxed operator ``model.with_flux(0)`` through the same engine,
    cutoff and tol, and ``unfluxed`` its spectrum; a sweep over fluxes
    evaluates the one once and grows the other as its points need, and
    passes both to every point.  Each is evaluated here when not given.
    """
    _require_3d(model)
    t = model.flux_shift
    if eta_zero is None:
        eta_zero = eta_for_model(model.with_flux(0.0), engine, cutoff, tol)
    eta_flux = eta_for_model(model, engine, cutoff, tol)
    if eta_zero.kernel_dim or eta_flux.kernel_dim:
        raise ValueError("endpoint operator has a kernel: identity hypothesis violated")
    sf = sf_for_flux(model, t, unfluxed)
    terms = {"bare": t * model.geometry.volume / (2.0 * np.pi**2),
             "calibrated": reduced_local_term(model, t)}
    residuals = {name: abs(eta_flux.eta - eta_zero.eta - 2.0 * sf.flow - term)
                 for name, term in terms.items()}
    return FluxResponseReport(eta_flux=eta_flux, eta_zero=eta_zero, sf=sf,
                              residuals=residuals,
                              error_budget=eta_flux.error_bound + eta_zero.error_bound)
