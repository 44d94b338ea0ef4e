"""Spectral flow along flux paths and the flux-response identity checks.

The path is ``u -> D + u c(H)`` with constant top-degree flux ``H = t vol``,
which acts as ``t`` times the identity, so every eigenvalue moves with slope
``sign(t)``: ``lambda(u) = lambda_0 + sign(t) u``.  The flow over ``u in
(0, |t|]`` is therefore a count on the zero-flux spectrum
(:func:`sf_on_spectrum`, or :func:`sf_sweep` of many fluxes in one pass of
cumulative counts): ``+#{lambda_0 in [-t, 0)}`` for ``t > 0`` and
``-#{lambda_0 in (0, |t|]}`` for ``t < 0``.  Negative-to-nonnegative
crossings count +1 and zeros are treated as nonnegative throughout, so the
flow equals ``N_neg(start) - N_neg(end)``.

:func:`flux_response_sweep` measures ``eta(D_H) - eta(D) - 2 sf`` at each
flux of a sweep on a 3-dimensional model, its etas from one
:func:`eta.eta_sweep` call (which alone decides the heat cutoff and
enumeration the points share) and its flows from one :func:`sf_sweep`;
:func:`check_flux_response` measures it at one flux.  Each reports its
residual against two local terms:

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
from itertools import accumulate, takewhile
from typing import Iterator, Sequence

import numpy as np

from .eta import EtaValue, _value, eta_sweep
from .models import _EPS, ZERO_TOL, SpectralModel, _merge, enumerate_spectrum

__all__ = [
    "Crossing",
    "SfResult",
    "sf_sweep",
    "sf_on_spectrum",
    "sf_for_flux",
    "UnfluxedSpectrum",
    "FluxResponseReport",
    "check_flux_response",
    "flux_response_sweep",
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


def sf_sweep(spectrum: np.ndarray, fluxes: Sequence[float]) -> list[SfResult]:
    """The :func:`sf_on_spectrum` of each flux in ``fluxes``, in order, from
    one count on the zero-flux rows ``[value, multiplicity]``.

    The rows, in any order, are merged once, each multiplicity taken as a
    whole number below 2^63 (an enumeration's are at most 2^53), and the
    multiplicities summed up in exact Python ints, so a point's flow is the
    difference of two cumulative counts at the ends of its window of rows:
    ``[-t, 0)`` for ``t > 0``, else ``(0, |t|]``.  The windows of one sign
    share their end at zero, so their crossings, in ascending ``u``, are
    prefixes of one list.  A point's end flag tests ``|lambda + t| <=
    ZERO_TOL`` on the rows within ``w = 2 ZERO_TOL + 4 eps |t|`` of ``-t``,
    wider than the rounding of ``lambda + t`` reaches.  One
    ``np.searchsorted`` a side finds every window's ends, from bounds taken
    in Python floats (so an infinite ``t`` gives every row or none, with no
    warning).
    """
    values, mults = _merge(spectrum[:, 0], spectrum[:, 1].astype(np.int64))
    ts = [float(t) for t in fluxes]
    widths = [2.0 * ZERO_TOL + 4.0 * _EPS * abs(t) for t in ts]
    # zero, the kernel threshold, each window's far end, each end flag's rows
    left = np.searchsorted(values, [0.0, -ZERO_TOL, *[-t for t in ts],
                                    *[-t - w for t, w in zip(ts, widths)]], "left").tolist()
    right = np.searchsorted(values, [0.0, ZERO_TOL, *[-t if t < 0 else 0.0 for t in ts],
                                     *[w - t for t, w in zip(ts, widths)]], "right").tolist()
    below, above, n = left[0], right[0], len(ts)
    windows = [(left[2 + i], below) if t > 0 else (above, right[2 + i]) for i, t in enumerate(ts)]
    # every window lies in the rows [first, last)
    first = min([below, *(lo for lo, _ in windows)])
    last = max([above, *(hi for _, hi in windows)])
    lam, mult = values[first:last].tolist(), mults[first:last].tolist()
    cum = [0, *accumulate(mult)]
    k, j = below - first, above - first
    rising = [Crossing(-x, m, 1) for x, m in zip(reversed(lam[:k]), reversed(mult[:k]))]
    falling = [Crossing(x, m, -1) for x, m in zip(lam[j:], mult[j:])]
    start = left[1] < right[1]
    results = []
    for t, (lo, hi), near_lo, near_hi in zip(ts, windows, left[2 + n:], right[2 + n:]):
        end = any(abs(x + t) <= ZERO_TOL for x in values[near_lo:near_hi].tolist())
        results.append(SfResult(flow=(1 if t > 0 else -1) * (cum[hi - first] - cum[lo - first]),
                                crossings=tuple((rising if t > 0 else falling)[:hi - lo]),
                                endpoint_kernel_flags=(start, end)))
    return results


def sf_on_spectrum(spectrum: np.ndarray, t: float) -> SfResult:
    """Exact spectral flow of ``u -> D + u sign(t) vol-flux`` over
    ``u in (0, |t|]``, from the zero-flux rows ``[value, multiplicity]``: the
    :func:`sf_sweep` of ``t`` alone.

    At path parameter ``u`` every eigenvalue is shifted by ``sign(t) u``, so
    ``lambda`` crosses zero at ``u = -lambda/sign(t)`` and contributes
    ``sign(t) * multiplicity`` when that lies in ``(0, |t|]``.  Rows within
    ``ZERO_TOL`` of zero at an endpoint are flagged (the result is then
    convention sensitive).
    """
    return sf_sweep(spectrum, [t])[0]


# ---------------------------------------------------------------------------
# model-level drivers
# ---------------------------------------------------------------------------

class UnfluxedSpectrum:
    """The zero-flux spectrum of a model that the flow counts on, enumerated
    on demand and kept for the next request.

    :meth:`past` grows the spectrum only when a reach lies beyond it: a
    specflow sweep asks once, at the reach of the farthest point it reports,
    and a ``psc`` sweep reads the spectrum its flow grew.  Its cutoff starts
    at 8 and doubles until both ends lie beyond the reach (an empty
    spectrum, a shell too small for any mode of a long thin torus, doubles
    too).  Cutoffs are shell complete, so every eigenvalue of a
    larger cutoff is one of a smaller cutoff with the same bits and
    multiplicity, or lies beyond that cutoff's ends.
    """

    def __init__(self, model: SpectralModel):
        self._base = model.with_flux(0.0)
        self._grown = None  # (cutoff, spectrum)

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


def flux_response_sweep(model: SpectralModel, fluxes: Sequence[float],
                        engine: str = "hurwitz", cutoff: int | None = None,
                        tol: float = 1e-8) -> Iterator[FluxResponseReport]:
    """The :func:`check_flux_response` report of ``model`` at each flux of
    ``fluxes``, in order.

    This call evaluates the unfluxed eta and every point's in one
    :func:`eta.eta_sweep` call: one pass, which under the heat engine reads
    them all off one zero-flux enumeration at one cutoff.  Then it counts the
    flow of every point the walk will report, those before the first refused
    eta or endpoint kernel, in one :func:`sf_sweep` on the zero-flux spectrum
    grown once, past the farthest of them.  The iterator makes each report in
    its turn: the etas, raised if refused, the kernel check, the flow and the
    residuals.  So a sweep stops at its first failing point and enumerates
    nothing for the points past it; an enumeration that the farthest
    reported point needs and the spectrum refuses (a multiplicity past 2^53)
    is raised here, before the first report.
    """
    _require_3d(model)
    eta_zero, *etas = eta_sweep([model.with_flux(t) for t in (0.0, *fluxes)], engine, cutoff, tol)
    # the points the walk reports: those before its first refused eta or kernel
    walked = [t for t, _ in zip(fluxes, takewhile(_clear, etas))] if _clear(eta_zero) else []
    flows = (sf_sweep(UnfluxedSpectrum(model).past(max(map(abs, walked)) + 1.0), walked)
             if walked else [])

    def reports() -> Iterator[FluxResponseReport]:
        for i, (t, eta_flux) in enumerate(zip(fluxes, etas)):
            zero, fluxed = _value(eta_zero), _value(eta_flux)
            if zero.kernel_dim or fluxed.kernel_dim:
                raise ValueError("endpoint operator has a kernel: identity hypothesis violated")
            sf = flows[i]
            terms = {"bare": t * model.geometry.volume / (2.0 * np.pi**2),
                     "calibrated": reduced_local_term(model, t)}
            residuals = {name: abs(fluxed.eta - zero.eta - 2.0 * sf.flow - term)
                         for name, term in terms.items()}
            yield FluxResponseReport(eta_flux=fluxed, eta_zero=zero, sf=sf, residuals=residuals,
                                     error_budget=fluxed.error_bound + zero.error_bound)

    return reports()


def _clear(outcome: EtaValue | ValueError) -> bool:
    """Whether the walk of :func:`flux_response_sweep` reports a point with
    this eta outcome (as its own or the unfluxed one): an eta, no kernel."""
    return not isinstance(outcome, ValueError) and not outcome.kernel_dim


def check_flux_response(model: SpectralModel, engine: str = "hurwitz",
                        cutoff: int | None = None, tol: float = 1e-8) -> FluxResponseReport:
    """Residuals of ``eta(D_H) - eta(D) - 2 sf - term`` for the bare term
    ``t Vol/(2 pi^2)`` and the calibrated :func:`reduced_local_term`, from one
    measurement of the eta difference and the spectral flow: the one point of
    :func:`flux_response_sweep` at the model's own flux.  Both endpoint
    operators must be invertible."""
    return next(flux_response_sweep(model, [model.flux_shift], engine, cutoff, tol))
