"""Eta, xi and rho invariants from spectral data.

Two independent regularizations of ``eta(A) = sum sign(lambda) |lambda|^-s``
at ``s = 0``:

* :func:`eta_hurwitz`: exact analytic continuation for spectra made of
  arithmetic progressions with polynomial multiplicities.  Each family
  ``sign (a + d k)`` with ``m(k) = sum m_i k^i`` is rebased to powers of
  ``(k + a/d)`` so that the value at 0 is a finite combination of
  ``zeta_H(-i, a/d) = -B_{i+1}(a/d)/(i+1)`` (Bernoulli polynomials, exact).
  Within this class the continuation has no pole at s = 0: the only poles of
  ``zeta_H(s - i, q)`` sit at positive integers ``s = i + 1``.

* :func:`eta_heat`: numerical Mellin quadrature of the odd heat trace
  ``S(t) = sum m lambda exp(-t lambda^2)`` on ``[t_min, t_max]`` (log grid,
  split at t = 1), with Gaussian tail bounds for the enumerated cutoff and a
  finite-part completion for the small-t end.  The completion matters: for a
  flux-shifted spectrum ``S(t) ~ c t^{-3/2}`` as t -> 0, so the bare
  truncated integral carries a bias ``~ c/t_min``.  The engine extracts the
  half-odd small-t coefficients of ``S`` by a ladder fit at geometric points
  and adds the exact finite part of the subtracted powers.  The fitted
  ``t^{-1/2}`` coefficient must vanish whenever the continuation is regular
  at s = 0; its magnitude doubles as a pole detector and error proxy.

All trace accumulation runs in extended precision (``numpy.longdouble``)
because alternating sums over quadratically growing multiplicities lose
about four digits in double precision.  A trace is evaluated for a whole
vector of t at once (the 24 nodes of a quadrature panel, the ladder points)
and sums only the eigenvalues with ``t lambda^2 <= 11500`` for the smallest
of those t.  Every other term is exactly zero, not merely small: in
longdouble ``exp(-x)`` underflows to 0 for ``x >= 11400`` (below the smallest
subnormal, ``exp(-11399)``), so the truncation leaves every sum unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

from .models import (
    EigenItem,
    _merge,
    Progression,
    ProgressionSpectrum,
    SpectralModel,
    enumerate_spectrum,
    progression_spectrum,
)

__all__ = [
    "EtaValue",
    "RhoValue",
    "EtaRegularityError",
    "UnconvergedError",
    "hurwitz_zeta_nonpositive",
    "eta_hurwitz",
    "eta_heat",
    "eta_for_model",
    "rho",
]

_LD = np.longdouble
_SQRT_PI = _LD("1.7724538509055160272981674833411451828")


class EtaRegularityError(RuntimeError):
    """The continuation of the eta function has a pole at s = 0."""

    def __init__(self, residue: float):
        self.residue = residue
        super().__init__(
            f"eta function has a nonzero residue {residue:.3e} at s = 0; "
            "refusing to return a finite part"
        )


class UnconvergedError(RuntimeError):
    """A computation did not reach its requested tolerance."""


@dataclass(frozen=True)
class EtaValue:
    """Eta invariant with its kernel bookkeeping: ``xi = (kernel_dim + eta)/2``."""

    eta: float
    kernel_dim: int
    xi: float
    method: str
    error_bound: float
    converged: bool = True

    @classmethod
    def make(cls, eta: float, kernel_dim: int, method: str, error_bound: float,
             converged: bool = True) -> "EtaValue":
        return cls(eta=eta, kernel_dim=kernel_dim, xi=(kernel_dim + eta) / 2.0,
                   method=method, error_bound=error_bound, converged=converged)


@dataclass(frozen=True)
class RhoValue:
    rho: float
    xi_twisted: EtaValue
    xi_trivial: EtaValue
    rank: int

    @property
    def error_bound(self) -> float:
        """The twisted and trivial eta bounds added."""
        return self.xi_twisted.error_bound + self.xi_trivial.error_bound

    @property
    def converged(self) -> bool:
        return self.xi_twisted.converged and self.xi_trivial.converged


# ---------------------------------------------------------------------------
# exact Hurwitz engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bernoulli_numbers(nmax: int) -> tuple[Fraction, ...]:
    out = [Fraction(1)]
    for m in range(1, nmax + 1):
        s = sum(Fraction(comb(m + 1, j)) * out[j] for j in range(m))
        out.append(-s / (m + 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _bernoulli_poly_coeffs(n: int) -> tuple[Fraction, ...]:
    """Coefficients of B_n(x), ascending powers."""
    bern = _bernoulli_numbers(n)
    return tuple(Fraction(comb(n, k)) * bern[k] for k in reversed(range(n + 1)))


def hurwitz_zeta_nonpositive(i: int, q: float) -> float:
    """``zeta_H(-i, q) = -B_{i+1}(q)/(i+1)`` for integer i >= 0."""
    if i < 0:
        raise ValueError("only non-positive arguments -i, i >= 0")
    coeffs = _bernoulli_poly_coeffs(i + 1)
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * q + float(c)
    return -acc / (i + 1)


def _validate_multiplicity(coeffs: Sequence[float]):
    for k in range(len(coeffs) + 2):
        v = sum(c * k**i for i, c in enumerate(coeffs))
        if abs(v - round(v)) > 1e-6 * max(1.0, abs(v)):
            raise ValueError(f"multiplicity polynomial is not integer-valued at k={k}")
        if round(v) < 0:
            raise ValueError(f"multiplicity polynomial is negative at k={k}")


def _family_value(fam: Progression) -> tuple[float, float]:
    """(eta contribution, absolute-value budget) of one progression family."""
    q = fam.offset / fam.step
    deg = len(fam.mult_coeffs) - 1
    rebased = [0.0] * (deg + 1)
    for j, aj in enumerate(fam.mult_coeffs):
        for i in range(j + 1):
            rebased[i] += aj * comb(j, i) * (-q) ** (j - i)
    total = 0.0
    budget = 0.0
    for i, ci in enumerate(rebased):
        term = ci * hurwitz_zeta_nonpositive(i, q)
        total += term
        budget += abs(term)
    return fam.sign * total, budget


def eta_hurwitz(spectrum: ProgressionSpectrum | Sequence[Progression]) -> EtaValue:
    """Exact eta invariant of a progression spectrum.

    Finitely many explicit eigenvalues enter exactly (``|lambda|^-s -> 1``),
    and kernel eigenvalues are excluded by construction.  Families with
    non-polynomial or negative multiplicities are rejected up front.
    """
    if isinstance(spectrum, ProgressionSpectrum):
        ps = spectrum
    else:
        ps = ProgressionSpectrum(tuple(spectrum))
    total = 0.0
    budget = 1.0
    for fam in ps.families:
        _validate_multiplicity(fam.mult_coeffs)
        val, b = _family_value(fam)
        total += val
        budget += b
    for item in ps.extras:
        if item.value == 0.0:
            raise ValueError("explicit zero eigenvalue: kernel must be split off")
        total += float(np.sign(item.value)) * item.multiplicity
        budget += item.multiplicity
    error = 32.0 * np.finfo(float).eps * budget
    return EtaValue.make(total, ps.kernel_dim, "hurwitz", float(error))


# ---------------------------------------------------------------------------
# heat-kernel engine
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_GL_X = _GL_X.astype(_LD)
_GL_W = _GL_W.astype(_LD)


def _solve_normal_ld(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares via normal equations, all in longdouble."""
    m = (a.T @ a).astype(_LD)
    v = (a.T @ y).astype(_LD)
    n = m.shape[0]
    for i in range(n):
        p = i + int(np.argmax(np.abs(m[i:, i])))
        if p != i:
            m[[i, p]] = m[[p, i]]
            v[[i, p]] = v[[p, i]]
        for j in range(i + 1, n):
            f = m[j, i] / m[i, i]
            m[j, i:] -= f * m[i, i:]
            v[j] -= f * v[i]
    x = np.zeros(n, dtype=_LD)
    for i in range(n - 1, -1, -1):
        x[i] = (v[i] - m[i, i + 1:] @ x[i + 1:]) / m[i, i]
    return x


# exp(-x) is exactly 0 in longdouble for x >= 11400 (for x > 746 where
# longdouble is double), so a term with t lambda^2 beyond this is an exact zero
_UNDERFLOW = 11500.0
# longdouble elements in one (t x eigenvalue) block; bounds the temporaries
_BLOCK = 1 << 18


def _heat_sums(lam: np.ndarray, weight: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """``sum_j weight_j exp(-t lam_j^2)`` for each t, over the sorted ``lam``
    inside the underflow window of the smallest t."""
    r = np.sqrt(_UNDERFLOW / float(np.min(ts)))
    lo, hi = np.searchsorted(lam, -r, side="left"), np.searchsorted(lam, r, side="right")
    lam, weight = lam[lo:hi], weight[lo:hi]
    rows = max(1, _BLOCK // max(1, lam.size))
    out = np.empty(ts.size, dtype=_LD)
    for i in range(0, ts.size, rows):
        block = np.multiply.outer(-ts[i:i + rows], lam)
        block *= lam
        np.exp(block, out=block)
        block *= weight
        out[i:i + rows] = block.sum(axis=1)
    return out


class _OddTrace:
    """``S(t) = sum m lambda exp(-t lambda^2)`` in longdouble after exact
    cancellation of symmetric pairs, and the gross trace
    ``sum m |lambda| exp(-t lambda^2)`` of the whole spectrum.

    Both take a vector of t and sum only the underflow window of its smallest
    t, the eigenvalues with ``t lambda^2 <= 11500``: both arrays are sorted,
    so the window is the slice between ``searchsorted(lam, -+sqrt(11500/t))``.
    Every term outside it has ``exp(-t lambda^2) == 0`` exactly in longdouble
    (the smallest subnormal is ``exp(-11399)``), so the window drops only
    exact zeros and the sums equal the full ones.
    """

    def __init__(self, items: Sequence[EigenItem]):
        pairs = np.asarray(items, dtype=float).reshape(-1, 2)
        values, mults = _merge(pairs[:, 0], pairs[:, 1])
        mirror = np.minimum(np.searchsorted(values, -values), max(values.size - 1, 0))
        has_mirror = values[mirror] == -values
        pos = values > 0
        net = mults[pos] - np.where(has_mirror, mults[mirror], 0)[pos]
        unpaired = (values < 0) & ~has_mirror
        self.lam = np.concatenate([values[unpaired], values[pos][net != 0]]).astype(_LD)
        self.mult = np.concatenate([mults[unpaired], net[net != 0]]).astype(_LD)
        self.empty = self.lam.size == 0
        self.min_abs = float(np.min(np.abs(self.lam))) if not self.empty else np.inf
        abs_values = np.abs(values)
        order = np.argsort(abs_values, kind="stable")
        self._abs_all = abs_values[order]
        self._mult_all = mults[order].astype(float)
        self.abs_max = float(self._abs_all[-1]) if values.size else 0.0
        self._odd_weight = self.mult * self.lam
        self._gross_weight = self._mult_all.astype(_LD) * self._abs_all.astype(_LD)

    def odd(self, ts) -> np.ndarray:
        return _heat_sums(self.lam, self._odd_weight, np.asarray(ts, dtype=_LD))

    def gross(self, ts) -> np.ndarray:
        return _heat_sums(self._abs_all.astype(_LD), self._gross_weight,
                          np.asarray(ts, dtype=_LD))


def _integrate_log(trace: _OddTrace, t0: float, t1: float, panels: int) -> _LD:
    a, b = np.log(_LD(t0)), np.log(_LD(t1))
    edges = np.linspace(a, b, panels + 1)
    total = _LD(0)
    for i in range(panels):
        mid = (edges[i] + edges[i + 1]) / 2
        half = (edges[i + 1] - edges[i]) / 2
        xs = mid + half * _GL_X
        vals = np.exp(xs / 2) * trace.odd(np.exp(xs))
        total += half * np.sum(_GL_W * vals)
    return total


def _tail_floor(trace: _OddTrace, tol: float) -> tuple[float, float]:
    """Smallest t at which modes beyond the enumerated cutoff are negligible,
    together with the bound achieved there.

    The discarded trace is modelled by extrapolating the enumerated counting
    density by a power law; a Gaussian bound then gives
    ``tail(t) <~ N (p+1) exp(-t L^2) / (t L^2)`` with L the cutoff radius.
    """
    lam = trace._abs_all
    mult = trace._mult_all
    L = trace.abs_max
    n_full = float(np.sum(mult))
    n_half = float(np.sum(mult[lam <= L / 2])) or 1.0
    p = max(0.0, min(4.0, np.log2(max(n_full / n_half, 1.0 + 1e-9)) - 1.0))

    def tail_eta(tmin: float) -> float:
        # integral of t^{-1/2} tail(t) from tmin, crude upper bound
        x = tmin * L * L
        if x > 700:
            return 0.0
        return float(4.0 * n_full * (p + 1.0) * np.exp(-x) / (x * np.sqrt(tmin) * np.sqrt(np.pi)))

    lo, hi = 1e-12 / (L * L), 700.0 / (L * L)
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if tail_eta(mid) > tol:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0001:
            break
    return float(hi), tail_eta(float(hi))


def _too_large(abs_max: float, what: str) -> ValueError:
    return ValueError(f"eigenvalues are too large for the heat engine: |lambda| = "
                      f"{abs_max:.3e} puts {what} outside the double range")


def eta_heat(items: Sequence[EigenItem], *, tol: float = 1e-8,
             kernel_dim: int = 0, zero_tol: float = 1e-9,
             require_converged: bool = False) -> EtaValue:
    """Heat-kernel eta of an enumerated nonzero spectrum.

    The spectrum must be complete up to its largest ``|lambda|`` and contain
    no kernel modes (split those off first; their count is echoed in the
    result).  If the requested tolerance is out of reach at this cutoff the
    value is returned with ``converged=False`` and the achieved bound, or
    raises :class:`UnconvergedError` when ``require_converged``.
    """
    if not items:
        raise ValueError("empty spectrum")
    if any(abs(v) <= zero_tol for v, _ in items):
        raise ValueError("spectrum contains kernel modes; strip them first")
    trace = _OddTrace(items)
    if trace.empty:
        return EtaValue.make(0.0, kernel_dim, "heat_kernel", 0.0)

    # the t-floor bisection takes geometric means inside [1e-12, 700]/|lambda|^2
    abs_sq = trace.abs_max * trace.abs_max
    if not (np.isfinite(abs_sq) and (1e-12 / abs_sq) * (700.0 / abs_sq) >= np.finfo(float).tiny):
        raise _too_large(trace.abs_max, "its t bracket")
    t_floor, tail_bound = _tail_floor(trace, min(tol, 1e-10) / 8.0)

    # ladder fit of t^{3/2} S(t) = c0 + c1 t + c2 t^2 + ...  (the small-t
    # expansion of the odd trace has half-odd powers only).  Points whose fit
    # residual sticks out above the evaluation-noise floor are trimmed from
    # the top: they sit outside the asymptotic window (for lattice spectra
    # the window is limited by theta-function corrections ~ exp(-q/t)).
    n_points, n_coef = 12, 6
    ratio = _LD(2) ** _LD(0.5)
    ts = np.array([_LD(t_floor) * ratio**j for j in range(n_points)], dtype=_LD)
    ys = ts ** _LD(1.5) * trace.odd(ts)
    eps = float(np.finfo(_LD).eps)
    floors = 8.0 * eps * (ts ** _LD(1.5) * trace.gross(ts)).astype(float) + 1e-300

    def fit(npts: int):
        scale_t = (ts[:npts] / ts[0]).astype(_LD)
        design = np.stack([scale_t**i for i in range(n_coef)], axis=1)
        coef = _solve_normal_ld(design, ys[:npts])
        resid = np.abs((design @ coef - ys[:npts]).astype(float))
        return coef, resid

    keep = n_points
    coef, resid = fit(keep)
    while keep > 8 and np.any(resid[-2:] > 1e3 * floors[keep - 2:keep]):
        keep -= 1
        coef, resid = fit(keep)
    c = [coef[i] / ts[0] ** i for i in range(n_coef)]
    c_m32, c_m12, c_p12, c_p32 = (float(x) for x in c[:4])
    c_noise = 8.0 * float(np.max(resid)) + float(np.max(floors[:keep]))

    # regularity: the t^{-1/2} coefficient carries the s=0 residue 2 c / sqrt(pi)
    t_min = float(t_floor)
    dc_m12 = c_noise / t_min  # coefficient-level noise of the fitted c_{-1/2}
    ladder_noise = (abs(c_m12) + dc_m12) * (abs(np.log(t_min)) + 2.0) / np.sqrt(np.pi)
    residue = 2.0 * c_m12 / np.sqrt(np.pi)
    if abs(residue) > 1e-3 and abs(c_m12) > 30.0 * dc_m12:
        raise EtaRegularityError(residue)

    t_max = max(8.0, 80.0 / trace.min_abs**2)
    while float(trace.odd([t_max])[0]) * np.sqrt(t_max) > tol / 16.0 and t_max < 1e8:
        t_max *= 2.0

    panels = 16
    prev = None
    quad_err = np.inf
    while panels <= 512:
        if t_max > 1.0 > t_min:
            val = _integrate_log(trace, t_min, 1.0, panels) \
                + _integrate_log(trace, 1.0, t_max, panels)
        else:
            val = _integrate_log(trace, t_min, t_max, panels)
        if prev is not None:
            quad_err = abs(float(val - prev))
            if quad_err <= max(tol / 16.0, 1e-16 * (1 + abs(float(val)))):
                prev = val
                break
        prev = val
        panels *= 2
    integral = prev

    # finite part of the subtracted small-t powers on (0, t_min]
    correction = -c_m32 / t_min + c_p12 * t_min + 0.5 * c_p32 * t_min**2
    eta = float((integral + _LD(correction)) / _SQRT_PI)

    next_term = abs(float(c[4])) * t_min**3 / 3.0 if n_coef > 4 else 0.0
    error = float(quad_err + tail_bound + ladder_noise + next_term
                  + c_noise / (np.sqrt(np.pi) * t_min) + 1e-15 * (1 + abs(eta)))
    if not np.isfinite(error):
        raise _too_large(trace.abs_max, "the error budget")
    converged = error <= tol
    if require_converged and not converged:
        raise UnconvergedError(
            f"heat-kernel eta reached bound {error:.2e} > tol {tol:.2e}; "
            "increase the cutoff"
        )
    return EtaValue.make(eta, kernel_dim, "heat_kernel", error, converged)


# ---------------------------------------------------------------------------
# model-level drivers
# ---------------------------------------------------------------------------

def eta_for_model(model: SpectralModel, engine: str = "hurwitz", cutoff: int | None = None,
                  tol: float = 1e-8, zero_tol: float = 1e-9) -> EtaValue:
    """Eta/xi of a model through the selected engine.

    The Hurwitz engine is exact and ignores ``cutoff``; the heat engine
    enumerates up to ``cutoff`` (geometry-specific default) and reports its
    achieved error bound.
    """
    if engine == "hurwitz":
        return eta_hurwitz(progression_spectrum(model, zero_tol))
    if engine != "heat_kernel" and engine != "heat":
        raise ValueError(f"unknown engine {engine!r}; use 'hurwitz' or 'heat_kernel'")
    n = cutoff if cutoff is not None else model.geometry.default_cutoff
    items = enumerate_spectrum(model, n)
    kernel = sum(m for v, m in items if abs(v) <= zero_tol)
    nonzero = [it for it in items if abs(it.value) > zero_tol]
    return eta_heat(nonzero, tol=tol, kernel_dim=kernel, zero_tol=zero_tol)


def rho(model_twisted: SpectralModel, model_trivial: SpectralModel | None = None,
        engine: str = "hurwitz", cutoff: int | None = None, tol: float = 1e-8,
        zero_tol: float = 1e-9) -> RhoValue:
    """Rho invariant: ``xi(twisted) - rank * xi(trivial line bundle)``.

    The reference model defaults to the same geometry and flux with the
    trivial line bundle, and must match geometry and flux when supplied.
    """
    if model_trivial is None:
        model_trivial = model_twisted.trivial_partner()
    if model_trivial.geometry != model_twisted.geometry:
        raise ValueError("geometries of the two models differ")
    if model_trivial.flux_shift != model_twisted.flux_shift:
        raise ValueError("flux shifts of the two models differ")
    if model_trivial != model_twisted.trivial_partner():
        raise ValueError("reference model must carry the trivial line bundle")
    xi_tw = eta_for_model(model_twisted, engine, cutoff, tol, zero_tol)
    xi_tr = eta_for_model(model_trivial, engine, cutoff, tol, zero_tol)
    rank = model_twisted.rank
    return RhoValue(rho=xi_tw.xi - rank * xi_tr.xi, xi_twisted=xi_tw,
                    xi_trivial=xi_tr, rank=rank)
