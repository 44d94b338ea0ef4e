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
  at s = 0; its magnitude doubles as a pole detector and error proxy.  On a
  bare spectrum a clear one raises :class:`EtaRegularityError`; the eta of a
  model, a closed odd-dimensional manifold, is regular at s = 0, so there it
  means the cutoff is too low and the value is reported unconverged.

All trace accumulation runs in extended precision (``numpy.longdouble``)
because alternating sums over quadratically growing multiplicities lose
about four digits in double precision.  A trace is evaluated for a vector
of t (the 24 nodes of a quadrature panel, the ladder points), and each t
sums only its own window, the eigenvalues with ``t lambda^2 <= 11500``.
Every other term is exactly zero, not merely small: in longdouble
``exp(-x)`` underflows to 0 for ``x >= 11400`` (below the smallest
subnormal, ``exp(-11399)``), so the truncation leaves every sum unchanged.

The quadrature is 24-point Gauss-Legendre on panels of equal width in
``log t``.  Its nodes and weights are computed in longdouble at import
(Newton steps on the Legendre recurrence): float64 nodes would put a
relative error of about 1e-15 into integrals whose terms cancel.  With
longdouble nodes the rule is exact to truncation from a few panels on, so
the panel doubling starts at 2 panels per half and usually stops at 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

from .models import (
    ZERO_TOL,
    _check_multiplicities,
    _merge,
    _poly_shift,
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
    "hurwitz_zeta_nonpositive",
    "eta_hurwitz",
    "eta_heat",
    "eta_for_model",
    "rho",
]

_LD = np.longdouble
_SQRT_PI = _LD("1.7724538509055160272981674833411451828")


class EtaRegularityError(RuntimeError):
    """The fitted small-t expansion of the odd heat trace has a ``t^(-1/2)``
    term: a pole of the eta function at s = 0, or a cutoff too low to
    resolve the expansion.  ``value`` is the finite part computed regardless,
    unconverged, with the fitted residue in its error bound."""

    def __init__(self, residue: float, value: "EtaValue"):
        self.residue = residue
        self.value = value
        super().__init__(
            f"eta function has a nonzero residue {residue:.3e} at s = 0; "
            "refusing to return a finite part"
        )


@dataclass(frozen=True)
class EtaValue:
    """Eta invariant with its kernel bookkeeping: ``xi = (kernel_dim + eta)/2``."""

    eta: float
    kernel_dim: int
    method: str
    error_bound: float
    converged: bool = True

    @property
    def xi(self) -> float:
        return (self.kernel_dim + self.eta) / 2.0


@dataclass(frozen=True)
class RhoValue:
    """``rho = xi(twisted) - rank * xi(trivial line bundle)``."""

    xi_twisted: EtaValue
    xi_trivial: EtaValue
    rank: int

    @property
    def rho(self) -> float:
        return self.xi_twisted.xi - self.rank * self.xi_trivial.xi

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


def _family_value(fam: Progression) -> tuple[float, float]:
    """(eta contribution, absolute-value budget) of one progression family."""
    q = fam.offset / fam.step
    total = 0.0
    budget = 0.0
    for i, ci in enumerate(_poly_shift(fam.mult_coeffs, -q)):
        term = ci * hurwitz_zeta_nonpositive(i, q)
        total += term
        budget += abs(term)
    return fam.sign * total, budget


def eta_hurwitz(spectrum: ProgressionSpectrum) -> EtaValue:
    """Exact eta invariant of a progression spectrum.

    Finitely many explicit eigenvalues enter exactly (``|lambda|^-s -> 1``),
    and kernel eigenvalues are excluded by construction.  Families with
    non-integer or negative multiplicities cannot be built
    (:class:`Progression` rejects them).
    """
    total = 0.0
    budget = 1.0
    for fam in spectrum.families:
        val, b = _family_value(fam)
        total += val
        budget += b
    for value, mult in spectrum.extras:
        if value == 0.0:
            raise ValueError("explicit zero eigenvalue: kernel must be split off")
        total += float(np.sign(value)) * mult
        budget += mult
    error = 32.0 * np.finfo(float).eps * budget
    return EtaValue(total, spectrum.kernel_dim, "hurwitz", float(error))


# ---------------------------------------------------------------------------
# heat-kernel engine
# ---------------------------------------------------------------------------

def _gauss_legendre_ld(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] accurate in longdouble:
    Newton steps on the three-term recurrence from the float64 ``leggauss``
    nodes, weights ``2 / ((1 - x^2) P_n'(x)^2)``."""

    def legendre(x):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1)

    x = np.polynomial.legendre.leggauss(n)[0].astype(_LD)
    for _ in range(3):
        p, dp = legendre(x)
        x = x - p / dp
    _, dp = legendre(x)
    return x, 2 / ((1 - x * x) * dp * dp)


_GL_X, _GL_W = _gauss_legendre_ld(24)


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


def _heat_sums(lam: np.ndarray, weight: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """``sum_j weight_j exp(-t lam_j^2)`` for each t, one t at a time over the
    sorted ``lam`` inside that t's own underflow window ``t lam^2 <= 11500``.
    The exponent keeps the rounding order ``(-t lam) lam``."""
    r = np.sqrt(_UNDERFLOW / ts.astype(float))
    lo, hi = np.searchsorted(lam, -r, side="left"), np.searchsorted(lam, r, side="right")
    out = np.empty(ts.size, dtype=_LD)
    for i, t in enumerate(ts):
        window = lam[lo[i]:hi[i]]
        row = -t * window
        row *= window
        np.exp(row, out=row)
        row *= weight[lo[i]:hi[i]]
        out[i] = row.sum()
    return out


class _OddTrace:
    """``S(t) = sum m lambda exp(-t lambda^2)`` in longdouble after exact
    cancellation of symmetric pairs, and the gross trace
    ``sum m |lambda| exp(-t lambda^2)`` of the whole spectrum, built from an
    ``(n, 2)`` array of ``[value, multiplicity]`` rows in any order (equal
    values are merged).

    Both take a vector of t and give each t its own underflow window, the
    eigenvalues with ``t lambda^2 <= 11500``: both arrays are sorted, so the
    window is the slice between ``searchsorted(lam, -+sqrt(11500/t))``, and a
    larger t sums a shorter slice.  Every term outside it has
    ``exp(-t lambda^2) == 0`` exactly in longdouble (the smallest subnormal is
    ``exp(-11399)``), so the window drops only exact zeros and the sums equal
    the full ones.
    """

    def __init__(self, spectrum: np.ndarray):
        values, mults = _merge(spectrum[:, 0], spectrum[:, 1])
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


def eta_heat(spectrum: np.ndarray | Sequence[tuple[float, int]], *, tol: float = 1e-8,
             kernel_dim: int = 0) -> EtaValue:
    """Heat-kernel eta of an enumerated nonzero spectrum.

    ``spectrum`` holds ``[value, multiplicity]`` rows, as the ``(n, 2)``
    array of :func:`enumerate_spectrum`; multiplicities must be positive
    integers.  It must be complete up to its largest ``|lambda|`` and hold
    no kernel modes, ``|lambda| <= ZERO_TOL`` (split those off first; their
    count is echoed in the result).  If the requested tolerance is out of
    reach at this cutoff the value is returned with ``converged=False`` and
    the achieved bound.  A clear fitted ``t^(-1/2)`` term raises
    :class:`EtaRegularityError`, which carries that unconverged value.
    """
    spec = np.asarray(spectrum, dtype=float).reshape(-1, 2)
    if not len(spec):
        raise ValueError("empty spectrum")
    _check_multiplicities(spec[:, 1])
    if np.any(np.abs(spec[:, 0]) <= ZERO_TOL):
        raise ValueError("spectrum contains kernel modes; strip them first")
    trace = _OddTrace(spec)
    if trace.empty:
        return EtaValue(0.0, kernel_dim, "heat_kernel", 0.0)

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
    pole = abs(residue) > 1e-3 and abs(c_m12) > 30.0 * dc_m12

    t_max = max(8.0, 80.0 / trace.min_abs**2)
    while float(trace.odd([t_max])[0]) * np.sqrt(t_max) > tol / 16.0 and t_max < 1e8:
        t_max *= 2.0

    panels = 2
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

    next_term = abs(float(c[4])) * t_min**3 / 3.0
    error = float(quad_err + tail_bound + ladder_noise + next_term
                  + c_noise / (np.sqrt(np.pi) * t_min) + 1e-15 * (1 + abs(eta)))
    if not np.isfinite(error):
        raise _too_large(trace.abs_max, "the error budget")
    value = EtaValue(eta, kernel_dim, "heat_kernel", error, error <= tol and not pole)
    if pole:
        raise EtaRegularityError(residue, value)
    return value


# ---------------------------------------------------------------------------
# model-level drivers
# ---------------------------------------------------------------------------

def eta_for_model(model: SpectralModel, engine: str = "hurwitz", cutoff: int | None = None,
                  tol: float = 1e-8) -> EtaValue:
    """Eta/xi of a model through the selected engine.

    The Hurwitz engine is exact and ignores ``cutoff``; the heat engine
    enumerates up to ``cutoff`` (geometry-specific default) and reports its
    achieved error bound.  It rejects a flux beyond half the radius of the
    enumerated spectrum: the cutoff no longer resolves the shifted spectrum
    there, and the value would be unconverged or a spurious pole.  The eta
    function of a closed odd-dimensional manifold is regular at s = 0
    (Atiyah-Patodi-Singer III), so a fitted ``t^(-1/2)`` residue means the
    cutoff is too low: the value is returned with ``converged=False`` and
    the residue in its bound, not raised as a pole.
    """
    if engine == "hurwitz":
        return eta_hurwitz(progression_spectrum(model))
    if engine != "heat_kernel":
        raise ValueError(f"unknown engine {engine!r}; use 'hurwitz' or 'heat_kernel'")
    n = cutoff if cutoff is not None else model.geometry.default_cutoff
    spec = enumerate_spectrum(model, n)
    values, mults = spec[:, 0], spec[:, 1]
    # the values are sorted; a flux that swamps the spectrum shrinks the radius
    t = model.flux_shift
    radius = max(values[-1] - t, t - values[0])
    if abs(t) > radius / 2:
        raise ValueError(
            f"eigenvalues are too large for the heat engine: flux {t:.6g} exceeds half "
            f"the radius {radius:.6g} of the spectrum enumerated at cutoff {n}")
    zero = np.abs(values) <= ZERO_TOL
    try:
        return eta_heat(spec[~zero], tol=tol, kernel_dim=int(mults[zero].sum()))
    except EtaRegularityError as err:
        return err.value


def rho(model: SpectralModel, engine: str = "hurwitz", cutoff: int | None = None,
        tol: float = 1e-8) -> RhoValue:
    """Rho invariant: ``xi(twisted) - rank * xi(trivial line bundle)``, the
    reference model being the same geometry and flux with the trivial line
    bundle."""
    xi_tw = eta_for_model(model, engine, cutoff, tol)
    xi_tr = eta_for_model(model.trivial_partner(), engine, cutoff, tol)
    return RhoValue(xi_twisted=xi_tw, xi_trivial=xi_tr, rank=model.rank)
