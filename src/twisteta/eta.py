"""Eta, xi and rho invariants from spectral data.

Two independent regularizations of ``eta(A) = sum sign(lambda) |lambda|^-s``
at ``s = 0``:

* :func:`eta_hurwitz`: exact analytic continuation for spectra made of
  arithmetic progressions with polynomial multiplicities.  A family ``sign
  (a + d k)`` with ``m(k) = sum c_n k^n`` has, at ``q = a/d``, the value
  ``F_m(q) = sum_i c_i(q) zeta_H(-i, q)``, where ``m(k) = sum_i c_i(q) (k +
  q)^i`` and ``zeta_H(-i, q) = -B_{i+1}(q)/(i+1)`` (Bernoulli polynomials).
  Within this class the continuation has no pole at s = 0: the only poles of
  ``zeta_H(s - i, q)`` sit at positive integers ``s = i + 1``.  ``F_m`` is
  one polynomial in q of degree ``deg m + 1``; its exact coefficients depend
  on m alone.  ``F(q)`` counts the n values a flux pushed past zero, and a
  kernel ``K``, as +1 (``zeta_H(-i, q) - zeta_H(-i, q+1) = q^i``), so the
  family adds ``sign (F(q) - 2 S_m(n) - K)``, ``S_m(n) = sum_{k<n} m(k)``
  exact by Faulhaber.  Both polynomials, rounded to floats and to integer
  numerators once, sit in the family table of the model's geometry class,
  lens order and twist (``models.progression_spectrum``), which every radius
  and flux share.  A call reads each family's offset and step off that table
  and runs only Horner's rule, whose running error sum gives the bound, the
  crossing count and the fold.

* :func:`eta_heat`: numerical Mellin quadrature of the odd heat trace
  ``S(t) = sum m lambda exp(-t lambda^2)`` on ``[t_min, t_max]`` (log grid,
  split at t = 1; a Gaussian tail bound puts the modes beyond the cutoff
  under ``min(tol, 1e-10)/8`` from t_min on) with a finite-part completion
  for the small-t end.  The completion matters: for a
  flux-shifted spectrum ``S(t) ~ c t^{-3/2}`` as t -> 0, so the bare
  truncated integral carries a bias ``~ c/t_min``.  The engine extracts the
  half-odd small-t coefficients of ``S`` by a ladder fit at geometric points
  and adds the exact finite part of the subtracted powers.  The fitted
  ``t^{-1/2}`` coefficient must vanish whenever the continuation is regular
  at s = 0; its magnitude doubles as a pole detector and error proxy.  On a
  bare spectrum a clear one raises :class:`EtaRegularityError`; the eta of a
  model, a closed odd-dimensional manifold, is regular at s = 0, so there it
  means the cutoff is too low and the value is reported unconverged.  The
  bound is the quadrature estimate, ``(|c_{-1/2}| + its fit noise)
  (|ln t_min| + 2)/sqrt(pi)`` and the rounding term ``1e-15 (1 + |eta|)``.

All trace accumulation runs in extended precision (``numpy.longdouble``)
because alternating sums over quadratically growing multiplicities lose
about four digits in double precision.  A trace is evaluated for a vector
of t (the nodes of a quadrature panel, the ladder points), and each t sums
only its own window, the eigenvalues with ``t lambda^2 <= reach``.  A trace
of total weight ``W = sum |weight|`` has ``reach = min(11500, ln W + 60 ln
10)``: each dropped term has ``exp(-t lambda^2) <= 1e-60/W``, so a sum drops
at most 1e-60 in all.  Over the Mellin integral that moves eta by at most
``1e-60 * 2 sqrt(t_max)/sqrt(pi)``, below 1e-55 for any ``t_max`` the engine
takes, 40 orders under the ``1e-15 (1 + |eta|)`` rounding term of the
budget, which therefore needs no term for it.  (11500 is where longdouble
``exp(-x)`` is exactly 0: the smallest subnormal is ``exp(-11399)``.)

The quadrature runs on 2 panels of equal width in ``log t`` per half.  On
each panel a 24-point and a 20-point Gauss-Legendre rule share one trace
evaluation of their 44 nodes; the value is the 24-point sum G24, and
``|G24 - G20|`` is its error estimate: it exceeds the 24-point error
wherever that error stands above the rounding of the sums.  Only if the
estimate exceeds ``max(tol/16, 1e-16 (1 + |integral|))`` are the panels
doubled, up to 512.
Both rules' nodes and weights are computed in longdouble at import (Newton
steps on the Legendre recurrence): float64 nodes would put a relative error
of about 1e-15 into integrals whose terms cancel.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite
from typing import Sequence

import numpy as np

from .models import (
    _EPS,
    ZERO_TOL,
    _check_multiplicities,
    _crossing,
    _merge,
    ProgressionSpectrum,
    SpectralModel,
    enumerate_spectrum,
    progression_spectrum,
)

__all__ = [
    "EtaValue",
    "RhoValue",
    "EtaRegularityError",
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

def eta_hurwitz(spectrum: ProgressionSpectrum) -> EtaValue:
    """Exact eta invariant of a progression spectrum: per row of
    :meth:`ProgressionSpectrum.rows`, ``sign (F_m(q) - 2 S_m(n) - K)`` at
    ``q = offset/step``, ``(n, K)`` from ``models._crossing``; a value or
    bound past the double range raises ``ValueError``.

    The bound, with ``u = eps/2``, Horner's partial results ``y_j`` and their
    running sum ``mu = sum_j |q|^j |y_j|`` (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2002, sec. 5.1), adds to first order in u:
    Horner's rule, ``u (2 mu - |y_0|)``; the rounded coefficients, ``u sum_j
    |a_j q^j| <= 2u mu`` as ``a_j = y_j - q y_{j+1}``; the rounded q, ``u |q
    F'(q)| <= u mu`` as ``q F'(q) = sum_{j>=1} y_j q^j``; and u times twice
    the fold ``2 S_m(n) + K``, ``|F(q)|`` and every partial sum over the
    families, the last twice.  That is at most ``5u (sum mu + folds + sum
    |partial sums|)``; ``6u = 3 eps`` times the same sum also covers the
    higher-order terms and the rounding of the bound itself.
    """
    total = bound = 0.0
    kernel = 0
    rows = spectrum.rows()
    try:
        for sign, offset, step, coeffs, (f_coeffs, s_coeffs, denom) in rows:
            q = offset / step
            abs_q = abs(q)
            value = mu = 0.0
            for a in f_coeffs:
                value = value * q + a
                mu = mu * abs_q + abs(value)
            n, k = _crossing(offset, step, coeffs)
            fold = k
            if n:  # S_m(0) = 0
                s = 0
                for a in s_coeffs:
                    s = s * n + a
                fold += 2 * ((2 * s + denom) // (2 * denom))  # S_m(n), the nearest integer
            total += sign * (value - fold)
            bound += mu + fold + abs(total)
            kernel += k
    except OverflowError:  # a count past the double range
        total = inf
    error = 3.0 * _EPS * bound
    if not isfinite(total + error):
        raise ValueError("the flux is too large: the Hurwitz eta is not finite in doubles")
    rank = spectrum.rank
    return EtaValue(rank * total, rank * kernel, "hurwitz", float(rank * error))


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
_GL20_X, _GL20_W = _gauss_legendre_ld(20)
# the nodes of both rules on [-1, 1]: one trace evaluation per panel
_PAIR_X = np.concatenate([_GL_X, _GL20_X])


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
# a trace drops the terms with exp(-t lambda^2) <= _DROPPED / sum |weight|
_DROPPED = 1e-60


def _reach(weight: np.ndarray) -> float:
    """The window ``t lambda^2 <= reach`` of a trace with these weights:
    ``exp(-reach) = 1e-60 / W``, ``W = sum |weight|``, so the terms outside
    it add up to at most 1e-60; never past the exact underflow."""
    total = float(np.sum(np.abs(weight)))
    return min(_UNDERFLOW, float(np.log(total) - np.log(_DROPPED))) if total > 0 else 0.0


def _heat_sums(lam: np.ndarray, weight: np.ndarray, ts: np.ndarray,
               reach: float) -> np.ndarray:
    """``sum_j weight_j exp(-t lam_j^2)`` for each t, one t at a time over the
    sorted ``lam`` inside that t's own window ``t lam^2 <= reach``.  The
    exponent keeps the rounding order ``(-t lam) lam``."""
    r = np.sqrt(reach / ts.astype(float))
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

    Both take a vector of t and give each t its own window, the eigenvalues
    with ``t lambda^2 <= reach``: both arrays are sorted, so the window is the
    slice between ``searchsorted(lam, -+sqrt(reach/t))``, and a larger t sums
    a shorter slice.  Each trace has its own ``reach = min(11500, ln W + 60
    ln 10)`` from its total weight ``W = sum |weight|``: a term outside has
    ``exp(-t lambda^2) <= 1e-60/W``, so the terms dropped from one sum add up
    to at most 1e-60.  (11500 is the exact underflow: beyond it every term is
    0 in longdouble, the smallest subnormal being ``exp(-11399)``.)
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
        self._odd_reach = _reach(self._odd_weight)
        self._gross_reach = _reach(self._gross_weight)

    def odd(self, ts) -> np.ndarray:
        return _heat_sums(self.lam, self._odd_weight, np.asarray(ts, dtype=_LD),
                          self._odd_reach)

    def gross(self, ts) -> np.ndarray:
        return _heat_sums(self._abs_all.astype(_LD), self._gross_weight,
                          np.asarray(ts, dtype=_LD), self._gross_reach)


def _integrate_log(trace: _OddTrace, t0: float, t1: float, panels: int) -> tuple[_LD, float]:
    """``int_t0^t1 t^(-1/2) S(t) dt`` over ``panels`` equal panels in ``log t``
    by the 24-point rule, and ``|G24 - G20|`` against the 20-point rule on
    the same panels as its error estimate."""
    a, b = np.log(_LD(t0)), np.log(_LD(t1))
    edges = np.linspace(a, b, panels + 1)
    g24 = g20 = _LD(0)
    for i in range(panels):
        mid = (edges[i] + edges[i + 1]) / 2
        half = (edges[i + 1] - edges[i]) / 2
        xs = mid + half * _PAIR_X
        vals = np.exp(xs / 2) * trace.odd(np.exp(xs))
        g24 += half * np.sum(_GL_W * vals[:_GL_X.size])
        g20 += half * np.sum(_GL20_W * vals[_GL_X.size:])
    return g24, abs(float(g24 - g20))


def _quadrature(trace: _OddTrace, t_min: float, t_max: float, tol: float) -> tuple[_LD, float]:
    """``int t^(-1/2) S(t) dt`` over ``[t_min, t_max]``, split at t = 1, and
    its error estimate, the halves' ``|G24 - G20|`` added.  Each half starts
    at 2 panels, doubled up to 512 while the estimate exceeds
    ``max(tol/16, 1e-16 (1 + |integral|))``."""
    halves = [(t_min, 1.0), (1.0, t_max)] if t_max > 1.0 > t_min else [(t_min, t_max)]
    panels = 2
    while True:
        parts = [_integrate_log(trace, lo, hi, panels) for lo, hi in halves]
        integral = sum(val for val, _ in parts)
        quad_err = sum(err for _, err in parts)
        if panels >= 512 or quad_err <= max(tol / 16.0, 1e-16 * (1 + abs(float(integral)))):
            return integral, quad_err
        panels *= 2


def _tail_floor(trace: _OddTrace, tol: float) -> float:
    """Smallest t from which the modes beyond the enumerated cutoff move eta
    by at most ``tol``.

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
    return float(hi)


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
    t_floor = _tail_floor(trace, min(tol, 1e-10) / 8.0)

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
    c_m32, c_m12, c_p12, c_p32 = (float(coef[i] / ts[0] ** i) for i in range(4))
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
    integral, quad_err = _quadrature(trace, t_min, t_max, tol)

    # finite part of the subtracted small-t powers on (0, t_min]
    correction = -c_m32 / t_min + c_p12 * t_min + 0.5 * c_p32 * t_min**2
    eta = float((integral + _LD(correction)) / _SQRT_PI)

    error = float(quad_err + ladder_noise + 1e-15 * (1 + abs(eta)))
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
    if not len(spec):
        # a long thin torus: no mode of the short edges fits the shell
        raise ValueError(f"no eigenvalue lies in the complete shell at cutoff {n}; "
                         "raise the cutoff")
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
