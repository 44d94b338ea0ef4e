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
  and flux share.  A call reads the table at every point of a sweep at once,
  one numpy pass over ``(points, rows)``: each family's offset and step,
  Horner's rule, whose running error sum gives the bound, and the crossing
  test.  Only a family with a crossing or a kernel runs in Python, for the
  count and the fold in exact integers.

* :func:`eta_heat`: Mellin quadrature of the odd heat trace ``S(s) = sum m
  lambda exp(-s lambda^2)``, ``eta = int_0^inf s^(-1/2) S ds/sqrt(pi)``.  On
  a model ``S = c s^(-3/2) + E`` exactly, ``c = rank weyl_coefficient t``, and
  each Poisson (on a lens, Donnelly) term of ``E`` carries ``exp(-omega^2/
  (4s))``, ``omega >= l`` the shortest closed geodesic; no ``s^(-1/2)`` term
  exists, eta being regular at s = 0 (Atiyah-Patodi-Singer III).  So ``eta =
  (int_{t_min}^{t_max} s^(-1/2) S ds - c/t_min)/sqrt(pi)``, nothing fitted,
  up to ``int_0^{t_min} s^(-1/2) |E|`` and what the modes past the cutoff add
  from ``t_min`` on: the model's derived ``remainder``.  ``t_min`` starts at
  ``t_geo = l^2/(4 kappa)``, ``kappa = 60``, where the rest is ``e^-60`` times
  a polynomial (below 1e-22 for lens orders p <= 50 at ``|t r| <= 3``), and
  steps up while the remainder falls, as it does while the modes past a low
  cutoff outweigh the rest: there the value is unconverged, not wrong.  The
  bound adds the quadrature estimate, the remainder and the rounding (of c
  against the integral's bulk ``c/t_min``, of the levels, and of every
  float64 operation of the pass).

The heat engine is float64 throughout: a trace term ``weight exp(-t
lambda^2)`` takes its exponent ``(-t lambda) lambda``, its ``exp``, the
product by ``weight = m lambda`` and the window's sum in doubles, as do the
nodes, the rules and the quadrature sums.  Every rounding of a trace value
is relative to ``sum |m lambda| exp(-t lambda^2)``, at most ``(A + B t
lambda^2) u64`` of it, ``u64 = 2^-53``, with A and B derived from the
operations (the window's summation depth, ``ln(t/t_min)``), which the bound
integrates in closed form over the trace rows (:func:`eta_heat`).  Each t
sums over its own window ``t lambda^2 <= reach = min(11500, ln W + 60 ln
10)``, ``W = sum |weight|``: a sum drops at most 1e-60, moving eta by under
1e-55.  :func:`_heat_sums` gives every window the bits of its slice's
``sum()``, short ones in one pass.
Each half of the integral, split at t = 1, runs on panels at most 3 wide in
``log t`` (at least 2), where a 24-point and a 20-point Gauss-Legendre rule
(nodes and weights correctly rounded) share one trace evaluation: G24 is the
value and ``|G24 - G20|`` its error estimate.  The panels are doubled, up to
512, while the estimate exceeds both ``tol/16`` and the bound's rounding
term, which the pass derives before the quadrature.

:func:`eta_sweep`, the one place that picks the engine and what a sweep's
points share, evaluates them in passes (a Hurwitz call per family table and
rank, a heat pass per unfluxed model) and keeps each point's ``ValueError``
as its outcome, for the caller to raise in that point's turn.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, fsum, inf, isfinite, log, pi, sqrt
from sys import float_info
from typing import Callable, Sequence

import numpy as np

from .models import (
    _EPS,
    SHELL_BUDGET,
    ZERO_TOL,
    _check_multiplicities,
    _crossing,
    _merge,
    FamilyRow,
    ProgressionSpectrum,
    SpectralModel,
    enumerate_spectrum,
    progression_spectrum,
)

__all__ = [
    "EtaValue",
    "RhoValue",
    "eta_hurwitz",
    "eta_heat",
    "eta_for_model",
    "eta_sweep",
    "heat_cutoff",
    "rho",
    "rho_sweep",
]

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

_TOO_LARGE = "the flux is too large: the Hurwitz eta is not finite in doubles"


@lru_cache(maxsize=256)
def _table_arrays(table: tuple[FamilyRow, ...]) -> tuple[np.ndarray, ...]:
    """A family table's signs, ``v0`` and steps, and its ``F_m`` Horner
    coefficients by columns, each row's padded ahead with zeros to the
    longest: from 0.0, Horner's rule keeps a pad's value and ``mu`` at +0.0,
    where a row's own first coefficient starts.  Read-only."""
    width = max(len(row[4][0]) for row in table)
    arrays = (np.array([row[0] for row in table], dtype=float),
              np.array([row[1] for row in table]), np.array([row[2] for row in table]),
              np.array([(0.0,) * (width - len(row[4][0])) + row[4][0] for row in table]).T.copy())
    for array in arrays:
        array.flags.writeable = False
    return arrays


def eta_hurwitz(spectra: Sequence[ProgressionSpectrum]) -> list[EtaValue | ValueError]:
    """Exact eta invariants of progression spectra that share one family
    table and rank, one per spectrum, each a point ``(radius, flux)``: per
    row of the table read there, at ``offset = sign (v0/radius + flux)``,
    ``step/radius`` and ``q = offset/step``, ``sign (F_m(q) - 2 S_m(n) -
    K)``, ``(n, K)`` from ``models._crossing``.

    Each point's outcome is its :class:`EtaValue` or the ``ValueError``
    that refuses it, the first of: a step not finite and above ``2
    ZERO_TOL``, or an ``offset/step`` not finite, on any row; then, row by
    row, a kernel test that cannot be resolved, or a fold past the double
    range; then a value or bound past the double range; then a rank that
    puts them there; then a kernel dimension ``rank K`` that a double does
    not hold exactly.

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

    All points run in one numpy pass over ``(points, rows)`` arrays, and the
    point axis changes no float operation: each entry takes its row's
    operations at its point, Horner's rule column by column, and the
    partial sums and the bound are ``np.cumsum`` along the rows, which adds
    in row order as a loop over the rows does.  So a point has the bits it
    has alone.  Only the entries with a crossing, a kernel or a threshold
    too close to call run in Python: ``_crossing``, whose kernel count is an
    exact ``Fraction`` sum, and the integer Faulhaber fold.
    """
    if not spectra:
        return []
    table, rank = spectra[0].table, spectra[0].rank
    if any(s.table != table or s.rank != rank for s in spectra):
        raise ValueError("the spectra of one Hurwitz pass must share a family table and rank")
    sign, v0, step0, f_columns = _table_arrays(table)
    radius = np.array([[s.radius] for s in spectra])
    flux = np.array([[s.flux] for s in spectra])
    failed: list[ValueError | None] = [None] * len(spectra)
    kernel = [0] * len(spectra)
    with np.errstate(all="ignore"):  # an overflow or a 0/0 leaves its point refused
        offset = sign * (v0 / radius + flux)
        step = step0 / radius
        q = offset / step
        ok = (2 * ZERO_TOL < step) & (step < inf) & np.isfinite(q)
        for p in [] if ok.all() else np.flatnonzero(~ok.all(axis=1)).tolist():
            i = int(np.argmin(ok[p]))  # the first row that fails
            failed[p] = ValueError(f"step must be finite and above {2 * ZERO_TOL:g}, and "
                                   f"offset/step finite, got {float(offset[p, i])!r}/"
                                   f"{float(step[p, i])!r}")
        abs_q = np.abs(q)
        value = mu = np.zeros_like(q)
        for a in f_columns:
            value = value * q + a
            mu = mu * abs_q + np.abs(value)
        # at offset >= 0 _crossing's index is 0 and its value the offset: it
        # gives (0, 0) and raises nothing unless that is within the kernel
        # threshold, give or take its rounding (computed as _crossing does)
        abs_offset = np.abs(offset)
        resolve = (offset < 0) | (abs_offset - ZERO_TOL <= _EPS * (abs_offset + step))
        fold = np.zeros_like(q)
        for p, i in zip(*(index.tolist() for index in np.nonzero(resolve))):
            if failed[p] is not None:  # refused at a row before this one
                continue
            _, _, _, coeffs, (_, s_coeffs, denom) = table[i]
            try:
                n, k = _crossing(float(offset[p, i]), float(step[p, i]), coeffs)
                row_fold = k
                if n:  # S_m(0) = 0
                    s = 0
                    for a in s_coeffs:
                        s = s * n + a
                    row_fold += 2 * ((2 * s + denom) // (2 * denom))  # S_m(n), the nearest integer
                fold[p, i] = float(row_fold)
            except ValueError as exc:
                failed[p] = exc
                continue
            except OverflowError:  # a count past the double range
                failed[p] = ValueError(_TOO_LARGE)
                continue
            kernel[p] += k
        terms = sign * (value - fold)
        terms[:, 0] += 0.0  # a sum from 0.0: -0.0 + 0.0 is 0.0
        partial = np.cumsum(terms, axis=1)
        bound = np.cumsum(mu + fold + np.abs(partial), axis=1)[:, -1]
    out: list[EtaValue | ValueError] = []
    for p, (total, bound_p) in enumerate(zip(partial[:, -1].tolist(), bound.tolist())):
        error = 3.0 * _EPS * bound_p
        dim = rank * kernel[p]
        if failed[p] is None and not isfinite(total + error):
            failed[p] = ValueError(_TOO_LARGE)
        elif failed[p] is None and not (rank <= float_info.max
                                        and isfinite(rank * (abs(total) + error))):
            failed[p] = ValueError(f"rank {rank} puts eta outside the double range")
        elif failed[p] is None and dim > 2**53 and not (dim <= float_info.max
                                                        and float(dim) == dim):
            failed[p] = ValueError(f"rank {rank} puts the kernel dimension above 2^53, "
                                   "where a double no longer holds it exactly")
        out.append(failed[p] if failed[p] is not None
                   else EtaValue(rank * total, dim, "hurwitz", rank * error))
    return out


def _value(outcome):
    """A sweep point's value, or the ``ValueError`` it stands for raised."""
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome


# ---------------------------------------------------------------------------
# heat-kernel engine
# ---------------------------------------------------------------------------

def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [0, 1] correctly rounded to
    double: nodes ``(1 + x)/2`` and weights ``1/((1 - x^2) P_n'(x)^2)`` at
    the roots x of ``P_n``.  A Newton step on the three-term recurrence
    from numpy's ``leggauss`` roots (within an ulp, so the step leaves
    about 1e-31), in integers scaled by 2^120 (a floor per operation),
    then one int true division each, which Python rounds correctly: each
    node and weight is within ``u64`` of its own value."""
    one = 1 << 120

    def legendre(x):  # P_n(x) and P_n'(x), both scaled by one
        p0, p1 = one, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 // one - (k - 1) * p0) // k
        return p1, n * (x * p1 // one - p0) * one // (x * x // one - one)

    def point(x):
        p, dp = legendre(x)
        x -= p * one // dp
        dp = legendre(x)[1]
        return (one + x) / (2 * one), one**4 / ((one * one - x * x) * dp * dp)

    roots = np.polynomial.legendre.leggauss(n)[0].tolist()
    return tuple(np.array(column) for column in zip(*(point(round(x * one)) for x in roots)))


(_GL_X, _GL_W), (_GL20_X, _GL20_W) = _gauss_legendre(24), _gauss_legendre(20)
# the nodes of both rules on [0, 1]: one trace evaluation per panel
_PAIR_X = np.concatenate([_GL_X, _GL20_X])


# exp(-x) is exactly 0 in float64 for x > 746, so a term with t lambda^2
# beyond this is an exact zero
_UNDERFLOW = 11500.0
# a trace drops the terms with exp(-t lambda^2) <= _DROPPED / sum |weight|
_DROPPED = 1e-60


def _reach(weight: np.ndarray) -> float:
    """The window ``t lambda^2 <= reach`` of a trace with these weights:
    ``exp(-reach) = 1e-60 / W``, ``W = sum |weight|``, so the terms outside
    it add up to at most 1e-60; never past the exact underflow."""
    total = float(np.sum(np.abs(weight)))
    return min(_UNDERFLOW, float(np.log(total) - np.log(_DROPPED))) if total > 0 else 0.0


# a longer window is a slice: its numpy calls cost little beside its terms
_SPLIT = 256
# the short windows evaluated in one vectorized pass hold at most this many
# terms (plus one window), so its temporaries stay a few MB
_BATCH = 1 << 16
# below this many short windows a call sums them as slices: the pass costs
# about as much as that many slices
_FEW = 8


def _heat_sums(lam: np.ndarray, weight: np.ndarray, ts: np.ndarray,
               reach: float) -> np.ndarray:
    """``sum_j weight_j exp(-t lam_j^2)`` for each t over the sorted ``lam``
    inside that t's own window ``t lam^2 <= reach``, all in float64: the
    exponent ``(-t lam) lam``, its ``exp``, the terms and their sums.  A
    window longer than ``_SPLIT`` is one slice and numpy's ``sum()``, as are
    all windows of a call with fewer than ``_FEW`` short ones.  Otherwise
    the short windows are laid end to end, in batches of about ``_BATCH``
    terms, each behind a head term 0; one flat index and one ``exp`` give
    their terms, and ``np.add.reduceat`` sums each window.  ``reduceat``
    adds a window's first term to numpy's pairwise sum of the rest, and
    ``sum()`` adds 0 to the pairwise sum of all terms: with the head, each
    window's sum has the bits of its slice's ``sum()`` (:func:`_sum_depth`
    bounds its rounding)."""
    ts = ts.astype(float, copy=False)
    r = np.sqrt(reach / ts)
    lo, hi = np.searchsorted(lam, -r, side="left"), np.searchsorted(lam, r, side="right")
    sizes = hi - lo
    out = np.zeros(ts.size)
    short = (sizes > 0) & (sizes <= _SPLIT)
    if np.count_nonzero(short) < _FEW:
        short[:] = False
    for i in np.flatnonzero(~short & (sizes > 0)):
        window = lam[lo[i]:hi[i]]
        row = -ts[i] * window
        row *= window
        np.exp(row, out=row)
        out[i] = (row * weight[lo[i]:hi[i]]).sum()
    short = np.flatnonzero(short)
    if not short.size:
        return out
    # a new batch starts at the window that ends past the next multiple of _BATCH
    ends = np.cumsum(sizes[short])
    for rows in np.split(short, np.flatnonzero(np.diff((ends - 1) // _BATCH)) + 1):
        n = sizes[rows] + 1  # the head and the window
        heads = np.cumsum(n) - n
        # a head reads the level before its window; its term is set to 0
        at = np.arange(heads[-1] + n[-1]) + np.repeat(lo[rows] - 1 - heads, n)
        window = lam[at]
        x = -np.repeat(ts[rows], n) * window
        x *= window
        np.exp(x, out=x)
        terms = x * weight[at]
        terms[heads] = 0
        out[rows] = np.add.reduceat(terms, heads)
    return out


def _sum_depth(n: int) -> int:
    """The most additions one term meets in numpy's sum of at most n terms,
    as :func:`_heat_sums` forms it, so that the sum errs by at most
    ``gamma_depth sum |terms|`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., sec. 4.2).  Up to 128 terms numpy sums
    with 8 accumulators: at most ``n//8 - 1`` additions, 3 joining them and
    7 for the rest; below 8 terms one loop.  Above 128 it halves, one
    addition per halving: the larger half holds at most ``n//2 + 8``, so
    ``16 + (n - 16)/2^k`` after k halvings, at most 128 once ``112 2^k >= n
    - 16``.  Plus 1 for the head term of ``reduceat`` (or ``sum()``'s
    initial 0)."""
    return 1 + (n if n < 8 else min(n, 128) // 8 + 9) + (max(n - 17, 0) // 112).bit_length()


class _OddTrace:
    """``S(t) = sum m lambda exp(-t lambda^2)`` in float64 after exact
    cancellation of symmetric pairs, built from an ``(n, 2)`` array of
    ``[value, multiplicity]`` rows in any order (equal values are merged;
    ``values`` and ``mults`` keep them all).  The levels, multiplicities
    (exact integers) and weights ``m lambda`` are doubles.  ``odd`` sums
    each t over its window of the sorted ``lam``, between
    ``searchsorted(lam, -+sqrt(reach/t))``."""

    def __init__(self, spectrum: np.ndarray):
        values, mults = _merge(spectrum[:, 0], spectrum[:, 1])
        mirror = np.minimum(np.searchsorted(values, -values), max(values.size - 1, 0))
        has_mirror = values[mirror] == -values
        pos = values > 0
        net = mults[pos] - np.where(has_mirror, mults[mirror], 0)[pos]
        unpaired = (values < 0) & ~has_mirror
        self.lam = np.concatenate([values[unpaired], values[pos][net != 0]])
        self.mult = np.concatenate([mults[unpaired], net[net != 0]]).astype(float)
        self.min_abs = float(np.min(np.abs(self.lam))) if self.lam.size else np.inf
        self.values, self.mults = values, mults.astype(float)
        self.abs_max = float(max(-values[0], values[-1])) if values.size else 0.0
        self._odd_weight = self.mult * self.lam
        self._odd_reach = _reach(self._odd_weight)

    def odd(self, ts) -> np.ndarray:
        return _heat_sums(self.lam, self._odd_weight, np.asarray(ts, dtype=float),
                          self._odd_reach)


def _integrate_log(trace: _OddTrace, t0: float, t1: float, panels: int) -> tuple[float, float]:
    """``int_t0^t1 t^(-1/2) S(t) dt`` over ``panels`` equal panels in ``x =
    ln(t/t0)`` by the 24-point rule, and ``|G24 - G20|`` against the
    20-point rule on the same panels as its error estimate.  A panel ``[a,
    b]`` takes the nodes ``a + (b - a) z`` of the rules on [0, 1] and the
    values ``(b - a) exp(x/2) S(t0 exp(x))``; each rule's products are summed
    by ``math.fsum``, correctly rounded, and scaled by ``sqrt(t0)``."""
    edges = np.linspace(0.0, log(t1 / t0), panels + 1)
    width = np.diff(edges)[:, None]
    xs = edges[:-1, None] + width * _PAIR_X
    vals = width * np.exp(xs / 2) * trace.odd((t0 * np.exp(xs)).ravel()).reshape(xs.shape)
    g24, g20 = fsum((vals[:, :_GL_X.size] * _GL_W).flat), fsum((vals[:, _GL_X.size:] * _GL20_W).flat)
    return sqrt(t0) * g24, sqrt(t0) * abs(g24 - g20)


# One eigenvalue's term s^(1/2) lambda exp(-s lambda^2) is, in u = ln s, the
# bump exp(3u/2 - e^u) moved by -ln lambda^2.  On a panel at most 3 wide in u
# the 24-point rule integrates it to 6e-17 of its weight wherever it sits; at
# 6.2 wide the error reaches 3e-9, and |G24 - G20| can read 11 times less.
_PANEL_WIDTH = 3.0


def _quadrature(trace: _OddTrace, t_min: float, t_max: float, tol: float,
                rounding: float) -> tuple[float, float]:
    """``int t^(-1/2) S(t) dt`` over ``[t_min, t_max]`` and its error estimate,
    the halves' ``|G24 - G20|`` added, the panels doubled while it exceeds
    ``tol/16`` and the ``rounding`` already in the bound (see the module
    docstring).  An empty trace is 0 with estimate 0, what its panels of
    zeros would sum to."""
    if not trace.lam.size:
        return 0.0, 0.0
    halves = [(t_min, 1.0), (1.0, t_max)] if t_max > 1.0 > t_min else [(t_min, t_max)]
    panels = [max(2, ceil(log(hi / lo) / _PANEL_WIDTH)) for lo, hi in halves]
    while True:
        parts = [_integrate_log(trace, lo, hi, n) for (lo, hi), n in zip(halves, panels)]
        integral = sum(val for val, _ in parts)
        quad_err = sum(err for _, err in parts)
        if max(panels) >= 512 or quad_err <= max(tol / 16.0, rounding):
            return integral, quad_err
        panels = [2 * n for n in panels]


# t_geo = l^2/(4 KAPPA), where the remainder is exp(-KAPPA) times a polynomial
_KAPPA = 60.0

# below float64's normal range (2^-1022) exp's error is absolute: under twice
# that per unit weight, whatever the computed value (0 past exp(-745))
_SUBNORMAL = 2.0**-1021


def _rounding(trace: _OddTrace, t_min: float, t_max: float, flux: float) -> float:
    """What rounding can move eta by, quadrature over ``[t_min, t_max]``, in
    one pass over the levels (see :func:`eta_heat`): over the trace rows,
    ``(u64/sqrt(pi)) sum_j |m_j| [(A_j + B_j/2) Gamma(1/2, y_j) + B_j
    sqrt(y_j) exp(-y_j)]`` at ``y_j = t_min lambda_j^2``, with ``Gamma(1/2,
    y) <= min(sqrt(pi), exp(-y)/sqrt(y))``, plus ``2 sqrt(t_max) _SUBNORMAL
    sum |m lambda|/sqrt(pi)`` for the terms below the normal range; over
    every level, ``12 eps sum m (|lambda| + |flux|) (sqrt(t_min) exp(-t_min
    lambda^2) + sqrt(t_max) exp(-t_max lambda^2))/sqrt(pi)`` for the levels'
    own rounding."""
    lam, mult, values = trace.lam, np.abs(trace.mult), trace.values
    y = t_min * lam * lam
    decay = np.exp(-y)
    with np.errstate(divide="ignore"):  # y = 0: Gamma(1/2, y) is sqrt(pi), L_j the span
        gamma = np.minimum(sqrt(pi), decay / np.sqrt(y))
        span = np.clip(log(709.0) - np.log(y), 0.0, log(t_max / t_min))  # normal up to 709
    rows = ((_sum_depth(lam.size) + 32.0 + span / 2) * gamma
            + (3.0 * span + 21.0) * (gamma / 2 + np.sqrt(y) * decay))
    subnormal = 2.0 * sqrt(t_max) * _SUBNORMAL * float(np.sum(mult * np.abs(lam)))
    moved = 12.0 * _EPS * float(np.sum(trace.mults * (np.abs(values) + abs(flux)) * sum(
        sqrt(t) * np.exp(-t * values * values) for t in (t_min, t_max))))
    return (_EPS / 2 * float(np.sum(mult * rows)) + subnormal + moved) / sqrt(pi)


def eta_heat(spectrum: np.ndarray | Sequence[tuple[float, int]], *, weyl: float,
             geodesic: float, remainder: Callable[[float], float], flux: float = 0.0,
             tol: float = 1e-8, kernel_dim: int = 0) -> EtaValue:
    """Heat-kernel eta of an enumerated nonzero spectrum.

    ``spectrum`` holds ``[value, multiplicity]`` rows, as the ``(n, 2)`` array
    of :func:`enumerate_spectrum`, with positive integer multiplicities and no
    kernel mode, ``|lambda| <= ZERO_TOL`` (their count is echoed in the
    result).  The odd trace of the full spectrum it is cut from must be ``weyl
    s^(-3/2)`` plus a rest ``E`` of Poisson frequencies at least ``geodesic``,
    ``remainder(T)`` must bound ``int_0^T s^(-1/2) |E| ds`` plus what the modes
    past the cutoff add to ``int_T^inf s^(-1/2) S ds``, and each value must lie
    within ``6 eps (|lambda| + |flux|)`` of its exact eigenvalue: a model's
    small-time heat data.  A bound above ``tol`` is returned unconverged; a
    remainder, level or bound past the double range refuses the spectrum.

    Everything is float64, and the bound's rounding term is derived from the
    operations the pass performs (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., ch. 3-4), to first order in ``u64 =
    2^-53``.  Each rounding of a trace value at a node t is relative to
    ``sum |m lambda| exp(-t lambda^2)``, or to ``y = t lambda^2`` times it.
    Per unit of a term ``|m lambda| exp(-t lambda^2)`` at the exact node:

    * the weight ``m lambda`` (1), np.exp within 3 ulps of a normal value
      (6), the product by it (1), and the window's sum, ``depth`` =
      :func:`_sum_depth` of the trace's row count (the longest window);
    * per unit y: the exponent's two products (2) and the node.  A half
      ``[t0, t1]`` of ``[t_min, t_max]`` runs on panels ``[a, b]`` in ``x =
      ln(t/t0)``: the rounded width ``b - a`` (1), the node ``z`` (1) and
      their product (1), at most 3 wide, plus the sum ``a + (b - a) z``
      (``x`` itself), put x within ``(x + 9) u64`` and ``t = t0 exp(x)``
      within ``(x + 16) u64``: ``x + 18`` in all;
    * the factor ``(b - a) exp(x/2)``: ``(x + 9)/2 + 6`` for the exp, 1 for
      the width, 2 for the products; the rule's weight (1, correctly
      rounded), the product by it (1), ``math.fsum`` (1), the product by
      ``sqrt(t0)`` (2) and the sum of the halves (1); the subtraction of
      ``c/t_min`` and the division by ``sqrt(pi)`` (3 of ``|integral|``,
      at most the integrated gross trace).

    A term is normal only while ``t lambda^2 <= 709``, so for row j the
    node's ``x <= ln(t/t_min)`` counts only up to ``L_j = min(ln(t_max/
    t_min), ln(709/y_j))`` at ``y_j = t_min lambda_j^2`` (0 if negative);
    past it the term is covered below.  Against ``s^(-1/2)`` from ``t_min``
    on, ``exp(-s lambda^2)`` integrates to ``Gamma(1/2, y)/|lambda|`` and
    ``s lambda^2 exp(-s lambda^2)`` to ``Gamma(3/2, y)/|lambda| =
    (Gamma(1/2, y)/2 + sqrt(y) exp(-y))/|lambda|``; the rule's positive
    weights integrate these bumps as they do the trace's.  ``x = 0`` is
    ``t0`` exactly, and each half's far end ``ln(t1/t0)``, within ``(2
    ln(t1/t0) + 1) u64`` (the quotient and an ulp of the log), moves the
    integral by at most that times ``sqrt(t1) sum |m lambda| exp(-t1
    lambda^2) <= sum |m| Gamma(3/2, y)``: ``2 L_j + 2`` for both ends.  So
    row j carries ``|m_j| [A_j Gamma(1/2, y_j) + B_j Gamma(3/2, y_j)]
    u64/sqrt(pi)``, ``A_j = depth + 32 + L_j/2``, ``B_j = 3 L_j + 21``, each
    with at least one unit of room for the higher orders
    (:func:`_rounding`).  A term below float64's normal range (``y > 708``,
    inside a window only when ``W > e^570``) errs by under ``2^-1021`` per
    unit weight, which adds ``2 sqrt(t_max) 2^-1021 sum |m lambda|/
    sqrt(pi)``.  The same pass adds the levels' own rounding, and ``4 eps
    |c|/t_min`` covers the roundings of ``c``, ``c/t_min``, and their share
    of the subtraction and the division.  The term depends on the rows,
    ``t_min`` and ``t_max`` alone, so the panels stop doubling once ``|G24 -
    G20|`` is below it.
    """
    if not (isfinite(weyl) and 0.0 < geodesic < inf):
        raise ValueError(f"the Weyl term must be finite and the geodesic positive, "
                         f"got {weyl!r} and {geodesic!r}")
    spec = np.asarray(spectrum, dtype=float).reshape(-1, 2)
    if not len(spec):
        raise ValueError("empty spectrum")
    _check_multiplicities(spec[:, 1])
    if not np.all(np.isfinite(spec[:, 0])):
        raise ValueError("eigenvalues must be finite")
    if np.any(np.abs(spec[:, 0]) <= ZERO_TOL):
        raise ValueError("spectrum contains kernel modes; strip them first")
    trace = _OddTrace(spec)

    too_large = ValueError(f"eigenvalues are too large for the heat engine: |lambda| = "
                           f"{trace.abs_max:.3e} puts the error budget outside the double range")
    # up from t_geo while the remainder (the modes past the cutoff) falls
    t_min = geodesic * geodesic / (4.0 * _KAPPA)
    try:  # a remainder or a level past the double range (radius 1e-110 on a lens)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            rest = remainder(t_min)
            while rest > 0 and t_min < 1e8 and (step := remainder(2**0.25 * t_min)) < rest:
                t_min, rest = 2**0.25 * t_min, step
            t_max = max(8.0, 80.0 / trace.min_abs**2, 2.0 * t_min)
            while float(trace.odd([t_max])[0]) * np.sqrt(t_max) > tol / 16.0 and t_max < 1e8:
                t_max *= 2.0
            # rounding: of c (a few double roundings) against the bulk c/t_min,
            # and the one pass over the levels
            rounding = 4.0 * _EPS * abs(weyl) / t_min + _rounding(trace, t_min, t_max, flux)
            integral, quad_err = _quadrature(trace, t_min, t_max, tol, rounding)
    except ArithmeticError:  # numpy's FloatingPointError, or Python's overflow or 0 division
        raise too_large from None
    # int_0^t_min s^(-1/2) c s^(-3/2) ds continues to -c/t_min
    eta = float((integral - weyl / t_min) / sqrt(pi))

    # the kernel modes split off are |lambda| <= ZERO_TOL away from the trace
    # the Weyl term describes: at most 2 ZERO_TOL sqrt(t_min) each below t_min
    error = float(quad_err + rounding + (rest + 2 * kernel_dim * ZERO_TOL * sqrt(t_min)) / sqrt(pi))
    if not np.isfinite(error):
        raise too_large
    return EtaValue(eta, kernel_dim, "heat_kernel", error, error <= tol)


# ---------------------------------------------------------------------------
# model-level drivers
# ---------------------------------------------------------------------------

def _last_shell(geo) -> int:
    """The largest cutoff N whose shell, at most ``(2N + 3)^index_dim``
    levels, fits ``SHELL_BUDGET``."""
    return (int(SHELL_BUDGET ** (1.0 / geo.index_dim)) - 3) // 2


def heat_cutoff(model: SpectralModel, tol: float = 1e-8) -> int:
    """The heat engine's default cutoff: the smallest N with ``rank heat_tail(
    t_geo, 2t, N) <= tol/16``, by bisection up to the last shell within
    ``SHELL_BUDGET`` (if none fits, the flux is refused).  At twice the flux the
    shell holds every level up to ``2|t|``, as :func:`eta_sweep`'s check asks.
    N never falls as ``|t|`` grows and is even in t: a heat pass takes it once,
    at its largest ``|t|``.  A tail past the double range refuses the model,
    as does a rank past it, by name."""
    geo, t = model.geometry, model.flux_shift
    if not model.rank <= float_info.max:  # rank * tail converts the rank to a double
        raise ValueError(f"rank {model.rank} puts the heat tail outside the double range")
    t_geo = geo.shortest_geodesic**2 / (4.0 * _KAPPA)
    n_max = _last_shell(geo)
    try:  # t_geo underflows to 0 at a radius near 1e-160
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            n = 1 + bisect_left(range(1, n_max + 1), True, key=lambda k: model.rank
                                * geo.heat_tail(t_geo, 2.0 * t, k) <= tol / 16.0)
    except ArithmeticError:
        raise ValueError(f"eigenvalues are too large for the heat engine: t_geo = {t_geo:.3e} "
                         "puts the error budget outside the double range") from None
    if n > n_max:
        raise ValueError(f"eigenvalues are too large for the heat engine: flux {t:.6g} needs "
                         f"cutoff {n} or more, for radius 2|t|: over {SHELL_BUDGET} levels")
    return n


def _shifted(shell: np.ndarray, t: float) -> np.ndarray:
    """The enumeration at flux ``t`` from ``shell``, the one at flux 0 and the
    same cutoff, bit for bit: ``x -> x + t`` is monotone, so the shifted
    levels merge into the same groups with the same multiplicities."""
    return np.column_stack(_merge(shell[:, 0] + t, shell[:, 1]))


def _heat_pass(models: Sequence[SpectralModel], cutoff: int | None,
               tol: float) -> list[EtaValue | ValueError]:
    """The heat etas of models that share an unfluxed model (see :func:`eta_sweep`)."""
    try:
        n = cutoff if cutoff is not None else heat_cutoff(
            max(models, key=lambda model: abs(model.flux_shift)), tol)
        if n > (n_max := _last_shell(models[0].geometry)):  # a given cutoff: a derived one fits
            raise ValueError(f"cutoff {n} is past {n_max}, the last shell within the budget "
                             f"of {SHELL_BUDGET} levels")
        shell = enumerate_spectrum(models[0].with_flux(0.0), n)
    except ValueError as exc:  # the pass's cutoff or shell refuses every model
        return [exc] * len(models)
    out: list[EtaValue | ValueError] = []
    for model in models:
        geo, rank, t = model.geometry, model.rank, model.flux_shift
        try:
            spec = _shifted(shell, t)
            if not len(spec):  # a long thin torus: no mode of the short edges fits the shell
                raise ValueError(f"no eigenvalue lies in the complete shell at cutoff {n}; "
                                 "raise the cutoff")
            values, mults = spec[:, 0], spec[:, 1]
            # the values are sorted; a flux that swamps the spectrum shrinks the radius
            radius = max(values[-1] - t, t - values[0])
            if abs(t) > radius / 2:
                raise ValueError(
                    f"eigenvalues are too large for the heat engine: flux {t:.6g} exceeds "
                    f"half the radius {radius:.6g} of the spectrum enumerated at cutoff {n}")
            zero = np.abs(values) <= ZERO_TOL
            out.append(eta_heat(spec[~zero], weyl=rank * geo.weyl_coefficient * t,
                                geodesic=geo.shortest_geodesic,
                                remainder=lambda s: rank * (geo.heat_remainder(s, t)
                                                            + geo.heat_tail(s, t, n)),
                                flux=t, tol=tol, kernel_dim=int(mults[zero].sum())))
        except ValueError as exc:
            out.append(exc)
    return out


def eta_sweep(models: Sequence[SpectralModel], engine: str = "hurwitz",
              cutoff: int | None = None, tol: float = 1e-8) -> list[EtaValue | ValueError]:
    """Eta/xi of each model through the selected engine, or the
    ``ValueError`` that refuses it, in one pass per group of models.

    The Hurwitz engine is exact and ignores ``cutoff``: one
    :func:`eta_hurwitz` call per family table and rank.  The heat engine
    runs one pass per unfluxed model, at ``cutoff`` or else at the
    :func:`heat_cutoff` of the pass's largest ``|t|``, which serves every
    smaller one; refused, that refuses the pass, as does a ``cutoff`` past
    the last shell within ``SHELL_BUDGET``.  A pass reads its spectra
    off one enumeration of the unfluxed model (:func:`_shifted`).  Each
    subtracts the Weyl term ``rank weyl_coefficient t``, reports its error
    bound, and is refused at a flux beyond half the radius of the spectrum
    enumerated, which the cutoff no longer resolves.
    """
    if engine == "hurwitz":  # a spectrum holds its table, so no id is reused in this call
        to_item, key, evaluate = progression_spectrum, lambda s: (id(s.table), s.rank), eta_hurwitz
    elif engine == "heat_kernel":
        to_item, key = (lambda m: m), (lambda m: m.with_flux(0.0))
        evaluate = lambda ms: _heat_pass(ms, cutoff, tol)
    else:
        raise ValueError(f"unknown engine {engine!r}; use 'hurwitz' or 'heat_kernel'")
    out: list[EtaValue | ValueError | None] = [None] * len(models)
    passes: dict[object, list[tuple[int, object]]] = {}
    for i, model in enumerate(models):
        try:
            passes.setdefault(key(item := to_item(model)), []).append((i, item))
        except ValueError as exc:  # a torus, for the Hurwitz engine
            out[i] = exc
    for members in passes.values():
        for (i, _), value in zip(members, evaluate([item for _, item in members])):
            out[i] = value
    return out


def eta_for_model(model: SpectralModel, engine: str = "hurwitz", cutoff: int | None = None,
                  tol: float = 1e-8) -> EtaValue:
    """Eta/xi of one model: :func:`eta_sweep` of it alone, its error raised."""
    return _value(eta_sweep([model], engine, cutoff, tol)[0])


def rho_sweep(models: Sequence[SpectralModel], engine: str = "hurwitz",
              cutoff: int | None = None, tol: float = 1e-8) -> list[RhoValue | ValueError]:
    """The rho invariant of each model, or the ``ValueError`` that refuses it
    (its twisted eta's, else its trivial partner's), from one
    :func:`eta_sweep` over the models and their trivial partners.  A model
    that is its own partner is evaluated once."""
    partners = [model.trivial_partner() for model in models]
    etas = eta_sweep([*models, *(p for m, p in zip(models, partners) if p != m)],
                     engine, cutoff, tol)
    trivial = iter(etas[len(models):])
    out: list[RhoValue | ValueError] = []
    for model, partner, twisted in zip(models, partners, etas):
        pair = (twisted, next(trivial) if partner != model else twisted)
        errors = [eta for eta in pair if isinstance(eta, ValueError)]
        out.append(errors[0] if errors else RhoValue(*pair, rank=model.rank))
    return out


def rho(model: SpectralModel, engine: str = "hurwitz", cutoff: int | None = None,
        tol: float = 1e-8) -> RhoValue:
    """Rho invariant: ``xi(twisted) - rank * xi(trivial line bundle)``, the
    reference model being the same geometry and flux with the trivial line
    bundle: :func:`rho_sweep` of it alone, its error raised."""
    return _value(rho_sweep([model], engine, cutoff, tol)[0])
