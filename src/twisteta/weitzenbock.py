"""Lichnerowicz-Weitzenbock identity checks and the positive-scalar-curvature
kernel-vanishing threshold.

Degree-3 identity on the flat torus (scalar curvature 0):

    (D + c(H))^2 = Delta_H - 2 |H|^2,   H = f(x) vol,

with ``Delta_H = -sum_j (d_j + c(iota_{e_j} H))^2`` in the Fourier basis and
``|H|^2 = f(x)^2`` acting by convolution.  The comparison is restricted to
interior modes (margin = flux bandwidth) where the truncated products agree
with the infinite-volume operator entry by entry, so the residual is pure
floating-point noise.  The zeroth-order term is one operator ``f^2 (x) Z``:
the Clifford block ``Z`` of the unit top form must be the closed form ``-2
I`` exactly.

The residual comes from the operators' symbols (``TorusSymbol``: a constant
2x2 block per Fourier shift and the diagonal block's four entries, each on
the box axes it depends on), with no sparse matrix: each square, the
residual and the norm bound are formed entry by entry on the interior modes
and on the axes the entry varies along, so only the sums that join
different axes reach the whole interior box.  The arithmetic is the sparse
path's, term for term: products summed in the left factor's CSR column
order, complex products without fused multiply-adds, the sums ``(D^2 +
((A_0^2 + A_1^2) + A_2^2)) - M``, and the row and column sums of the norm
in the order scipy takes them; terms that are exact zeros are not formed,
as they add only signed zeros.  So the residual is bit for bit that of the
sparse products, which the tests keep as its reference.

The general constant-coefficient identity equates ``c(H)^2 +
sum_j c(iota_{e_j} H)^2`` with contraction terms of order two and higher,

    sum_{k>=2} sum_{j1<...<jk} (-1)^{k(k+1)/2} (1-k)
        c( (iota_{j1}...iota_{jk} H) ^ (iota_{j1}...iota_{jk} H) ),

where H carries its ``i^{j+1}`` factors and the square is the wedge square
(odd-degree contractions drop out identically).  This reading reproduces the
degree-3 closed form ``-2|H|^2`` and verifies to machine precision for every
odd-degree flux, including mixed degrees.

Kernel vanishing: with ``R > 0`` the identity forces ``D_{uH}`` invertible
while ``R/4 - 2 u^2 |H|^2 > 0``, i.e. for ``u < u0 = sqrt(R_min/8)/|H|``.
The operator bound is far from sharp on the round models (the first kernel
on the unit sphere appears only at ``u = 3/2``); the sweep reports both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isfinite
from typing import Sequence

import numpy as np

from .clifford import FluxForm, GammaRep, _clifford_terms, _contract, _wedge
from .eta import RhoValue, _value, rho_sweep
from .models import (
    SHELL_BUDGET,
    ZERO_TOL,
    SpectralModel,
    Torus3,
    TorusFlux,
    TorusSymbol,
    TrivialBundle,
    _derivative_symbol,
    _dirac_symbol,
    _unit_top_form,
)
from .specflow import UnfluxedSpectrum, sf_for_flux

__all__ = [
    "LwReport",
    "PscSweepReport",
    "TheoremViolationError",
    "lw_check_deg3",
    "lw_check_general",
    "psc_threshold",
    "psc_stability_sweep",
]


class TheoremViolationError(RuntimeError):
    """A guaranteed-impossible configuration was observed (convention bug)."""


@dataclass(frozen=True)
class LwReport:
    residual: float
    modes_compared: int

    def __post_init__(self):
        if not (isfinite(self.residual) and self.residual >= 0):
            raise ValueError(f"the residual is a norm, must be finite and >= 0, "
                             f"got {self.residual!r}")


def _zeroth_order_block(rep: GammaRep, h_terms) -> np.ndarray:
    """The zeroth-order term ``c(H)^2 + sum_j c(iota_j H)^2`` as a matrix."""
    c_h = _clifford_terms(rep, h_terms)
    block = c_h @ c_h
    for j in range(rep.dim):
        cj = _clifford_terms(rep, _contract(h_terms, j))
        block = block + cj @ cj
    return block


# An operator on the interior rows by entry: ``(w, a, c)`` maps to the real
# and imaginary parts of entry ``(a, c)`` of ``X_w(v)`` over the interior modes
# ``v``, each of shape ``(n or 1,) * 3`` (or a scalar): an entry varies only
# along the axes its terms depend on.  A missing entry is zero.
Entries = dict[tuple[tuple[int, int, int], int, int], tuple[np.ndarray, np.ndarray]]


def _offset(u, side: int) -> int:
    """Box index step of shift ``u``: mode ``i`` couples to column mode ``i - off``."""
    return (u[0] * side + u[1]) * side + u[2]


def _add(x, y):
    """``x + y`` of two entries' parts, ``None`` being zero."""
    if x is None:
        return y
    if y is None:
        return x
    return x[0] + y[0], x[1] + y[1]


def _interior_square(symbol: TorusSymbol, margin: int) -> Entries:
    """``X^2`` on the interior rows from the symbol of ``X``: ``(X^2)_w(v) =
    sum_u X_u(v) X_{w-u}(v - u)``, with ``v - u`` in the box for every
    interior ``v`` (``|u|_inf <= margin``).

    Each entry ``(w, a, c)`` is summed in the order of the sparse product:
    the terms of the left factor's CSR row, by descending offset of ``u`` and
    then spinor column ``b``.  Each complex product is ``(xr yr - xi yi, xr yi
    + xi yr)`` with no fused multiply-add, formed only on the axes its two
    factors depend on.  A product with an exact-zero constant factor, or with
    a diagonal entry that is zero on every mode, is not formed: it would add
    only signed zeros, which no norm sees."""
    side = 2 * symbol.cutoff + 1
    # X_u by entry (a, b) for u != 0, exact zeros left out
    consts = {u: {(a, b): (blk[a, b].real, blk[a, b].imag)
                  for a in range(2) for b in range(2) if blk[a, b] != 0}
              for u, blk in symbol.coupling.items() if any(u)}
    shifts = sorted({(0, 0, 0), *consts}, key=lambda u: -_offset(u, side))
    diagonal = {ab: (np.ascontiguousarray(e.real), np.ascontiguousarray(e.imag))
                for ab, e in symbol.entries.items() if e.any()}
    # X_0 by entry on the rows v - at of the interior modes v, by shift at
    on_rows = {at: {ab: tuple(x[tuple(slice(margin - k, side - margin - k) if m > 1
                                      else slice(None) for k, m in zip(at, x.shape))]
                              for x in parts)
                    for ab, parts in diagonal.items()}
               for at in shifts}

    def rows(u, at):  # X_u by entry on the rows v - at of the interior modes v
        return consts[u] if any(u) else on_rows[at]

    out: Entries = {}
    for u in shifts:
        left = rows(u, (0, 0, 0))
        for u2 in shifts:
            right = rows(u2, u)
            w = (u[0] + u2[0], u[1] + u2[1], u[2] + u2[2])
            for a, c, b in itertools.product(range(2), repeat=3):
                x, y = left.get((a, b)), right.get((b, c))
                if x is None or y is None:
                    continue
                (xr, xi), (yr, yi) = x, y
                term = xr * yr - xi * yi, xr * yi + xi * yr
                out[w, a, c] = _add(out.get((w, a, c)), term)
    return out


def _interior_norm_bound(entries: Entries, cutoff: int, margin: int) -> float:
    """``sqrt(max row sum * max column sum)`` of ``|X|`` on the interior rows
    and columns, the norm bound of the CSR matrix ``X[keep][:, keep]``, bit
    for bit.

    Its stored entries are the nonzero ones, rows ascending and the columns
    of a row ascending (shifts by descending offset, then spinor column).
    The moduli ``np.abs`` of the complex entries, taken on each entry's own
    axes, are written group by group into one real ``(n^3, groups)`` array,
    which holds them in that order.  The row sums are ``np.add.reduceat``
    over the nonzero ones, as the sparse ``sum(axis=1)`` takes them, and the
    column sums ``np.bincount`` in row order, as its ``sum(axis=0)`` adds
    them."""
    side = 2 * cutoff + 1
    n = side - 2 * margin
    # the entries (a, w, c) of a mode's two rows in storage order, all-zero ones left out
    shifts = sorted({w for w, _, _ in entries}, key=lambda w: -_offset(w, side))
    groups = [(a, w, c) for a in range(2) for w in shifts for c in range(2)
              if (w, a, c) in entries and (np.any(entries[w, a, c][0])
                                           or np.any(entries[w, a, c][1]))]
    if not groups:
        return 0.0
    moduli = np.empty((n, n, n, len(groups)))
    for g, (a, w, c) in enumerate(groups):
        re, im = entries[w, a, c]
        z = np.empty(np.shape(re), dtype=complex)
        z.real, z.imag = re, im
        column = moduli[..., g]
        column[...] = np.abs(z)
        for axis, x in enumerate(w):  # rows whose column mode v - w leaves the interior
            if x:
                cut = [slice(None)] * 3
                cut[axis] = slice(0, x) if x > 0 else slice(n + x, n)
                column[tuple(cut)] = 0
    moduli = moduli.reshape(n**3, len(groups))
    stored = moduli != 0
    if not stored.any():
        return 0.0
    entry = moduli[stored]
    a, off, c = (np.array(x) for x in zip(*((a, _offset(w, n), c) for a, w, c in groups)))
    twice_mode = 2 * np.arange(n**3)[:, None]
    row = (twice_mode + a)[stored]
    starts = np.flatnonzero(np.concatenate(([True], row[1:] != row[:-1])))
    row_sum = np.add.reduceat(entry, starts)
    col_sum = np.bincount((twice_mode + (c - 2 * off))[stored], weights=entry)
    return float(np.sqrt(float(row_sum.max()) * float(col_sum.max())))


def lw_check_deg3(geometry: Torus3, flux: TorusFlux, cutoff: int,
                  bundle=TrivialBundle(1)) -> LwReport:
    """Matrix residual of the degree-3 identity on the flat torus.

    The Clifford block ``Z = c(vol)^2 + sum_j c(iota_j vol)^2`` must equal the
    closed form ``-2 I`` exactly (else :class:`TheoremViolationError`), so the
    one residual against ``f^2 (x) Z`` checks the degree-3 closed form and the
    general identity at once.  A mode box ``(2 cutoff + 1)^3`` larger than
    ``SHELL_BUDGET`` is refused before any array is built, and a flux too
    large for double precision makes the residual overflow; each is a
    ``ValueError``, naming the cutoff or the flux.
    """
    if (2 * cutoff + 1) ** 3 > SHELL_BUDGET:
        raise ValueError(f"cutoff {cutoff} puts {(2 * cutoff + 1) ** 3} modes in the box, "
                         f"more than the budget of {SHELL_BUDGET}")
    b = flux.bandwidth
    if cutoff < 2 * max(b, 1):
        raise ValueError("cutoff smaller than twice the flux bandwidth: no interior modes")
    zero_block = _zeroth_order_block(*_unit_top_form())
    if not np.array_equal(zero_block, -2.0 * np.eye(2)):
        raise TheoremViolationError(f"zeroth-order block {zero_block.tolist()} is not the "
                                    "closed form -2 I: check Clifford conventions")
    margin = max(b, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        d_sq = _interior_square(_dirac_symbol(geometry, flux, cutoff, bundle), margin)
        # A_j^2, whose sum is -Delta_H
        a0, a1, a2 = (_interior_square(_derivative_symbol(geometry, flux, cutoff, axis, bundle),
                                       margin) for axis in range(3))
        # - M, its constant blocks negated (x - m is x + (-m) exactly), exact zeros left out
        minus_m = {}
        for u, coeff in flux.convolved().items():
            blk = -(coeff * zero_block)
            minus_m.update({(u, a, c): (blk[a, c].real, blk[a, c].imag)
                            for a in range(2) for c in range(2) if blk[a, c] != 0})
        # (D^2 + ((A_0^2 + A_1^2) + A_2^2)) - M, entry by entry
        residual = _interior_norm_bound(
            {key: _add(_add(d_sq.get(key), _add(_add(a0.get(key), a1.get(key)), a2.get(key))),
                       minus_m.get(key))
             for key in {*d_sq, *a0, *a1, *a2, *minus_m}}, cutoff, margin)
    if not isfinite(residual):
        raise ValueError(f"the LW residual of flux {flux.table()} is {residual}: "
                         "the flux overflows double precision")
    return LwReport(residual=residual, modes_compared=(2 * (cutoff - margin) + 1) ** 3)


def lw_check_general(rep: GammaRep, flux: FluxForm) -> float:
    """Operator-norm residual of the general constant-coefficient identity.

    Works for any flux with odd components in ``rep.dim <= 7``; the wedge
    square of contracted components makes odd-degree contractions vanish
    identically, so only even-degree contractions reach the right side.
    """
    n = rep.dim
    if n not in (3, 5, 7):
        raise ValueError("general identity check supports dims 3, 5, 7")
    h = flux.complex_terms()
    lhs = _zeroth_order_block(rep, h)
    rhs = np.zeros_like(lhs)
    for k in range(2, n + 1):
        sign = (-1) ** (k * (k + 1) // 2) * (1 - k)
        for subset in itertools.combinations(range(n), k):
            contracted = h
            for j in reversed(subset):
                contracted = _contract(contracted, j)
                if not contracted:
                    break
            if not contracted:
                continue
            square = _wedge(contracted, contracted)
            if square:
                rhs = rhs + sign * _clifford_terms(rep, square)
    return float(np.linalg.norm(lhs - rhs, 2))


def psc_threshold(r_min: float, h_norm: float) -> float:
    """Kernel-vanishing threshold ``u0 = sqrt(r_min/8)/h_norm`` from
    ``R/4 - 2 u^2 |H|^2 > 0``."""
    if not (isfinite(r_min) and r_min > 0 and isfinite(h_norm) and h_norm > 0):
        raise ValueError(f"r_min = {r_min!r} and h_norm = {h_norm!r} must be finite and positive")
    return float(np.sqrt(float(r_min) / 8.0) / float(h_norm))


@dataclass(frozen=True)
class PscSweepReport:
    u0: float
    min_abs_eigenvalue: tuple[float, ...]
    flow: int
    rhos: tuple[RhoValue, ...]
    rho_deviation_max: float
    first_kernel_u: float  # min|lambda|/h_norm: first kernel of D_{+-uH}, either sign


def psc_stability_sweep(model: SpectralModel, u_grid: Sequence[float],
                        h_norm: float = 1.0, engine: str = "hurwitz",
                        cutoff: int | None = None, r_min: float | None = None,
                        tol: float = 1e-8) -> PscSweepReport:
    """Sweep ``u -> D + u h_norm vol-flux`` below the threshold.

    Asserts no kernel and zero flow on the grid and records rho at each u
    (constant for character bundles: the smooth eta variation is local and
    cancels in the difference) through ``engine``, ``cutoff`` and ``tol``.
    ``r_min`` defaults to the geometry's scalar curvature; overriding it is
    only useful to exercise the hard-failure branch, which raises
    :class:`TheoremViolationError` because a kernel below the true threshold
    contradicts the curvature bound.  ``min_abs_eigenvalue`` and ``rhos``
    follow the order of ``u_grid``.
    """
    if not model.geometry.scalar_curvature > 0:
        raise ValueError("sweep requires a positive-scalar-curvature model")
    if model.flux_shift != 0.0:
        raise ValueError("sweep starts from the unfluxed operator")
    r_eff = model.geometry.scalar_curvature if r_min is None else float(r_min)
    u0 = psc_threshold(r_eff, h_norm)
    grid = tuple(float(u) for u in u_grid)
    if not grid or any(u < 0 for u in grid) or list(grid) != sorted(set(grid)):
        raise ValueError("u grid must be nonempty, nonnegative and strictly increasing")
    if grid[-1] >= u0:
        raise ValueError(f"u grid must stay strictly below u0 = {u0}")

    # the flow to the last u grows the unfluxed spectrum past every value its
    # path crosses, so the kept base holds the value nearest to -u h_norm on
    # both sides for every u on the grid; it holds the levels x + 0.0, so the
    # spectrum at flux t is base + t exactly (merging equal values moves no
    # minimum)
    unfluxed = UnfluxedSpectrum(model)
    flow = sf_for_flux(model, grid[-1] * h_norm, unfluxed).flow
    base = unfluxed.past(grid[-1] * h_norm)[:, 0]
    first_kernel = np.abs(base).min() / h_norm

    # one rho pass and one min |lambda| broadcast for the grid; a point's error
    # is raised after its kernel check
    values = rho_sweep([model.with_flux(u * h_norm) for u in grid], engine, cutoff, tol)
    min_abs = np.abs(base + np.array(grid)[:, None] * h_norm).min(axis=1).tolist()
    rhos = []
    for u, low, value in zip(grid, min_abs, values):
        if low <= ZERO_TOL:
            raise TheoremViolationError(
                f"kernel detected at u={u} below u0={u0}: the curvature "
                "bound excludes this; check flux sign conventions"
            )
        rhos.append(_value(value))

    if flow != 0:
        raise TheoremViolationError(
            f"nonzero spectral flow {flow} below u0: contradicts kernel vanishing"
        )
    deviation = max(abs(r.rho - rhos[0].rho) for r in rhos)
    return PscSweepReport(u0=u0, min_abs_eigenvalue=tuple(min_abs), flow=flow,
                          rhos=tuple(rhos), rho_deviation_max=float(deviation),
                          first_kernel_u=float(first_kernel))
