"""Lichnerowicz-Weitzenbock identity checks and the positive-scalar-curvature
kernel-vanishing threshold.

Degree-3 identity on the flat torus (scalar curvature 0):

    (D + c(H))^2 = Delta_H - 2 |H|^2,   H = f(x) vol,

with ``Delta_H = -sum_j (d_j + c(iota_{e_j} H))^2`` assembled mode by mode in
the Fourier basis and ``|H|^2 = f(x)^2`` acting by convolution.  The
comparison is restricted to interior modes (margin = flux bandwidth) where
the truncated products agree with the infinite-volume operator entry by
entry, so the residual is pure floating-point noise.  The products and the
residual are formed on the interior rows only, and the interior columns are
taken at the end: sparse products and sums build each row on its own, so
this is bit for bit the interior block of the products on all rows.  The
zeroth-order term is one operator ``f^2 (x) Z``: the Clifford block ``Z`` of
the unit top form must be the closed form ``-2 I`` exactly.

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
from .eta import RhoValue, rho
from .models import (
    ZERO_TOL,
    SpectralModel,
    Torus3,
    TorusFlux,
    TrivialBundle,
    _unit_top_form,
    build_torus_operator,
    torus_multiplication_operator,
    torus_twisted_derivative,
)
from .specflow import UnfluxedSpectrum, sf_on_spectrum

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
        if self.residual < 0:
            raise ValueError("the residual is a norm, must be >= 0")


def _opnorm_bound(mat) -> float:
    """Upper bound for the spectral norm: sqrt(norm_1 * norm_inf)."""
    a = abs(mat)
    row = a.sum(axis=1).max()
    col = a.sum(axis=0).max()
    return float(np.sqrt(float(row) * float(col)))


def _zeroth_order_block(rep: GammaRep, h_terms) -> np.ndarray:
    """The zeroth-order term ``c(H)^2 + sum_j c(iota_j H)^2`` as a matrix."""
    c_h = _clifford_terms(rep, h_terms)
    block = c_h @ c_h
    for j in range(rep.dim):
        cj = _clifford_terms(rep, _contract(h_terms, j))
        block = block + cj @ cj
    return block


def lw_check_deg3(geometry: Torus3, flux: TorusFlux, cutoff: int,
                  bundle=TrivialBundle(1)) -> LwReport:
    """Matrix residual of the degree-3 identity on the flat torus.

    The Clifford block ``Z = c(vol)^2 + sum_j c(iota_j vol)^2`` must equal the
    closed form ``-2 I`` exactly (else :class:`TheoremViolationError`), so the
    one residual against ``f^2 (x) Z`` checks the degree-3 closed form and the
    general identity at once.
    """
    b = flux.bandwidth
    if cutoff < 2 * max(b, 1):
        raise ValueError("cutoff smaller than twice the flux bandwidth: no interior modes")
    zero_block = _zeroth_order_block(*_unit_top_form())
    if not np.array_equal(zero_block, -2.0 * np.eye(2)):
        raise TheoremViolationError(f"zeroth-order block {zero_block.tolist()} is not the "
                                    "closed form -2 I: check Clifford conventions")
    op = build_torus_operator(geometry, flux, cutoff, bundle)
    keep = op.interior_indices(max(b, 1))
    # products on the interior rows only: SpGEMM builds each row on its own
    d = op.matrix
    a_sq = None  # sum_j A_j^2 = -Delta_H
    for axis in range(3):
        aj = torus_twisted_derivative(geometry, flux, cutoff, axis, bundle)
        term = aj[keep] @ aj
        a_sq = term if a_sq is None else a_sq + term
    m_gen = torus_multiplication_operator(geometry, flux.convolved(), cutoff, bundle,
                                          block=zero_block)
    residual = _opnorm_bound((d[keep] @ d + a_sq - m_gen[keep])[:, keep])
    return LwReport(residual=residual, modes_compared=int(keep.size // 2))


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

    # the base holds the levels x + 0.0, so the spectrum at flux t is base + t
    # exactly (merging equal values moves no minimum), and it holds the value
    # nearest to -u h_norm on both sides for every u on the grid and every
    # value the flux path to the last u crosses
    spectrum = UnfluxedSpectrum(model).past(grid[-1] * h_norm + 1.0)
    base = spectrum[:, 0]
    first_kernel = np.abs(base).min() / h_norm

    min_abs, rhos = [], []
    for u in grid:
        low = float(np.abs(base + u * h_norm).min())
        min_abs.append(low)
        if low <= ZERO_TOL:
            raise TheoremViolationError(
                f"kernel detected at u={u} below u0={u0}: the curvature "
                "bound excludes this; check flux sign conventions"
            )
        rhos.append(rho(model.with_flux(u * h_norm), engine=engine, cutoff=cutoff, tol=tol))

    flow = sf_on_spectrum(spectrum, grid[-1] * h_norm).flow
    if flow != 0:
        raise TheoremViolationError(
            f"nonzero spectral flow {flow} below u0: contradicts kernel vanishing"
        )
    deviation = max(abs(r.rho - rhos[0].rho) for r in rhos)
    return PscSweepReport(u0=u0, min_abs_eigenvalue=tuple(min_abs), flow=flow,
                          rhos=tuple(rhos), rho_deviation_max=float(deviation),
                          first_kernel_u=float(first_kernel))
