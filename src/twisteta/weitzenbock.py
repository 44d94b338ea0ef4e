"""Lichnerowicz-Weitzenbock identity checks and the positive-scalar-curvature
kernel-vanishing threshold.

Degree-3 identity on the flat torus (scalar curvature 0):

    (D + c(H))^2 = Delta_H - 2 |H|^2,   H = f(x) vol,

with ``Delta_H = -sum_j (d_j + c(iota_{e_j} H))^2`` assembled mode by mode in
the Fourier basis and ``|H|^2 = f(x)^2`` acting by convolution.  The
comparison is restricted to interior modes (margin = flux bandwidth) where
the truncated products agree with the infinite-volume operator entry by
entry, so the residual is pure floating-point noise.

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
from typing import Sequence

import numpy as np

from .clifford import (
    FluxForm,
    GammaRep,
    _clifford_terms,
    _contract,
    _wedge,
    build_gamma_rep,
)
from .eta import RhoValue, rho
from .models import (
    SpectralModel,
    Torus3,
    TorusFlux,
    TrivialBundle,
    build_torus_operator,
    enumerate_spectrum,
    torus_multiplication_operator,
    torus_twisted_derivative,
)
from .specflow import sf_for_flux

__all__ = [
    "LwReport",
    "PscThreshold",
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
    residual_deg3: float
    residual_general: float
    modes_compared: int

    def __post_init__(self):
        if self.residual_deg3 < 0 or self.residual_general < 0:
            raise ValueError("residuals are norms, must be >= 0")


def _opnorm_bound(mat) -> float:
    """Upper bound for the spectral norm: sqrt(norm_1 * norm_inf)."""
    a = abs(mat)
    row = a.sum(axis=1).max()
    col = a.sum(axis=0).max()
    return float(np.sqrt(float(row) * float(col)))


def lw_check_deg3(geometry: Torus3, flux: TorusFlux, cutoff: int,
                  bundle=TrivialBundle(1)) -> LwReport:
    """Matrix residuals of the degree-3 identity on the flat torus.

    ``residual_deg3`` compares against the closed-form zeroth-order term
    ``-2 f^2``; ``residual_general`` rebuilds that term from the Clifford
    expression ``c(H)^2 + sum_j c(iota_j H)^2`` evaluated as matrices, so the
    two measurements are independent of each other's algebra.
    """
    b = flux.bandwidth
    if cutoff < 2 * max(b, 1):
        raise ValueError("cutoff smaller than twice the flux bandwidth: no interior modes")
    op = build_torus_operator(geometry, flux, cutoff, bundle)
    d = op.matrix
    d2 = (d @ d).tocsr()
    delta = None
    for axis in range(3):
        aj = torus_twisted_derivative(geometry, flux, cutoff, axis, bundle)
        term = (aj @ aj).tocsr()
        delta = term if delta is None else delta + term
    delta = (-delta).tocsr()
    f_sq = flux.convolved()

    # closed-form route: + 2 f^2 (x) I
    m2 = torus_multiplication_operator(geometry, {u: 2.0 * c for u, c in f_sq.items()}, cutoff, bundle)
    resid3 = d2 - delta + m2

    # Clifford route: zeroth-order block c(H)^2 + sum_j c(iota_j H)^2 per unit f^2
    rep = build_gamma_rep(3)
    unit = FluxForm.top(3, 1.0)
    h_terms = unit.complex_terms()
    c_h = _clifford_terms(rep, h_terms)
    zero_block = c_h @ c_h
    for j in range(3):
        cj = _clifford_terms(rep, _contract(h_terms, j))
        zero_block = zero_block + cj @ cj
    m_gen = torus_multiplication_operator(geometry, f_sq, cutoff, bundle, block=zero_block)
    resid_gen = d2 - delta - m_gen

    margin = max(b, 1)
    keep = op.interior_indices(margin)
    if keep.size == 0:
        raise ValueError("no interior modes at this cutoff/bandwidth")
    sub3 = resid3.tocsr()[keep][:, keep]
    subg = resid_gen.tocsr()[keep][:, keep]
    return LwReport(
        residual_deg3=_opnorm_bound(sub3),
        residual_general=_opnorm_bound(subg),
        modes_compared=int(keep.size // 2),
    )


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
    c_h = _clifford_terms(rep, h)
    lhs = c_h @ c_h
    for j in range(n):
        cj = _clifford_terms(rep, _contract(h, j))
        lhs = lhs + cj @ cj
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


@dataclass(frozen=True)
class PscThreshold:
    r_min: float
    h_norm: float
    u0: float

    def __post_init__(self):
        expected = np.sqrt(self.r_min / 8.0) / self.h_norm
        if not np.isclose(self.u0, expected, rtol=1e-12, atol=0.0):
            raise ValueError("u0 must equal sqrt(r_min/8)/h_norm")


def psc_threshold(r_min: float, h_norm: float) -> PscThreshold:
    """Kernel-vanishing threshold ``u0 = sqrt(r_min/8)/h_norm`` from
    ``R/4 - 2 u^2 |H|^2 > 0``."""
    if r_min <= 0 or h_norm <= 0:
        raise ValueError("r_min and h_norm must be positive")
    return PscThreshold(r_min=float(r_min), h_norm=float(h_norm),
                        u0=float(np.sqrt(r_min / 8.0) / h_norm))


@dataclass(frozen=True)
class PscSweepReport:
    threshold: PscThreshold
    u_grid: tuple[float, ...]
    min_abs_eigenvalue: tuple[float, ...]
    flow: int
    rhos: tuple[RhoValue, ...]
    rho_deviation_max: float
    first_kernel_u: float  # empirical first kernel point along the ray


def psc_stability_sweep(model: SpectralModel, u_grid: Sequence[float],
                        h_norm: float = 1.0, engine: str = "hurwitz",
                        cutoff: int | None = None, zero_tol: float = 1e-9,
                        r_min: float | None = None) -> PscSweepReport:
    """Sweep ``u -> D + u h_norm vol-flux`` below the threshold.

    Asserts no kernel and zero flow on the grid and records rho at each u
    (constant for character bundles: the smooth eta variation is local and
    cancels in the difference).  ``r_min`` defaults to the geometry's scalar
    curvature; overriding it is only useful to exercise the hard-failure
    branch, which raises :class:`TheoremViolationError` because a kernel
    below the true threshold contradicts the curvature bound.
    """
    if not model.geometry.scalar_curvature > 0:
        raise ValueError("sweep requires a positive-scalar-curvature model")
    if model.flux_shift != 0.0:
        raise ValueError("sweep starts from the unfluxed operator")
    r_eff = model.geometry.scalar_curvature if r_min is None else float(r_min)
    thr = psc_threshold(r_eff, h_norm)
    grid = tuple(float(u) for u in u_grid)
    if any(u < 0 for u in grid) or list(grid) != sorted(set(grid)):
        raise ValueError("u grid must be nonnegative and strictly increasing")
    if grid and grid[-1] >= thr.u0:
        raise ValueError(f"u grid must stay strictly below u0 = {thr.u0}")

    n = cutoff if cutoff is not None else max(8, int(grid[-1] * h_norm) + 4)
    base_items = enumerate_spectrum(model, n)
    first_kernel = min(abs(v) for v, _ in base_items) / h_norm

    min_abs = []
    rhos = []
    for u in grid:
        shifted = model.with_flux(u * h_norm)
        items = enumerate_spectrum(shifted, n)
        low = min(abs(v) for v, _ in items)
        min_abs.append(low)
        if low <= zero_tol:
            raise TheoremViolationError(
                f"kernel detected at u={u} below u0={thr.u0}: the curvature "
                "bound excludes this; check flux sign conventions"
            )
        rhos.append(rho(shifted, engine=engine, cutoff=cutoff))

    flow = 0
    if grid and grid[-1] > 0.0:
        sf = sf_for_flux(model, grid[-1] * h_norm)
        flow = sf.flow
        if flow != 0:
            raise TheoremViolationError(
                f"nonzero spectral flow {flow} below u0: contradicts kernel vanishing"
            )
    deviation = max(abs(r.rho - rhos[0].rho) for r in rhos) if rhos else 0.0
    return PscSweepReport(threshold=thr, u_grid=grid,
                          min_abs_eigenvalue=tuple(min_abs), flow=flow,
                          rhos=tuple(rhos), rho_deviation_max=float(deviation),
                          first_kernel_u=float(first_kernel))
