"""Concrete Clifford algebra representations and Clifford actions of forms.

Conventions, fixed once for the whole package:

* frame indices are 0-based: ``e_0, ..., e_{n-1}``;
* generators satisfy ``c(e_i) c(e_j) + c(e_j) c(e_i) = -2 delta_ij``,
  each ``c(e_i)`` is skew-adjoint and unitary;
* in dimension 3 we pin ``c(e_j) = -i * sigma_j`` (Pauli matrices), which
  forces ``c(e_0) c(e_1) c(e_2) = -I``.  Higher odd dimensions are built by
  tensoring, so repeated builds are bit-identical;
* a real odd-degree flux component of degree ``2j+1`` acts through the
  extra factor ``i**(j+1)``; this is what makes the total flux action a
  self-adjoint matrix (see :func:`flux_action`).

Everything here is dense, small (spinor dimension <= 16 for ``n <= 9``)
and immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "GammaRep",
    "FormComponent",
    "FluxForm",
    "build_gamma_rep",
    "build_even_gamma_rep",
    "grading_operator",
    "clifford_action",
    "flux_action",
    "degree_adjointness",
    "grading_anticommute_check",
    "boundary_reduction_check",
]

_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

MAX_ODD_DIM = 9


def _frozen(m: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(m, dtype=complex)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class GammaRep:
    """A concrete Clifford representation: ``gammas[i]`` is ``c(e_i)``.

    ``dim`` is the ambient dimension (odd for the fundamental builds; even
    reps produced by :func:`build_even_gamma_rep` reuse the same container).
    """

    dim: int
    spinor_dim: int
    gammas: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.gammas) != self.dim:
            raise ValueError("need one gamma matrix per dimension")
        for g in self.gammas:
            if g.shape != (self.spinor_dim, self.spinor_dim):
                raise ValueError("gamma matrix has wrong shape")

    def identity(self) -> np.ndarray:
        return np.eye(self.spinor_dim, dtype=complex)


def build_gamma_rep(n: int) -> GammaRep:
    """Gamma matrices in odd dimension ``n`` (1 <= n <= 9), deterministic.

    The recursion dim ``n -> n+2`` maps ``g_j -> g_j (x) sigma_3`` and
    appends ``-i I (x) sigma_1``, ``-i I (x) sigma_2``.
    """
    if n % 2 == 0:
        raise ValueError(f"odd dimension required, got {n}")
    if not 1 <= n <= MAX_ODD_DIM:
        raise ValueError(f"dimension out of supported range 1..{MAX_ODD_DIM}: {n}")
    if n == 1:
        gam = [np.array([[-1.0j]], dtype=complex)]
    elif n == 3:
        gam = [-1.0j * _SIGMA1, -1.0j * _SIGMA2, -1.0j * _SIGMA3]
    else:
        prev = build_gamma_rep(n - 2)
        eye = np.eye(prev.spinor_dim, dtype=complex)
        gam = [np.kron(g, _SIGMA3) for g in prev.gammas]
        gam.append(np.kron(eye, -1.0j * _SIGMA1))
        gam.append(np.kron(eye, -1.0j * _SIGMA2))
    return GammaRep(dim=n, spinor_dim=gam[0].shape[0], gammas=tuple(_frozen(g) for g in gam))


def build_even_gamma_rep(dim: int) -> GammaRep:
    """Even-dimensional rep ``dim = 2m`` built as odd rep of ``2m-1`` plus a
    normal direction, doubling the spinor space.

    Tangential generators are block anti-diagonal ``[[0, g], [g, 0]]`` and the
    normal one is ``[[0, -I], [I, 0]]``; this is the pairing used for the
    boundary-reduction and grading checks.
    """
    if dim % 2 != 0 or dim < 2:
        raise ValueError(f"even dimension >= 2 required, got {dim}")
    odd = build_gamma_rep(dim - 1)
    d = odd.spinor_dim
    zero = np.zeros((d, d), dtype=complex)
    eye = np.eye(d, dtype=complex)
    gam = [np.block([[zero, g], [g, zero]]) for g in odd.gammas]
    gam.append(np.block([[zero, -eye], [eye, zero]]).astype(complex))
    return GammaRep(dim=dim, spinor_dim=2 * d, gammas=tuple(_frozen(g) for g in gam))


def grading_operator(rep: GammaRep) -> np.ndarray:
    """Grading involution ``i^m c(e_0 ... e_{2m-1})`` of an even rep."""
    if rep.dim % 2 != 0:
        raise ValueError("grading operator requires an even-dimensional rep")
    m = rep.dim // 2
    g = rep.identity() * (1.0j) ** m
    for gi in rep.gammas:
        g = g @ gi
    return g


# ---------------------------------------------------------------------------
# constant-coefficient exterior algebra (internal: dict of index tuples)
# ---------------------------------------------------------------------------

Terms = dict  # tuple[int, ...] -> complex


def _validate_indices(idx: tuple[int, ...], degree: int):
    if len(idx) != degree:
        raise ValueError(f"term {idx} does not have degree {degree}")
    if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
        raise ValueError(f"indices must be strictly increasing, got {idx}")
    if idx and idx[0] < 0:
        raise ValueError(f"negative frame index in {idx}")


def _contract(terms: Terms, j: int) -> Terms:
    """Interior product iota_{e_j} on a term dict."""
    out: Terms = {}
    for idx, c in terms.items():
        if j in idx:
            pos = idx.index(j)
            key = idx[:pos] + idx[pos + 1:]
            out[key] = out.get(key, 0.0) + c * (-1) ** pos
    return out


def _wedge(t1: Terms, t2: Terms) -> Terms:
    out: Terms = {}
    for i1, c1 in t1.items():
        for i2, c2 in t2.items():
            merged = list(i1 + i2)
            if len(set(merged)) != len(merged):
                continue
            sign = 1
            # bubble sort, counting transpositions
            for a in range(len(merged)):
                for b in range(len(merged) - 1 - a):
                    if merged[b] > merged[b + 1]:
                        merged[b], merged[b + 1] = merged[b + 1], merged[b]
                        sign = -sign
            key = tuple(merged)
            out[key] = out.get(key, 0.0) + sign * c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def _clifford_terms(rep: GammaRep, terms: Terms) -> np.ndarray:
    out = np.zeros((rep.spinor_dim, rep.spinor_dim), dtype=complex)
    for idx, c in terms.items():
        if idx and idx[-1] >= rep.dim:
            raise ValueError(f"frame index {idx[-1]} out of range for dim {rep.dim}")
        m = rep.identity() * c
        for i in idx:
            m = m @ rep.gammas[i]
        out += m
    return out


@dataclass(frozen=True)
class FormComponent:
    """Homogeneous constant-coefficient form: ``sum coeff * e_{i1} ^ ... ^ e_{ik}``."""

    degree: int
    terms: tuple[tuple[tuple[int, ...], complex], ...]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        for idx, _ in self.terms:
            _validate_indices(idx, self.degree)

    @classmethod
    def single(cls, indices: Iterable[int], coeff: complex) -> "FormComponent":
        idx = tuple(indices)
        return cls(degree=len(idx), terms=((idx, coeff),))

    @classmethod
    def from_terms(cls, degree: int, terms: Mapping[tuple[int, ...], complex]) -> "FormComponent":
        return cls(degree=degree, terms=tuple(sorted(terms.items())))

    def term_dict(self) -> Terms:
        out: Terms = {}
        for idx, c in self.terms:
            out[idx] = out.get(idx, 0.0) + c
        return out

    def scaled(self, factor: complex) -> "FormComponent":
        return FormComponent(self.degree, tuple((idx, c * factor) for idx, c in self.terms))


@dataclass(frozen=True)
class FluxForm:
    """Flux with odd-degree real components; the degree-(2j+1) component acts
    through the extra ``i**(j+1)``, which :meth:`complex_terms` applies (for
    :func:`flux_action` and the Weitzenbock checks alike) and is never
    stored."""

    components: tuple[FormComponent, ...]

    def __post_init__(self):
        degrees = [c.degree for c in self.components]
        if any(d % 2 == 0 for d in degrees):
            raise ValueError("flux components must have odd degree")
        if len(set(degrees)) != len(degrees):
            raise ValueError("flux components must have pairwise distinct degrees")
        for comp in self.components:
            for idx, c in comp.terms:
                if abs(complex(c).imag) != 0.0:
                    raise ValueError(f"flux coefficients must be real, got {c} at {idx}")

    @classmethod
    def top(cls, n: int, coeff: float) -> "FluxForm":
        """Top-degree flux ``coeff * e_0 ^ ... ^ e_{n-1}`` in odd dimension n."""
        return cls((FormComponent.single(range(n), float(coeff)),))

    def complex_terms(self) -> Terms:
        """Term dict of the acting complex form ``sum_j i^{j+1} H_{2j+1}``."""
        out: Terms = {}
        for comp in self.components:
            j = (comp.degree - 1) // 2
            fac = (1.0j) ** (j + 1)
            for idx, c in comp.terms:
                out[idx] = out.get(idx, 0.0) + fac * c
        return out


def clifford_action(rep: GammaRep, form: FormComponent) -> np.ndarray:
    """Matrix of ``sum coeff * c(e_{i1}) ... c(e_{ik})``.

    Degree-0 components act as scalars; indices beyond ``rep.dim`` are
    rejected.
    """
    if form.degree > rep.dim:
        raise ValueError(f"form degree {form.degree} exceeds dimension {rep.dim}")
    return _clifford_terms(rep, form.term_dict())


def flux_action(rep: GammaRep, flux: FluxForm) -> np.ndarray:
    """Self-adjoint action ``sum_j i^(j+1) c(H_{2j+1})`` of a flux form."""
    return _clifford_terms(rep, flux.complex_terms())


def degree_adjointness(k: int) -> str:
    """``"self_adjoint"`` iff Clifford action of a real degree-k form is
    self-adjoint, which happens exactly for k = 0, 3 mod 4."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    return "self_adjoint" if k % 4 in (0, 3) else "skew_adjoint"


def grading_anticommute_check(rep_even: GammaRep, form: FormComponent) -> float:
    """Operator-norm residual of ``c(alpha) gamma - (-1)^deg gamma c(alpha)``."""
    gamma = grading_operator(rep_even)
    a = clifford_action(rep_even, form)
    sign = (-1) ** form.degree
    return float(np.linalg.norm(a @ gamma - sign * gamma @ a, 2))


def boundary_reduction_check(rep_x: GammaRep) -> float:
    """Residual of the boundary Clifford structure induced by an even rep.

    The normal direction is the last generator.  With
    ``sigma = c_X(e_normal)`` and ``c_Y(e_i) := -sigma c_X(e_i)`` for the
    tangential directions, returns the max over ``sigma^2 + I`` and all
    tangential anticommutators ``c_Y(e_i) c_Y(e_j) + c_Y(e_j) c_Y(e_i)
    + 2 delta_ij``.  At the symbol level this is the content of identifying
    the operator near a boundary with ``sigma (d/dr + D_Y)``.
    """
    if rep_x.dim % 2 != 0:
        raise ValueError("boundary reduction starts from an even-dimensional rep")
    if rep_x.dim > 4:
        raise ValueError("desk-scale check supports dim 2 and 4 only")
    *tangential, sigma = rep_x.gammas
    eye = rep_x.identity()
    worst = float(np.linalg.norm(sigma @ sigma + eye, 2))
    cy = [-sigma @ g for g in tangential]
    for i, ci in enumerate(cy):
        for j, cj in enumerate(cy):
            delta = 2.0 * eye if i == j else 0.0
            worst = max(worst, float(np.linalg.norm(ci @ cj + cj @ ci + delta, 2)))
    return worst

