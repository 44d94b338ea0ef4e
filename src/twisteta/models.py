"""Exact spectra of twisted Dirac operators on model spin manifolds.

Supported geometries and their spectra (radius/edge scaling included, the
constant top-degree flux adds ``+t`` to every eigenvalue):

* ``Circle(r)`` with holonomy ``a``: ``(n + a)/r``, n in Z, multiplicity 1.
* ``Sphere3(r)``: ``+-(3/2 + k)/r``, multiplicity ``(k+1)(k+2)``.
* ``Torus3(L, spin)`` with holonomy ``theta``: ``+-2 pi |w|`` once each per
  lattice vector, ``w_j = (v_j + delta_j + theta_j)/L_j``.
* ``Lens(p, r)``: the sphere levels filtered by a character of the deck
  group Z/p acting by ``diag(eps, eps^-1)`` on SU(2) from the left with the
  trivial spin lift.  Level ``+(3/2+m)/r`` survives with multiplicity
  ``(m+2) * N(m, k)`` and ``-(3/2+m)/r`` with ``(m+1) * N(m+1, k)`` where
  ``N(m, k)`` counts weights ``{m, m-2, ..., -m}`` congruent to k mod p.

Cutoff semantics are shell complete per geometry: circle |n| <= cutoff,
sphere/lens level index k <= cutoff, torus all modes inside the largest
fully-enumerated ball (radius ``(cutoff + 1/2)/max L``), so multiplicities
are never truncated inside a level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import isfinite
from typing import ClassVar, Union

import numpy as np
import scipy.sparse as sp

__all__ = [
    "TrivialBundle",
    "CircleHolonomy",
    "TorusHolonomy",
    "LensCharacter",
    "Circle",
    "Sphere3",
    "Torus3",
    "Lens",
    "GEOMETRIES",
    "SpectralModel",
    "EigenItem",
    "enumerate_spectrum",
    "kernel_dimension",
    "ZeroResolutionError",
    "Progression",
    "ProgressionSpectrum",
    "progression_spectrum",
    "TorusFlux",
    "ModeBlockOperator",
    "build_torus_operator",
    "lens_weight_count",
]


# ---------------------------------------------------------------------------
# flat bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrivialBundle:
    rank: int = 1

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be a positive integer")


@dataclass(frozen=True)
class CircleHolonomy:
    a: float

    def __post_init__(self):
        if not 0.0 <= self.a < 1.0:
            raise ValueError("holonomy parameter must lie in [0, 1)")


@dataclass(frozen=True)
class TorusHolonomy:
    theta: tuple[float, float, float]

    def __post_init__(self):
        if len(self.theta) != 3 or any(not 0.0 <= x < 1.0 for x in self.theta):
            raise ValueError("holonomy parameters must lie in [0, 1)^3")


@dataclass(frozen=True)
class LensCharacter:
    p: int
    k: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("lens order p must be >= 2")
        if not 0 <= self.k < self.p:
            raise ValueError("character index must satisfy 0 <= k < p")


Bundle = Union[TrivialBundle, CircleHolonomy, TorusHolonomy, LensCharacter]


# ---------------------------------------------------------------------------
# geometries
# ---------------------------------------------------------------------------
#
# ``levels(model, cutoff)``: unmerged (eigenvalue, multiplicity) pairs of the
# shell-complete spectrum.  ``branches(model)``: ``(v0, step, mult_coeffs)``
# families ``v0 + step j`` with multiplicity ``sum mult_coeffs[i] j^i``.

class _Round:
    """Geometry with one length scale, ``radius``."""

    def __post_init__(self):
        if not (isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be finite and positive, got {self.radius!r}")

    def scaled(self, s: float):
        return replace(self, radius=self.radius * s)

    def config(self) -> dict:
        return {"geometry": self.config_name, "radius": self.radius}

    @classmethod
    def from_config(cls, cfg):
        return cls(radius=float(cfg.get("radius", 1.0)))


@dataclass(frozen=True)
class Circle(_Round):
    radius: float = 1.0

    dim: ClassVar[int] = 1
    bundles: ClassVar[tuple] = (CircleHolonomy, TrivialBundle)
    default_cutoff: ClassVar[int] = 2000
    config_name: ClassVar[str] = "circle"
    scalar_curvature: ClassVar[float] = 0.0

    @property
    def volume(self) -> float:
        return 2.0 * np.pi * self.radius

    def levels(self, model: "SpectralModel", cutoff: int) -> list[tuple[float, int]]:
        a = model.bundle.a if isinstance(model.bundle, CircleHolonomy) else 0.0
        t, rank = model.flux_shift, model.rank
        return [((n + a) / self.radius + t, rank) for n in range(-cutoff, cutoff + 1)]

    def branches(self, model: "SpectralModel"):
        a = model.bundle.a if isinstance(model.bundle, CircleHolonomy) else 0.0
        r, t, rank = self.radius, model.flux_shift, model.rank
        return [(a / r + t, 1.0 / r, [float(rank)]),
                ((a - 1.0) / r + t, -1.0 / r, [float(rank)])]


@dataclass(frozen=True)
class Sphere3(_Round):
    radius: float = 1.0

    dim: ClassVar[int] = 3
    bundles: ClassVar[tuple] = (TrivialBundle,)
    default_cutoff: ClassVar[int] = 400
    config_name: ClassVar[str] = "sphere3"

    @property
    def volume(self) -> float:
        return 2.0 * np.pi**2 * self.radius**3

    @property
    def scalar_curvature(self) -> float:
        return 6.0 / self.radius**2

    def levels(self, model: "SpectralModel", cutoff: int) -> list[tuple[float, int]]:
        t, rank = model.flux_shift, model.rank
        items = []
        for k in range(cutoff + 1):
            mult = rank * (k + 1) * (k + 2)
            items.append(((1.5 + k) / self.radius + t, mult))
            items.append((-(1.5 + k) / self.radius + t, mult))
        return items

    def branches(self, model: "SpectralModel"):
        r, t, rank = self.radius, model.flux_shift, model.rank
        mult = [2.0 * rank, 3.0 * rank, 1.0 * rank]  # (k+1)(k+2)
        return [(1.5 / r + t, 1.0 / r, mult), (-1.5 / r + t, -1.0 / r, mult)]


@dataclass(frozen=True)
class Torus3:
    lengths: tuple[float, float, float] = (1.0, 1.0, 1.0)
    spin: tuple[float, float, float] = (0.5, 0.5, 0.5)

    dim: ClassVar[int] = 3
    bundles: ClassVar[tuple] = (TorusHolonomy, TrivialBundle)
    # N = 40 reaches the default tol 1e-8 on the unit torus (N = 12 does not)
    default_cutoff: ClassVar[int] = 40
    config_name: ClassVar[str] = "torus3"
    scalar_curvature: ClassVar[float] = 0.0

    def __post_init__(self):
        if len(self.lengths) != 3 or not all(isfinite(x) and x > 0 for x in self.lengths):
            raise ValueError(f"edge lengths must be finite and positive, got {self.lengths!r}")
        if len(self.spin) != 3 or any(s not in (0.0, 0.5) for s in self.spin):
            raise ValueError("spin structure offsets must each be 0 or 0.5")

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def scaled(self, s: float) -> "Torus3":
        return replace(self, lengths=tuple(x * s for x in self.lengths))

    def levels(self, model: "SpectralModel", cutoff: int) -> list[tuple[float, int]]:
        t, rank = model.flux_shift, model.rank
        w, _ = _torus_modes(self, model.bundle, cutoff)
        items = []
        for x in 2.0 * np.pi * w:
            if x == 0.0:
                items.append((t, 2 * rank))
            else:
                items.append((x + t, rank))
                items.append((-x + t, rank))
        return items

    def branches(self, model: "SpectralModel"):
        raise ValueError(
            "torus spectra are not arithmetic progressions; use the heat engine"
        )

    def config(self) -> dict:
        return {"geometry": self.config_name,
                "lengths": ",".join(repr(x) for x in self.lengths),
                "spin_structure": ",".join(repr(x) for x in self.spin)}

    @classmethod
    def from_config(cls, cfg) -> "Torus3":
        return cls(lengths=tuple(cfg.floats("lengths", cls.lengths)),
                   spin=tuple(cfg.floats("spin_structure", cls.spin)))


@dataclass(frozen=True)
class Lens(_Round):
    p: int
    radius: float = 1.0

    dim: ClassVar[int] = 3
    bundles: ClassVar[tuple] = (LensCharacter, TrivialBundle)
    default_cutoff: ClassVar[int] = 400
    config_name: ClassVar[str] = "lens"

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("lens order p must be >= 2")
        super().__post_init__()

    @property
    def volume(self) -> float:
        return 2.0 * np.pi**2 * self.radius**3 / self.p

    @property
    def scalar_curvature(self) -> float:
        return 6.0 / self.radius**2

    def levels(self, model: "SpectralModel", cutoff: int) -> list[tuple[float, int]]:
        k_char = model.bundle.k if isinstance(model.bundle, LensCharacter) else 0
        t, rank = model.flux_shift, model.rank
        items = []
        for m in range(cutoff + 1):
            mp = rank * (m + 2) * lens_weight_count(m, k_char, self.p)
            mm = rank * (m + 1) * lens_weight_count(m + 1, k_char, self.p)
            if mp:
                items.append(((1.5 + m) / self.radius + t, mp))
            if mm:
                items.append((-(1.5 + m) / self.radius + t, mm))
        return items

    def branches(self, model: "SpectralModel"):
        k_char = model.bundle.k if isinstance(model.bundle, LensCharacter) else 0
        r, p, t, rank = self.radius, self.p, model.flux_shift, model.rank
        period = 2 * p
        out = []
        for rho in range(period):
            for branch, step_sign in (("+", 1.0), ("-", -1.0)):
                coeffs = _lens_class_poly(rho, period, k_char, p, branch, rank)
                if all(c == 0 for c in coeffs):
                    continue
                v0 = step_sign * (1.5 + rho) / r + t
                out.append((v0, step_sign * period / r, coeffs))
        return out

    def config(self) -> dict:
        return {**super().config(), "lens_p": self.p}

    @classmethod
    def from_config(cls, cfg) -> "Lens":
        return cls(p=int(cfg.require("lens_p")), radius=float(cfg.get("radius", 1.0)))


Geometry = Union[Circle, Sphere3, Torus3, Lens]
GEOMETRIES = {geo.config_name: geo for geo in (Circle, Sphere3, Torus3, Lens)}


@dataclass(frozen=True)
class SpectralModel:
    """A model geometry, a flat bundle on it, and a constant top-degree flux
    acting as ``t * I`` (eigenvalue shift ``+t``)."""

    geometry: Geometry
    bundle: Bundle = TrivialBundle(1)
    flux_shift: float = 0.0

    def __post_init__(self):
        if not isinstance(self.bundle, self.geometry.bundles):
            raise ValueError(
                f"{type(self.geometry).__name__} does not admit bundle "
                f"{type(self.bundle).__name__}"
            )
        if isinstance(self.bundle, LensCharacter) and self.bundle.p != self.geometry.p:
            raise ValueError("character order must match the lens order")
        if not isfinite(self.flux_shift):
            raise ValueError(f"flux must be finite, got {self.flux_shift!r}")

    @property
    def rank(self) -> int:
        return self.bundle.rank if isinstance(self.bundle, TrivialBundle) else 1

    def with_flux(self, t: float) -> "SpectralModel":
        return replace(self, flux_shift=float(t))

    def trivial_partner(self) -> "SpectralModel":
        """Same geometry and flux with the trivial line bundle (the reference
        operator entering the rho invariant)."""
        return SpectralModel(self.geometry, TrivialBundle(1), self.flux_shift)


class EigenItem(tuple):
    """(value, multiplicity) pair; plain tuple subclass for cheap sorting."""

    __slots__ = ()

    def __new__(cls, value: float, multiplicity: int):
        if multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        return super().__new__(cls, (float(value), int(multiplicity)))

    @property
    def value(self) -> float:
        return self[0]

    @property
    def multiplicity(self) -> int:
        return self[1]


def lens_weight_count(m: int, k: int, p: int) -> int:
    """Number of weights in ``{m, m-2, ..., -m}`` congruent to k mod p."""
    if m < 0:
        return 0
    return sum(1 for i in range(m + 1) if (m - 2 * i - k) % p == 0)


def _merge(items: list[tuple[float, int]]) -> list[EigenItem]:
    merged: dict[float, int] = {}
    for v, m in items:
        merged[v] = merged.get(v, 0) + m
    return [EigenItem(v, m) for v, m in sorted(merged.items())]


def _torus_modes(geometry: Torus3, bundle: Bundle, cutoff: int):
    """All lattice modes inside the largest complete shell for this cutoff.

    Returns (w-norm array, shell radius).  A box of half width cutoff+1 is
    enumerated and trimmed to ``|w| <= (cutoff + 1/2)/max(L)``, which is
    guaranteed to lie inside the box whatever the offsets are.  The trim is
    evaluated in scale-free coordinates (ratios ``max(L)/L_j``) so the mode
    set is identical under a uniform rescaling of all edge lengths.
    """
    theta = bundle.theta if isinstance(bundle, TorusHolonomy) else (0.0, 0.0, 0.0)
    delta = geometry.spin
    lengths = geometry.lengths
    lmax = max(lengths)
    ratio = [lmax / l for l in lengths]
    n = cutoff + 1
    rng = np.arange(-n, n + 1)
    v1, v2, v3 = np.meshgrid(rng, rng, rng, indexing="ij")
    scaled_w2 = ((v1 + delta[0] + theta[0]) * ratio[0]) ** 2 \
        + ((v2 + delta[1] + theta[1]) * ratio[1]) ** 2 \
        + ((v3 + delta[2] + theta[2]) * ratio[2]) ** 2
    scaled_w = np.sqrt(scaled_w2.ravel())
    keep = scaled_w <= cutoff + 0.5
    return scaled_w[keep] / lmax, (cutoff + 0.5) / lmax


def enumerate_spectrum(model: SpectralModel, cutoff: int) -> list[EigenItem]:
    """Eigenvalues with exact multiplicities, ascending, duplicates merged."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    return _merge(model.geometry.levels(model, cutoff))


class ZeroResolutionError(RuntimeError):
    """An eigenvalue sits too close to the kernel threshold to classify."""


def kernel_dimension(model: SpectralModel, cutoff: int, zero_tol: float = 1e-9) -> int:
    """Number of eigenvalues with ``|lambda| <= zero_tol``.

    Eigenvalues in the ambiguity band ``(zero_tol, 3 zero_tol]`` are flagged
    via :class:`ZeroResolutionError` instead of being silently rounded either
    way.
    """
    items = enumerate_spectrum(model, cutoff)
    if max(abs(v) for v, _ in items) <= 10 * zero_tol:
        raise ValueError("cutoff too small: no shell clears the zero tolerance")
    dim = 0
    for v, m in items:
        if abs(v) <= zero_tol:
            dim += m
        elif abs(v) <= 3 * zero_tol:
            raise ZeroResolutionError(
                f"eigenvalue {v!r} lies within 3x zero_tol of the threshold; "
                "refine zero_tol or move the flux off the kernel point"
            )
    return dim


# ---------------------------------------------------------------------------
# arithmetic-progression form of the exact spectra (Hurwitz engine input)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Progression:
    """Eigenvalue family ``sign * (offset + step * k)``, k >= 0, with a
    polynomial multiplicity ``m(k) = sum mult_coeffs[i] k^i``."""

    sign: int
    offset: float
    step: float
    mult_coeffs: tuple[float, ...]

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if self.offset <= 0 or self.step <= 0:
            raise ValueError("offset and step must be positive")

    def multiplicity(self, k: int) -> float:
        return sum(c * k**i for i, c in enumerate(self.mult_coeffs))


@dataclass(frozen=True)
class ProgressionSpectrum:
    """Full nonzero spectrum as progression families plus finitely many
    explicit eigenvalues, with the kernel dimension split off."""

    families: tuple[Progression, ...]
    extras: tuple[EigenItem, ...] = ()
    kernel_dim: int = 0


def _poly_shift(coeffs: list[float], j0: int) -> list[float]:
    """Coefficients of ``p(j + j0)`` given those of ``p(j)``."""
    from math import comb

    out = [0.0] * len(coeffs)
    for n, c in enumerate(coeffs):
        for i in range(n + 1):
            out[i] += c * comb(n, i) * j0 ** (n - i)
    return out


def _split_branch(value0: float, step: float, mult_coeffs: list[float],
                  zero_tol: float, max_explicit: int = 10_000):
    """Split the monotone family ``value0 + step*j`` (step of either sign)
    into explicit items on the wrong side of zero, kernel hits, and the
    infinite same-sign tail as a Progression."""
    extras: list[tuple[float, int]] = []
    kernel = 0
    j = 0
    while True:
        v = value0 + step * j
        if (step > 0 and v > zero_tol) or (step < 0 and v < -zero_tol):
            break
        mult = round(sum(c * j**i for i, c in enumerate(mult_coeffs)))
        if abs(v) <= zero_tol:
            kernel += mult
        elif mult:
            extras.append((v, mult))
        j += 1
        if j > max_explicit:
            raise ValueError("flux shift too large to fold the spectrum")
    sign = 1 if step > 0 else -1
    tail = Progression(
        sign=sign,
        offset=abs(value0 + step * j),
        step=abs(step),
        mult_coeffs=tuple(_poly_shift(mult_coeffs, j)),
    )
    return tail, extras, kernel


def _lens_class_poly(rho: int, period: int, k_char: int, p: int, branch: str,
                     rank: int) -> list[float]:
    """Multiplicity of the lens level ``m = rho + period*j`` as an exact
    polynomial in j (the weight count is exactly linear along the class)."""
    if branch == "+":
        counts = [lens_weight_count(rho + period * j, k_char, p) for j in range(4)]
        base, lin = rho + 2, period
    else:
        counts = [lens_weight_count(rho + period * j + 1, k_char, p) for j in range(4)]
        base, lin = rho + 1, period
    d1 = counts[1] - counts[0]
    if counts[2] - counts[1] != d1 or counts[3] - counts[2] != d1:
        raise AssertionError("weight count not linear along residue class")
    n0 = counts[0]
    # (base + lin*j) * (n0 + d1*j)
    return [rank * base * n0, rank * (base * d1 + lin * n0), rank * lin * d1]


def progression_spectrum(model: SpectralModel, zero_tol: float = 1e-9) -> ProgressionSpectrum:
    """Exact progression decomposition; circle, sphere and lens models only.

    Torus norms ``2 pi |v + delta + theta|`` are not arithmetic progressions,
    so torus models must use the heat engine.
    """
    families: list[Progression] = []
    extras: list[tuple[float, int]] = []
    kernel = 0
    for v0, step, mult_coeffs in model.geometry.branches(model):
        tail, ex, ker = _split_branch(v0, step, mult_coeffs, zero_tol)
        families.append(tail)
        extras.extend(ex)
        kernel += ker

    extra_items = tuple(EigenItem(v, m) for v, m in sorted(extras))
    return ProgressionSpectrum(tuple(families), extra_items, kernel)


# ---------------------------------------------------------------------------
# torus Fourier-mode operator with variable-coefficient 3-form flux
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusFlux:
    """Finite Fourier series of a real 3-form ``f(x) vol`` on the torus:
    ``f(x) = sum_u coeffs[u] exp(2 pi i (u_1 x_1/L_1 + ...))`` with the
    reality constraint ``coeffs[-u] == conj(coeffs[u])``."""

    coeffs: tuple[tuple[tuple[int, int, int], complex], ...]

    def __post_init__(self):
        table = dict(self.coeffs)
        for u, c in table.items():
            neg = (-u[0], -u[1], -u[2])
            if neg not in table or abs(table[neg] - np.conj(c)) > 1e-12 * (1 + abs(c)):
                raise ValueError(
                    "coefficient map is not hermitian-symmetric: form is not real-valued"
                )

    @classmethod
    def constant(cls, t: float) -> "TorusFlux":
        return cls((((0, 0, 0), complex(t)),))

    @classmethod
    def cosine(cls, axis: int, amplitude: float, harmonic: int = 1) -> "TorusFlux":
        """``amplitude * cos(2 pi harmonic x_axis / L_axis) vol``."""
        if axis not in (0, 1, 2):
            raise ValueError("axis must be 0, 1 or 2")
        u = [0, 0, 0]
        u[axis] = harmonic
        return cls((
            (tuple(u), amplitude / 2.0),
            (tuple(-x for x in u), amplitude / 2.0),
        ))

    def table(self) -> dict[tuple[int, int, int], complex]:
        return dict(self.coeffs)

    @property
    def bandwidth(self) -> int:
        return max((max(abs(x) for x in u) for u, _ in self.coeffs), default=0)

    def convolved(self) -> dict[tuple[int, int, int], complex]:
        """Fourier coefficients of ``f(x)^2``."""
        out: dict[tuple[int, int, int], complex] = {}
        t = self.table()
        for u1, c1 in t.items():
            for u2, c2 in t.items():
                key = (u1[0] + u2[0], u1[1] + u2[1], u1[2] + u2[2])
                out[key] = out.get(key, 0.0) + c1 * c2
        return out


@dataclass(frozen=True)
class ModeBlockOperator:
    """Twisted Dirac operator on the torus in the Fourier basis.

    ``matrix`` is Hermitian of size ``2 (2N+1)^3`` (CSR); mode ``v`` carries
    the free block ``2 pi sum_j w_j sigma_j`` and the flux couples ``v`` to
    ``v - u`` with ``coeff_u * I`` (the top-degree action is scalar).
    """

    cutoff: int
    modes: tuple[tuple[int, int, int], ...]
    matrix: sp.csr_matrix
    bandwidth: int
    w: np.ndarray  # (nmodes, 3) frequency vectors

    def index(self, v: tuple[int, int, int]) -> int:
        n = 2 * self.cutoff + 1
        return ((v[0] + self.cutoff) * n + (v[1] + self.cutoff)) * n + (v[2] + self.cutoff)

    def to_dense(self) -> np.ndarray:
        if self.matrix.shape[0] > 4100:
            raise ValueError("dense conversion guarded to cutoff <= 5")
        return self.matrix.toarray()

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.to_dense())

    def interior_indices(self, margin: int) -> np.ndarray:
        """Spinor-space indices of modes with ``|v|_inf <= cutoff - margin``."""
        keep = []
        for i, v in enumerate(self.modes):
            if max(abs(x) for x in v) <= self.cutoff - margin:
                keep.extend((2 * i, 2 * i + 1))
        return np.asarray(keep, dtype=int)


_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _assemble_blocks(geometry: Torus3, bundle: Bundle, cutoff: int,
                     diag_blocks, coupling: dict[tuple[int, int, int], np.ndarray]):
    """Generic block assembly: per-mode diagonal block plus translation-
    invariant coupling blocks."""
    theta = bundle.theta if isinstance(bundle, TorusHolonomy) else (0.0, 0.0, 0.0)
    delta = geometry.spin
    lengths = geometry.lengths
    rng = range(-cutoff, cutoff + 1)
    modes = tuple(itertools.product(rng, rng, rng))
    index = {v: i for i, v in enumerate(modes)}
    w = np.array([
        [(v[j] + delta[j] + theta[j]) / lengths[j] for j in range(3)] for v in modes
    ])
    nm = len(modes)
    rows, cols, data = [], [], []

    def put(i, j, block):
        for a in range(2):
            for b in range(2):
                val = block[a, b]
                if val != 0:
                    rows.append(2 * i + a)
                    cols.append(2 * j + b)
                    data.append(val)

    for i, v in enumerate(modes):
        put(i, i, diag_blocks(w[i]))
        for u, blk in coupling.items():
            tgt = (v[0] - u[0], v[1] - u[1], v[2] - u[2])
            j = index.get(tgt)
            if j is not None:
                put(i, j, blk)
    mat = sp.csr_matrix((data, (rows, cols)), shape=(2 * nm, 2 * nm), dtype=complex)
    return modes, mat, w


def build_torus_operator(geometry: Torus3, flux: TorusFlux, cutoff: int,
                         bundle: Bundle = TrivialBundle(1)) -> ModeBlockOperator:
    """Assemble ``D + c(H)`` for ``H = f(x) vol`` in the Fourier basis."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if not isinstance(bundle, (TrivialBundle, TorusHolonomy)):
        raise ValueError("torus admits trivial or holonomy bundles only")
    if isinstance(bundle, TrivialBundle) and bundle.rank != 1:
        raise ValueError("mode-block operator supports rank-1 bundles")

    def dirac_block(wv):
        return 2.0 * np.pi * sum(wv[j] * _PAULI[j] for j in range(3))

    eye = np.eye(2, dtype=complex)
    coupling = {u: c * eye for u, c in flux.table().items()}
    modes, mat, w = _assemble_blocks(geometry, bundle, cutoff, dirac_block, coupling)
    herm = abs(mat - mat.getH()).max()
    if herm > 1e-12:
        raise AssertionError(f"assembled operator not Hermitian: deviation {herm}")
    return ModeBlockOperator(cutoff=cutoff, modes=modes, matrix=mat,
                             bandwidth=flux.bandwidth, w=w)


def torus_twisted_derivative(geometry: Torus3, flux: TorusFlux, cutoff: int, axis: int,
                             bundle: Bundle = TrivialBundle(1)) -> sp.csr_matrix:
    """Skew-adjoint connection component ``d/dx_j + c(iota_{e_j} H)`` in the
    Fourier basis (the flux contraction acts as ``i f(x) sigma_j``)."""

    def diag(wv):
        return 2.0j * np.pi * wv[axis] * np.eye(2, dtype=complex)

    blk = 1.0j * _PAULI[axis]
    coupling = {u: c * blk for u, c in flux.table().items()}
    _, mat, _ = _assemble_blocks(geometry, bundle, cutoff, diag, coupling)
    return mat


def torus_multiplication_operator(geometry: Torus3, coeffs: dict[tuple[int, int, int], complex],
                                  cutoff: int, bundle: Bundle = TrivialBundle(1),
                                  block: np.ndarray | None = None) -> sp.csr_matrix:
    """Multiplication operator by the scalar Fourier series ``coeffs``, tensored
    with an optional constant 2x2 block (identity by default)."""
    blk = np.eye(2, dtype=complex) if block is None else block

    def diag(_):
        return coeffs.get((0, 0, 0), 0.0) * blk

    coupling = {u: c * blk for u, c in coeffs.items() if u != (0, 0, 0)}
    _, mat, _ = _assemble_blocks(geometry, bundle, cutoff, diag, coupling)
    return mat
