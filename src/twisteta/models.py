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

``Torus3.lattice`` lays out the torus mode box and its shifted coordinates
for both the spectrum and the Fourier-mode operator, whose COO triplets
``_assemble_blocks`` builds with array index arithmetic, one shift at a time.
"""

from __future__ import annotations

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
    "BUNDLES",
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

class _Flat:
    """Flat bundle: its ``rank``, its ``twist`` of the spectrum (holonomy or
    character; 0 when trivial) and its config form (``config_name``,
    ``config()``, ``from_config(cfg)``; ``BUNDLES`` maps names to classes)."""

    rank: ClassVar[int] = 1

    def check(self, geometry):
        """Raise ``ValueError`` unless ``geometry`` admits this bundle."""
        if not isinstance(self, geometry.bundles):
            raise ValueError(
                f"{type(geometry).__name__} does not admit bundle {type(self).__name__}"
            )


@dataclass(frozen=True)
class TrivialBundle(_Flat):
    rank: int = 1

    config_name: ClassVar[str] = "trivial"
    twist: ClassVar[int] = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be a positive integer")

    def config(self) -> dict:
        return {"bundle": self.config_name, "rank": self.rank}

    @classmethod
    def from_config(cls, cfg) -> "TrivialBundle":
        return cls(rank=int(cfg.get("rank", 1)))


@dataclass(frozen=True)
class CircleHolonomy(_Flat):
    a: float

    config_name: ClassVar[str] = "circle_holonomy"

    def __post_init__(self):
        if not 0.0 <= self.a < 1.0:
            raise ValueError("holonomy parameter must lie in [0, 1)")

    @property
    def twist(self) -> float:
        return self.a

    def config(self) -> dict:
        return {"bundle": self.config_name, "holonomy": repr(self.a)}

    @classmethod
    def from_config(cls, cfg) -> "CircleHolonomy":
        return cls(a=float(cfg.require("holonomy")))


@dataclass(frozen=True)
class TorusHolonomy(_Flat):
    theta: tuple[float, float, float]

    config_name: ClassVar[str] = "torus_holonomy"

    def __post_init__(self):
        if len(self.theta) != 3 or any(not 0.0 <= x < 1.0 for x in self.theta):
            raise ValueError("holonomy parameters must lie in [0, 1)^3")

    @property
    def twist(self) -> tuple[float, float, float]:
        return self.theta

    def config(self) -> dict:
        return {"bundle": self.config_name, "holonomy": ",".join(repr(x) for x in self.theta)}

    @classmethod
    def from_config(cls, cfg) -> "TorusHolonomy":
        return cls(theta=tuple(cfg.floats("holonomy")))


@dataclass(frozen=True)
class LensCharacter(_Flat):
    p: int
    k: int

    config_name: ClassVar[str] = "lens_character"

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("lens order p must be >= 2")
        if not 0 <= self.k < self.p:
            raise ValueError("character index must satisfy 0 <= k < p")

    @property
    def twist(self) -> int:
        return self.k

    def check(self, geometry):
        super().check(geometry)
        if self.p != geometry.p:
            raise ValueError("character order must match the lens order")

    def config(self) -> dict:
        return {"bundle": self.config_name, "lens_p": self.p, "character": self.k}

    @classmethod
    def from_config(cls, cfg) -> "LensCharacter":
        return cls(p=int(cfg.require("lens_p")), k=int(cfg.require("character")))


Bundle = Union[TrivialBundle, CircleHolonomy, TorusHolonomy, LensCharacter]
BUNDLES = {b.config_name: b for b in (TrivialBundle, CircleHolonomy, TorusHolonomy, LensCharacter)}


# ---------------------------------------------------------------------------
# geometries
# ---------------------------------------------------------------------------
#
# ``levels(model, cutoff)``: unmerged eigenvalue and multiplicity arrays of
# the shell-complete spectrum.  ``branches(model)``: ``(v0, step, mult_coeffs)``
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

    def levels(self, model: "SpectralModel", cutoff: int) -> tuple[np.ndarray, np.ndarray]:
        a, t, rank = model.bundle.twist, model.flux_shift, model.rank
        n = np.arange(-cutoff, cutoff + 1)
        return (n + a) / self.radius + t, np.full(n.size, rank)

    def branches(self, model: "SpectralModel"):
        a, r, t, rank = model.bundle.twist, self.radius, model.flux_shift, model.rank
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

    def levels(self, model: "SpectralModel", cutoff: int) -> tuple[np.ndarray, np.ndarray]:
        t, rank = model.flux_shift, model.rank
        k = np.arange(cutoff + 1)
        mult = rank * (k + 1) * (k + 2)
        return (np.concatenate([(1.5 + k) / self.radius + t, -(1.5 + k) / self.radius + t]),
                np.concatenate([mult, mult]))

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

    def lattice(self, bundle: "Bundle", n: int) -> tuple[np.ndarray, np.ndarray]:
        """The mode box ``[-n, n]^3`` as its axis values ``v = -n..n`` and the
        shifted coordinates ``x[j] = (v + delta_j) + theta_j`` per axis, shape
        ``(3, 2n+1)`` (spin offsets ``delta``, holonomy ``theta``).  Mode
        ``(v_0, v_1, v_2)`` has frequencies ``w_j = x[j, v_j + n]/L_j``.  The
        box is left to the caller: the spectrum needs only ``|w|`` on it."""
        v = np.arange(-n, n + 1)
        return v, (v + np.asarray(self.spin)[:, None]) + np.asarray(bundle.twist)[..., None]

    def levels(self, model: "SpectralModel", cutoff: int) -> tuple[np.ndarray, np.ndarray]:
        """All modes inside the largest complete shell for this cutoff.

        A box of half width cutoff+1 is enumerated and trimmed to ``|w| <=
        (cutoff + 1/2)/max(L)``, which lies inside the box whatever the
        offsets are.  The trim is evaluated in scale-free coordinates (ratios
        ``max(L)/L_j``) so the mode set is identical under a uniform
        rescaling of all edge lengths.
        """
        t, rank = model.flux_shift, model.rank
        lmax = max(self.lengths)
        _, x = self.lattice(model.bundle, cutoff + 1)
        y2 = (x * np.array([[lmax / l] for l in self.lengths])) ** 2
        scaled_w = np.sqrt((y2[0, :, None, None] + y2[1, None, :, None]
                            + y2[2, None, None, :]).ravel())
        w = scaled_w[scaled_w <= cutoff + 0.5] / lmax
        x = 2.0 * np.pi * w
        x = x[x != 0.0]
        zero_modes = w.size - x.size  # w = 0: the pair +-2 pi |w| meets at t
        values = np.concatenate([x + t, -x + t, np.full(zero_modes, t)])
        mults = np.concatenate([np.full(2 * x.size, rank), np.full(zero_modes, 2 * rank)])
        return values, mults

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

    def levels(self, model: "SpectralModel", cutoff: int) -> tuple[np.ndarray, np.ndarray]:
        k_char, t, rank = model.bundle.twist, model.flux_shift, model.rank
        values, mults = [], []
        for m in range(cutoff + 1):
            mp = rank * (m + 2) * lens_weight_count(m, k_char, self.p)
            mm = rank * (m + 1) * lens_weight_count(m + 1, k_char, self.p)
            if mp:
                values.append((1.5 + m) / self.radius + t)
                mults.append(mp)
            if mm:
                values.append(-(1.5 + m) / self.radius + t)
                mults.append(mm)
        return np.array(values, dtype=float), np.array(mults, dtype=np.int64)

    def branches(self, model: "SpectralModel"):
        k_char, r, p = model.bundle.twist, self.radius, self.p
        t, rank = model.flux_shift, model.rank
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
        self.bundle.check(self.geometry)
        if not isfinite(self.flux_shift):
            raise ValueError(f"flux must be finite, got {self.flux_shift!r}")

    @property
    def rank(self) -> int:
        return self.bundle.rank

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


def _merge(values, mults) -> tuple[np.ndarray, np.ndarray]:
    """Distinct eigenvalues, ascending, with their summed multiplicities."""
    distinct, inverse = np.unique(np.asarray(values, dtype=float), return_inverse=True)
    return distinct, np.bincount(inverse, weights=mults).astype(np.int64)


def enumerate_spectrum(model: SpectralModel, cutoff: int) -> list[EigenItem]:
    """Eigenvalues with exact multiplicities, ascending, duplicates merged."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    values, mults = _merge(*model.geometry.levels(model, cutoff))
    return [EigenItem(v, m) for v, m in zip(values.tolist(), mults.tolist())]


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
    modes: np.ndarray  # (nmodes, 3) lattice vectors, first index slowest
    matrix: sp.csr_matrix
    bandwidth: int
    w: np.ndarray  # (nmodes, 3) frequency vectors

    def index(self, v: tuple[int, int, int]) -> int:
        n = 2 * self.cutoff + 1
        return ((v[0] + self.cutoff) * n + (v[1] + self.cutoff)) * n + (v[2] + self.cutoff)

    def interior_indices(self, margin: int) -> np.ndarray:
        """Spinor-space indices of modes with ``|v|_inf <= cutoff - margin``."""
        interior = np.abs(self.modes).max(axis=1) <= self.cutoff - margin
        return np.flatnonzero(np.repeat(interior, 2))


_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _assemble_blocks(geometry: Torus3, bundle: Bundle, cutoff: int,
                     diag_blocks, coupling: dict[tuple[int, int, int], np.ndarray]):
    """Block operator on the mode box of ``geometry.lattice``: mode ``v``
    carries ``diag_blocks(w)`` (``w`` the ``(nm, 3)`` frequencies, blocks
    ``(nm, 2, 2)``) and couples to ``v - u`` by ``coupling[u]`` when that
    mode is in the box.  The COO entries run mode by mode (diagonal block,
    then each shift in ``coupling`` order, each block row-major) with exact
    zeros skipped."""
    v, x = geometry.lattice(bundle, cutoff)
    modes = np.stack(np.meshgrid(v, v, v, indexing="ij"), axis=-1).reshape(-1, 3)
    w = x[np.arange(3), modes + cutoff] / np.asarray(geometry.lengths)
    nm, side = len(modes), 2 * cutoff + 1
    blocks = np.empty((nm, 1 + len(coupling), 2, 2), dtype=complex)
    target = np.empty((nm, 1 + len(coupling)), dtype=np.int64)
    inside = np.ones(target.shape, dtype=bool)
    blocks[:, 0] = diag_blocks(w)
    target[:, 0] = np.arange(nm)
    for k, (u, blk) in enumerate(coupling.items(), start=1):
        blocks[:, k] = blk
        # the box index is linear in v, so v - u sits a fixed offset away
        target[:, k] = target[:, 0] - ((u[0] * side + u[1]) * side + u[2])
        inside[:, k] = np.all(np.abs(modes - np.asarray(u)) <= cutoff, axis=1)
    keep = inside[:, :, None, None] & (blocks != 0)
    ab = np.arange(2)
    rows = np.broadcast_to(2 * target[:, :1, None, None] + ab[:, None], keep.shape)
    cols = np.broadcast_to(2 * target[:, :, None, None] + ab, keep.shape)
    mat = sp.csr_matrix((blocks[keep], (rows[keep], cols[keep])),
                        shape=(2 * nm, 2 * nm), dtype=complex)
    return modes, mat, w


def build_torus_operator(geometry: Torus3, flux: TorusFlux, cutoff: int,
                         bundle: Bundle = TrivialBundle(1)) -> ModeBlockOperator:
    """Assemble ``D + c(H)`` for ``H = f(x) vol`` in the Fourier basis."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    bundle.check(geometry)
    if bundle.rank != 1:
        raise ValueError("mode-block operator supports rank-1 bundles")

    def dirac_blocks(w):
        return 2.0 * np.pi * sum(w[:, j, None, None] * _PAULI[j] for j in range(3))

    eye = np.eye(2, dtype=complex)
    coupling = {u: c * eye for u, c in flux.table().items()}
    modes, mat, w = _assemble_blocks(geometry, bundle, cutoff, dirac_blocks, coupling)
    herm = abs(mat - mat.getH()).max()
    if herm > 1e-12:
        raise AssertionError(f"assembled operator not Hermitian: deviation {herm}")
    return ModeBlockOperator(cutoff=cutoff, modes=modes, matrix=mat,
                             bandwidth=flux.bandwidth, w=w)


def torus_twisted_derivative(geometry: Torus3, flux: TorusFlux, cutoff: int, axis: int,
                             bundle: Bundle = TrivialBundle(1)) -> sp.csr_matrix:
    """Skew-adjoint connection component ``d/dx_j + c(iota_{e_j} H)`` in the
    Fourier basis (the flux contraction acts as ``i f(x) sigma_j``)."""

    def diag(w):
        return (2.0j * np.pi * w[:, axis])[:, None, None] * np.eye(2, dtype=complex)

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

    def diag(w):
        return np.broadcast_to(coeffs.get((0, 0, 0), 0.0) * blk, (len(w), 2, 2))

    coupling = {u: c * blk for u, c in coeffs.items() if u != (0, 0, 0)}
    _, mat, _ = _assemble_blocks(geometry, bundle, cutoff, diag, coupling)
    return mat
