"""Exact spectra of twisted Dirac operators on model spin manifolds.

Supported geometries and their rank-1 spectra (radius/edge scaling
included); :func:`enumerate_spectrum` and :func:`progression_spectrum` add
the constant top-degree flux ``+t`` to every eigenvalue and multiply every
multiplicity by the bundle rank:

* ``Circle(r)`` with holonomy ``a``: ``(n + a)/r``, n in Z, multiplicity 1.
* ``Sphere3(r)``: ``+-(3/2 + k)/r``, multiplicity ``(k+1)(k+2)``.
* ``Torus3(L, spin)`` with holonomy ``theta``: ``+-2 pi |w|`` once each per
  lattice vector, ``w_j = (v_j + delta_j + theta_j)/L_j``.
* ``Lens(p, r)``: the sphere levels filtered by a character of the deck
  group Z/p acting by ``diag(eps, eps^-1)`` on SU(2) from the left with the
  trivial spin lift.  Level ``+(3/2+m)/r`` survives with multiplicity
  ``(m+2) * N(m, k)`` and ``-(3/2+m)/r`` with ``(m+1) * N(m+1, k)`` where
  ``N(m, k)`` counts weights ``{m, m-2, ..., -m}`` congruent to k mod p.
  N is linear along each class of m mod 2p (closed form in ``Lens.branches``).

Cutoff semantics are shell complete per geometry: circle |n| <= cutoff,
sphere/lens level index k <= cutoff, torus all modes inside the largest
fully-enumerated ball (radius ``(cutoff + 1/2)/max L``), so multiplicities
are never truncated inside a level.  :func:`enumerate_spectrum` returns one
``(n, 2)`` float64 array of ``[value, multiplicity]`` rows (multiplicities
are exact in float64), and ``|lambda| <= ZERO_TOL`` is a kernel mode.

``Torus3.lattice`` lays out the torus mode box and its shifted coordinates
for both the spectrum and the Fourier-mode operator.  ``_assemble_blocks``
writes that operator's CSR arrays shift by shift: the source modes of a
shift are a product of three index ranges, each nonzero entry of its
constant block fills one strided run of rows, and the shifts go in ascending
column order, so the matrix needs no sort.
It is the one runtime user of ``scipy.sparse`` and imports it on its first
call, so only a command that assembles a torus operator (``lw``) loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb, isfinite
from typing import TYPE_CHECKING, ClassVar, Sequence, Union

import numpy as np

from .clifford import FluxForm, _clifford_terms, _contract, build_gamma_rep

if TYPE_CHECKING:
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
    "ZERO_TOL",
    "enumerate_spectrum",
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
    character; 0 when trivial) and its config form (``config_name`` and
    ``from_config(cfg)``; ``BUNDLES`` maps names to classes)."""

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

    @classmethod
    def from_config(cls, cfg) -> "LensCharacter":
        return cls(p=int(cfg.require("lens_p")), k=int(cfg.require("character")))


Bundle = Union[TrivialBundle, CircleHolonomy, TorusHolonomy, LensCharacter]
BUNDLES = {b.config_name: b for b in (TrivialBundle, CircleHolonomy, TorusHolonomy, LensCharacter)}


# ---------------------------------------------------------------------------
# geometries
# ---------------------------------------------------------------------------
#
# Each geometry states the bare spectrum of the Dirac operator twisted by a
# rank-1 flat bundle with the given ``twist`` (holonomy or character), and
# nothing else: the flux shift ``+t`` and the bundle rank are applied once, by
# ``enumerate_spectrum`` and ``progression_spectrum``.
# ``levels(twist, cutoff)``: eigenvalue and multiplicity arrays of the
# shell-complete spectrum, not yet merged into distinct values.
# ``branches(twist)``: ``(v0, step, mult_coeffs)`` families ``v0 + step j``
# with multiplicity ``sum mult_coeffs[i] j^i``.
# ``from_config(cfg)``: the geometry a config describes.

class _Round:
    """Geometry with one length scale, ``radius``."""

    def __post_init__(self):
        if not (isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be finite and positive, got {self.radius!r}")

    def scaled(self, s: float):
        return replace(self, radius=self.radius * s)

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

    def levels(self, a: float, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
        n = np.arange(-cutoff, cutoff + 1)
        return (n + a) / self.radius, np.ones(n.size, dtype=np.int64)

    def branches(self, a: float):
        r = self.radius
        return [(a / r, 1.0 / r, [1.0]), ((a - 1.0) / r, -1.0 / r, [1.0])]


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

    def levels(self, twist: int, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
        k = np.arange(cutoff + 1)
        mult = (k + 1) * (k + 2)
        return (np.concatenate([(1.5 + k) / self.radius, -(1.5 + k) / self.radius]),
                np.concatenate([mult, mult]))

    def branches(self, twist: int):
        r = self.radius
        mult = [2.0, 3.0, 1.0]  # (k+1)(k+2)
        return [(1.5 / r, 1.0 / r, mult), (-1.5 / r, -1.0 / r, mult)]


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

    def lattice(self, theta, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The mode box ``[-n, n]^3`` as its axis values ``v = -n..n`` and the
        shifted coordinates ``x[j] = (v + delta_j) + theta_j`` per axis, shape
        ``(3, 2n+1)`` (spin offsets ``delta``, holonomy ``theta``).  Mode
        ``(v_0, v_1, v_2)`` has frequencies ``w_j = x[j, v_j + n]/L_j``.  The
        box is left to the caller: the spectrum needs only ``|w|`` on it."""
        v = np.arange(-n, n + 1)
        return v, (v + np.asarray(self.spin)[:, None]) + np.asarray(theta)[..., None]

    def levels(self, theta, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
        """All modes inside the largest complete shell for this cutoff.

        A box of half width cutoff+1 is enumerated and trimmed to ``|w| <=
        (cutoff + 1/2)/max(L)``, which lies inside the box whatever the
        offsets are.  The trim is evaluated in scale-free coordinates (ratios
        ``max(L)/L_j``) so the mode set is identical under a uniform
        rescaling of all edge lengths.
        """
        lmax = max(self.lengths)
        _, x = self.lattice(theta, cutoff + 1)
        y2 = (x * np.array([[lmax / l] for l in self.lengths])) ** 2
        scaled_w = np.sqrt((y2[0, :, None, None] + y2[1, None, :, None]
                            + y2[2, None, None, :]).ravel())
        # equal |w| are merged here: x -> x + t is monotone, and _merge absorbs
        # the values the flux shift makes collide (and w = 0, where the pair
        # +-2 pi |w| meets)
        scaled_w, count = np.unique(scaled_w[scaled_w <= cutoff + 0.5], return_counts=True)
        x = 2.0 * np.pi * (scaled_w / lmax)
        return np.concatenate([x, -x]), np.concatenate([count, count])

    def branches(self, theta):
        raise ValueError(
            "torus spectra are not arithmetic progressions; use the heat engine"
        )

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

    def levels(self, k_char: int, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
        m = np.arange(cutoff + 1)
        level = (1.5 + m) / self.radius
        # per level m the + eigenvalue, then the - one; empty ones dropped
        values = np.stack([level, -level], axis=1)
        mults = np.stack([(m + 2) * lens_weight_count(m, k_char, self.p),
                          (m + 1) * lens_weight_count(m + 1, k_char, self.p)], axis=1)
        keep = mults != 0
        return values[keep], mults[keep]

    def branches(self, k_char: int):
        # class m = rho + 2p j: (base + 2p j) N(m', k) with m' = m on the +
        # branch and m + 1 on the -; along it N grows by 2g per step when
        # g = gcd(2, p) divides m' - k (the 2p new weights at each end hit
        # every such residue g times) and stays 0 otherwise
        r, p = self.radius, self.p
        period = 2 * p
        g = 2 if p % 2 == 0 else 1
        out = []
        for rho in range(period):
            for shift, step_sign in ((0, 1.0), (1, -1.0)):
                m, base = rho + shift, rho + 2 - shift
                n0 = lens_weight_count(m, k_char, p)
                d1 = 2 * g if (m - k_char) % g == 0 else 0
                coeffs = [base * n0, base * d1 + period * n0, period * d1]
                if all(c == 0 for c in coeffs):
                    continue
                v0 = step_sign * (1.5 + rho) / r
                out.append((v0, step_sign * period / r, coeffs))
        return out

    @classmethod
    def from_config(cls, cfg) -> "Lens":
        return cls(p=int(cfg.require("lens_p")), radius=float(cfg.get("radius", 1.0)))


Geometry = Union[Circle, Sphere3, Torus3, Lens]
GEOMETRIES = {geo.config_name: geo for geo in (Circle, Sphere3, Torus3, Lens)}

# kernel threshold: |lambda| <= ZERO_TOL counts as a zero mode
ZERO_TOL = 1e-9


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


def lens_weight_count(m, k: int, p: int):
    """Number of weights in ``{m, m-2, ..., -m}`` congruent to k mod p, for an
    integer ``m`` or an integer array of them (0 where ``m < 0``).

    Weight ``m - 2i`` qualifies when ``2i = m - k (mod p)``.  With
    ``g = gcd(2, p)`` that has solutions only when g divides ``m - k``, namely
    ``i = i0 (mod p/g)``; the count is those with ``0 <= i <= m``.
    """
    g = 2 if p % 2 == 0 else 1
    q = p // g
    d = m - k
    i0 = (d // g) * pow(2 // g, -1, q) % q
    return ((d % g == 0) & (m >= i0)) * ((m - i0) // q + 1)


def _merge(values, mults) -> tuple[np.ndarray, np.ndarray]:
    """Distinct eigenvalues, ascending, with their summed multiplicities."""
    distinct, inverse = np.unique(np.asarray(values, dtype=float), return_inverse=True)
    return distinct, np.bincount(inverse, weights=mults).astype(np.int64)


def _check_multiplicities(mults):
    """Raise ``ValueError`` unless every multiplicity is a positive integer."""
    m = np.asarray(mults, dtype=float)
    if np.any(~(m >= 1) | (m != np.round(m))):
        raise ValueError("multiplicities must be positive integers")


def enumerate_spectrum(model: SpectralModel, cutoff: int) -> np.ndarray:
    """Distinct eigenvalues with exact multiplicities: an ``(n, 2)`` float64
    array of ``[value, multiplicity]`` rows, values strictly ascending.  The
    flux shifts the geometry's levels, and the rank scales their
    multiplicities, here."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    values, mults = model.geometry.levels(model.bundle.twist, cutoff)
    return np.column_stack(_merge(values + model.flux_shift, model.rank * mults))


# ---------------------------------------------------------------------------
# arithmetic-progression form of the exact spectra (Hurwitz engine input)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Progression:
    """Eigenvalue family ``sign * (offset + step * k)``, k >= 0, with a
    polynomial multiplicity ``m(k) = sum mult_coeffs[i] k^i``, checked to be
    a non-negative integer at ``k = 0 .. deg + 1``."""

    sign: int
    offset: float
    step: float
    mult_coeffs: tuple[float, ...]

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if self.offset <= 0 or self.step <= 0:
            raise ValueError("offset and step must be positive")
        for k in range(len(self.mult_coeffs) + 2):
            v = self.multiplicity(k)
            if abs(v - round(v)) > 1e-6 * max(1.0, abs(v)):
                raise ValueError(f"multiplicity polynomial is not integer-valued at k={k}")
            if round(v) < 0:
                raise ValueError(f"multiplicity polynomial is negative at k={k}")

    def multiplicity(self, k: int) -> float:
        return sum(c * k**i for i, c in enumerate(self.mult_coeffs))


@dataclass(frozen=True)
class ProgressionSpectrum:
    """Full nonzero spectrum as progression families plus finitely many
    explicit ``(value, multiplicity)`` pairs, with the kernel dimension split
    off."""

    families: tuple[Progression, ...]
    extras: tuple[tuple[float, int], ...] = ()
    kernel_dim: int = 0

    def __post_init__(self):
        _check_multiplicities([m for _, m in self.extras])


def _poly_shift(coeffs: Sequence[float], j0: float) -> list[float]:
    """Coefficients of ``p(j + j0)`` given those of ``p(j)``."""
    out = [0.0] * len(coeffs)
    for n, c in enumerate(coeffs):
        for i in range(n + 1):
            out[i] += c * comb(n, i) * j0 ** (n - i)
    return out


# explicit eigenvalues a flux may push across zero before folding gives up
_MAX_EXPLICIT = 10_000


def _split_branch(value0: float, step: float, mult_coeffs: list[float]):
    """Split the monotone family ``value0 + step*j`` (step of either sign)
    into explicit items on the wrong side of zero, kernel hits, and the
    infinite same-sign tail as a Progression."""
    extras: list[tuple[float, int]] = []
    kernel = 0
    j = 0
    while True:
        v = value0 + step * j
        if (step > 0 and v > ZERO_TOL) or (step < 0 and v < -ZERO_TOL):
            break
        mult = round(sum(c * j**i for i, c in enumerate(mult_coeffs)))
        if abs(v) <= ZERO_TOL:
            kernel += mult
        elif mult:
            extras.append((v, mult))
        j += 1
        if j > _MAX_EXPLICIT:
            raise ValueError("flux shift too large to fold the spectrum")
    sign = 1 if step > 0 else -1
    tail = Progression(
        sign=sign,
        offset=abs(value0 + step * j),
        step=abs(step),
        mult_coeffs=tuple(_poly_shift(mult_coeffs, j)),
    )
    return tail, extras, kernel


def progression_spectrum(model: SpectralModel) -> ProgressionSpectrum:
    """Exact progression decomposition; circle, sphere and lens models only.

    Torus norms ``2 pi |v + delta + theta|`` are not arithmetic progressions,
    so torus models must use the heat engine.
    """
    t, rank = model.flux_shift, model.rank
    families: list[Progression] = []
    extras: list[tuple[float, int]] = []
    kernel = 0
    for v0, step, coeffs in model.geometry.branches(model.bundle.twist):
        tail, ex, ker = _split_branch(v0 + t, step, [rank * c for c in coeffs])
        families.append(tail)
        extras.extend(ex)
        kernel += ker
    return ProgressionSpectrum(tuple(families), tuple(sorted(extras)), kernel)


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
        if len(table) != len(self.coeffs):
            raise ValueError(f"wave vectors must be distinct, got {[u for u, _ in self.coeffs]}")
        for u, c in table.items():
            if not np.isfinite(c):
                raise ValueError(f"coefficient of wave vector {u} must be finite, got {c!r}")
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
    the free block ``sum_j c(e_j) 2 pi i w_j = 2 pi sum_j w_j sigma_j`` and
    the flux couples ``v`` to ``v - u`` with ``coeff_u * c(H)`` for the unit
    top-degree ``H = vol``, which acts as the identity.
    """

    cutoff: int
    modes: np.ndarray  # (nmodes, 3) lattice vectors, first index slowest
    matrix: sp.csr_matrix

    def interior_indices(self, margin: int) -> np.ndarray:
        """Spinor-space indices of modes with ``|v|_inf <= cutoff - margin``."""
        interior = np.abs(self.modes).max(axis=1) <= self.cutoff - margin
        return np.flatnonzero(np.repeat(interior, 2))


def _unit_top_form():
    """``build_gamma_rep(3)`` and the terms of the unit top form ``vol``, the
    Clifford data of every torus operator, built per call, not at import."""
    return build_gamma_rep(3), FluxForm.top(3, 1.0).complex_terms()


def _assemble_blocks(geometry: Torus3, theta, cutoff: int,
                     grad: dict[int, np.ndarray], coupling: dict[tuple[int, int, int], np.ndarray]):
    """Block operator on the mode box of ``geometry.lattice``: mode ``v``
    carries ``sum_j 2 pi i w_j grad[j]`` (``d/dx_j`` acts on mode ``v`` as
    ``2 pi i w_j``, ``w`` its frequencies) and couples to ``v - u`` by the
    constant block ``coupling[u]`` when that mode is in the box.  The zero
    shift adds into the diagonal block.

    The CSR arrays are written shift by shift.  The box index ``i`` is linear
    in ``v``, so shift ``u`` sends ``i`` to ``i - off`` for a fixed ``off``,
    and its source modes are the product of three 1-D index ranges.  Each
    nonzero entry ``c`` of its constant block at ``(a, b)`` becomes ``(2i + a,
    2(i - off) + b, c)``; only the ``w``-dependent diagonal needs a data mask.
    The shifts are written in descending ``off`` (the diagonal at 0), so the
    columns of every row ascend and the matrix needs no sort.  Exact zeros
    are skipped."""
    import scipy.sparse as sp  # deferred: no other command needs scipy

    v, x = geometry.lattice(theta, cutoff)
    side = 2 * cutoff + 1
    nm, box = side**3, (side, side, side)

    def on_box(axis_values):
        # (nm, 3) array whose column j is axis_values[j] along box axis j
        out = np.empty(box + (3,), dtype=axis_values.dtype)
        for j in range(3):
            out[..., j] = axis_values[j].reshape([side if k == j else 1 for k in range(3)])
        return out.reshape(nm, 3)

    modes = on_box(np.broadcast_to(v, (3, side)))
    zero = np.asarray(coupling.get((0, 0, 0), np.zeros((2, 2))), dtype=complex)
    if grad:
        symbol = 2.0j * np.pi * on_box(x / np.asarray(geometry.lengths)[:, None])
        diag = sum(symbol[:, j, None, None] * blk for j, blk in grad.items())
        diag_mask = diag != 0
        # the nonzero one of the two, or their sum where both are nonzero
        diag = np.where(diag_mask, np.where(zero != 0, diag + zero, diag), zero)
        diag_mask |= zero != 0
    else:  # a constant diagonal: broadcast, not materialised
        diag = np.broadcast_to(zero, (nm, 2, 2))
        diag_mask = np.broadcast_to(zero != 0, (nm, 2, 2))
    pieces = [(0, None, None)]  # (off, source ranges, block); None: the diagonal
    for u, blk in coupling.items():
        ranges = tuple(slice(max(0, k), min(side, side + k)) for k in u)
        if any(u) and all(r.start < r.stop for r in ranges):
            pieces.append(((u[0] * side + u[1]) * side + u[2], ranges, blk))
    pieces.sort(key=lambda piece: -piece[0])

    # entries and next free slot of row 2i + a, held as [a][i] on the box
    count = (diag_mask[..., 0].astype(np.int64) + diag_mask[..., 1]).T.reshape((2,) + box)
    for _, ranges, blk in pieces:
        if blk is not None:
            for a in range(2):
                count[a][ranges] += np.count_nonzero(blk[a])
    indptr = np.zeros(2 * nm + 1, dtype=np.int64)
    np.cumsum(count.reshape(2, nm).T.ravel(), out=indptr[1:])
    cursor = np.ascontiguousarray(indptr[:-1].reshape(nm, 2).T).reshape((2,) + box)
    nnz = int(indptr[-1])
    idx_dtype = np.int32 if max(nnz, 2 * nm) <= np.iinfo(np.int32).max else np.int64
    indices = np.empty(nnz, dtype=idx_dtype)
    data = np.empty(nnz, dtype=complex)
    index = np.arange(nm)

    for off, ranges, blk in pieces:
        if blk is None:
            for a in range(2):
                slot = cursor[a].reshape(nm)
                for b in range(2):
                    m = diag_mask[:, a, b]
                    pos = slot[m]
                    indices[pos] = 2 * index[m] + b
                    data[pos] = diag[:, a, b][m]
                    slot += m
            continue
        cols = 2 * (index.reshape(box)[ranges].ravel() - off)
        for a in range(2):
            pos = cursor[a][ranges].flatten()  # a copy: cursor moves below
            for b in np.flatnonzero(blk[a]):
                indices[pos] = cols + b
                data[pos] = blk[a, b]
                pos += 1
            cursor[a][ranges] += np.count_nonzero(blk[a])
    mat = sp.csr_matrix((data, indices, indptr.astype(idx_dtype)), shape=(2 * nm, 2 * nm))
    return modes, mat


def build_torus_operator(geometry: Torus3, flux: TorusFlux, cutoff: int,
                         bundle: Bundle = TrivialBundle(1)) -> ModeBlockOperator:
    """Assemble ``D + c(H)`` for ``H = f(x) vol`` in the Fourier basis."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    bundle.check(geometry)
    if bundle.rank != 1:
        raise ValueError("mode-block operator supports rank-1 bundles")

    rep, vol = _unit_top_form()
    c_vol = _clifford_terms(rep, vol)  # the identity
    coupling = {u: c * c_vol for u, c in flux.table().items()}
    grad = dict(enumerate(rep.gammas))  # D = sum_j c(e_j) d_j
    modes, mat = _assemble_blocks(geometry, bundle.twist, cutoff, grad, coupling)
    herm = abs(mat - mat.getH()).max()
    if not herm <= 1e-12:  # NaN fails too
        raise AssertionError(f"assembled operator not Hermitian: deviation {herm}")
    return ModeBlockOperator(cutoff=cutoff, modes=modes, matrix=mat)


def torus_twisted_derivative(geometry: Torus3, flux: TorusFlux, cutoff: int, axis: int,
                             bundle: Bundle = TrivialBundle(1)) -> sp.csr_matrix:
    """Skew-adjoint connection component ``d/dx_j + c(iota_{e_j} H)`` in the
    Fourier basis (the flux contraction acts as ``f(x) c(iota_{e_j} vol)``)."""
    rep, vol = _unit_top_form()
    blk = _clifford_terms(rep, _contract(vol, axis))  # i sigma_j
    coupling = {u: c * blk for u, c in flux.table().items()}
    _, mat = _assemble_blocks(geometry, bundle.twist, cutoff,
                              {axis: np.eye(2, dtype=complex)}, coupling)
    return mat


def torus_multiplication_operator(geometry: Torus3, coeffs: dict[tuple[int, int, int], complex],
                                  cutoff: int, bundle: Bundle = TrivialBundle(1),
                                  block: np.ndarray | None = None) -> sp.csr_matrix:
    """Multiplication operator by the scalar Fourier series ``coeffs``, tensored
    with an optional constant 2x2 block (identity by default)."""
    blk = np.eye(2, dtype=complex) if block is None else block
    _, mat = _assemble_blocks(geometry, bundle.twist, cutoff, {},
                              {u: c * blk for u, c in coeffs.items()})
    return mat
