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
  N is linear along each class of m mod 2p (closed form in ``Lens.branches``),
  so each class is one branch with a quadratic multiplicity.

:func:`progression_spectrum` gives each branch as one family at its
flux-shifted offset, of either sign.  Everything about a family that depends
on neither radius nor flux (sign, first value and step at radius 1, the
multiplicity polynomial, checked to be a non-negative integer at ``k = 0 ..
deg + 1``, and the two exact polynomials the Hurwitz engine evaluates) sits
in a family table, built once per geometry class, lens order and twist and
kept in a bounded cache: every scale of a conformal sweep and every flux of
a specflow sweep reads one table.  The Hurwitz engine only divides by the
radius and adds the flux, the float operations ``branches`` would do at that
radius, for every point of a sweep at once; the checks that depend on them
run per point.

Cutoff semantics are shell complete per geometry: circle |n| <= cutoff,
sphere/lens level index k <= cutoff, torus all modes inside the largest
fully-enumerated ball (radius ``(cutoff + 1/2)/max L``), so multiplicities
are never truncated inside a level.  :func:`enumerate_spectrum` returns one
``(n, 2)`` float64 array of ``[value, multiplicity]`` rows (multiplicities
are exact in float64), and ``|lambda| <= ZERO_TOL`` is a kernel mode.

``Torus3.lattice`` lays out the torus mode box and its shifted coordinates
for both the spectrum and the Fourier-mode operator.  A ``TorusSymbol`` holds
an operator's block data: a constant 2x2 block per Fourier shift and the
four entries of the diagonal block, each an array over only the box axes it
depends on.  The LW check works on symbols.  ``_assemble_blocks`` broadcasts
the entries to the box and writes a symbol's CSR arrays shift by shift for
the sparse builders (``build_torus_operator``, ``torus_twisted_derivative``,
``torus_multiplication_operator``) in column order, with no sort.  The
builders are not API: they are the tests' reference for the LW check, and no
command calls them.  They are the one user of ``scipy.sparse``, which they
import on their first call, so scipy is a test dependency only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from fractions import Fraction
from math import comb, inf, isfinite, lcm
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
    "ProgressionSpectrum",
    "progression_spectrum",
    "TorusFlux",
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


# kernel threshold: |lambda| <= ZERO_TOL counts as a zero mode
ZERO_TOL = 1e-9
# the largest radius or torus edge: the spectral unit, 1/radius or 1/max L,
# stays at least 1e3 ZERO_TOL, so no level falls into the kernel threshold
MAX_LENGTH = 1e6
# the most levels of a heat pass's shell, its cutoff given or derived, and of a
# finite tail bound
SHELL_BUDGET = 1 << 20
_EPS = float(np.finfo(float).eps)
_SQRT_PI = float(np.sqrt(np.pi))


# ---------------------------------------------------------------------------
# small-time heat data
# ---------------------------------------------------------------------------
#
# The odd heat trace of D + t at rank 1 is S(s) = weyl_coefficient t s^(-3/2)
# + E(s), and per unit rank ``heat_remainder(T, t)`` bounds int_0^T s^(-1/2)
# |E| ds, ``heat_tail(T, t, cutoff)`` what the modes past the cutoff add to
# int_T^inf s^(-1/2) S ds (README, "Engine notes", derives both).  A Poisson
# frequency omega's term integrates exactly, int_0^T s^(-1-j) exp(-omega^2/
# (4s)) ds = (4/omega^2)^j Gamma(j, omega^2/(4T)), and ``_ray`` sums them.

def _ray(z, a, q: int):
    """Bound on ``sum_{m>=0} (a + m)^q exp(-z (a + m)^2)``, ``0 < a <= 1``, ``q <=
    1``: ``(a + m)^2 - a^2 >= (2a + 1) m``, so the terms fall as ``Q^m``, ``Q =
    exp(-(2a + 1) z)``, after ``(a + m)^q <= a^q`` (or, at q = 1, exactly)."""
    one_minus_q = -np.expm1(-(2 * a + 1) * z)
    head = np.exp(-z * a * a)
    if q <= 0:
        return a**q * head / one_minus_q
    return head * (a / one_minus_q + (1 - one_minus_q) / one_minus_q**2)


def _round_remainder(T: float, r: float, t: float, a: float) -> float:
    """The terms of ``x^2 - 1/4`` over ``x in Z + 1/2`` at ``omega = +-2 pi r (a +
    m)`` (``a = 1``: the sphere; ``1/2``: the lens's antipodal map), as bounded
    in the return line, times ``r sqrt(pi) exp(-omega^2/(4T))`` each."""
    w = 2.0 * np.pi * r
    ray = {q: w**q * _ray(w * w / (4.0 * T), a, q) for q in range(-3, 2)}
    return float(2.0 * r * _SQRT_PI * (
        r * r * (ray[1] / (2.0 * T * T) + 7.0 * ray[-1] / T + 28.0 * ray[-3])
        + r * r * abs(t) * (2.0 * ray[0] / T + 12.0 * ray[-2])
        + 2.0 * abs(r * r * t * t - 0.25) * ray[-1]))


def _tail_levels(T: float, r: float, t: float, cutoff: int, offset: float, mult) -> float:
    """``sqrt(pi) sum_{k > cutoff} mult(k) erfc(sqrt(T) ((k + offset)/r - |t|))``
    by ``erfc(x) <= min(1, exp(-x^2)/(x sqrt(pi)))``, to ``x = 27.5`` (past it
    the terms add up to below 1e-300)."""
    last = np.ceil(r * (27.5 / np.sqrt(T) + abs(t)) - offset)
    if last - cutoff > SHELL_BUDGET:  # a flux far past the cutoff
        return inf
    k = np.arange(cutoff + 1, max(cutoff + 1, int(last)) + 2, dtype=float)
    x = np.maximum(np.sqrt(T) * ((k + offset) / r - abs(t)), 0.0)
    with np.errstate(divide="ignore"):
        erfc = np.minimum(1.0, np.exp(-x * x) / (x * _SQRT_PI))
    return float(_SQRT_PI * np.sum(mult(k) * erfc))


# ---------------------------------------------------------------------------
# geometries
# ---------------------------------------------------------------------------
#
# Each geometry states the bare spectrum of the Dirac operator twisted by a
# rank-1 flat bundle with the given ``twist`` (holonomy or character), and
# nothing else: the flux shift ``+t`` and the bundle rank are applied once, by
# ``enumerate_spectrum`` and ``progression_spectrum``.
# ``levels(twist, cutoff)``: eigenvalue and multiplicity arrays of the
# shell-complete spectrum, ascending, not yet merged into distinct values
# (so ``enumerate_spectrum``'s merge sorts nothing unless the flux makes a tie).
# ``branches(twist)``: ``(v0, step, mult_coeffs)`` families ``v0 + step j``
# with multiplicity ``sum mult_coeffs[i] j^i`` (the round geometries only:
# the torus spectrum is no such family).
# ``from_config(cfg)``: the geometry a config describes.
# ``index_dim``: ``levels`` builds at most ``(2 cutoff + 3)^index_dim`` levels.
# ``weyl_coefficient``, ``shortest_geodesic``, ``heat_remainder(T, t)`` and
# ``heat_tail(T, t, cutoff)``: the small-time heat data above.

class _Round:
    """Geometry with one length scale, ``radius``; ``shape`` holds its other
    fields, in order (the lens order), and keys its family table."""

    shape: ClassVar[tuple] = ()
    index_dim: ClassVar[int] = 1

    def __post_init__(self):
        if not 0 < self.radius <= MAX_LENGTH:  # NaN fails too
            raise ValueError(f"radius must be finite, positive and at most {MAX_LENGTH:g}, "
                             f"got {self.radius!r}")

    def scaled(self, s: float):
        return replace(self, radius=self.radius * s)

    @property
    def weyl_coefficient(self) -> float:
        return -self.volume / (2.0 * np.pi**1.5)

    @property
    def shortest_geodesic(self) -> float:
        return 2.0 * np.pi * self.radius

    @classmethod
    def from_config(cls, cfg):
        return cls(radius=float(cfg.get("radius", 1.0)))


@dataclass(frozen=True)
class Circle(_Round):
    radius: float = 1.0

    dim: ClassVar[int] = 1
    bundles: ClassVar[tuple] = (CircleHolonomy, TrivialBundle)
    config_name: ClassVar[str] = "circle"
    scalar_curvature: ClassVar[float] = 0.0

    weyl_coefficient: ClassVar[float] = 0.0

    @property
    def volume(self) -> float:
        return 2.0 * np.pi * self.radius

    def heat_remainder(self, T: float, t: float) -> float:
        """``E = 2 pi^(3/2) r^2 s^(-3/2) sum_{k>=1} k sin(2 pi k (a + t r))
        exp(-pi^2 k^2 r^2/s)``; term k integrates to at most ``(2/sqrt(pi))
        exp(-pi^2 k^2 r^2/T)/k``."""
        r = self.radius
        return float(2.0 / _SQRT_PI * _ray(np.pi**2 * r * r / T, 1.0, -1))

    def heat_tail(self, T: float, t: float, cutoff: int) -> float:
        """The levels ``(n + a)/r``, ``|n| > cutoff``: ``|n + a| >= |n| - 1``."""
        return _tail_levels(T, self.radius, t, cutoff, -1.0, lambda k: 2.0)

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
    config_name: ClassVar[str] = "sphere3"

    @property
    def volume(self) -> float:
        return 2.0 * np.pi**2 * self.radius**3

    @property
    def scalar_curvature(self) -> float:
        return 6.0 / self.radius**2

    def heat_remainder(self, T: float, t: float) -> float:
        return _round_remainder(T, self.radius, t, 1.0)

    def heat_tail(self, T: float, t: float, cutoff: int) -> float:
        return _tail_levels(T, self.radius, t, cutoff, 1.5, lambda k: 2.0 * (k + 1) * (k + 2))

    def levels(self, twist: int, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
        k = np.arange(cutoff + 1)
        mult = (k + 1) * (k + 2)
        return (np.concatenate([-(1.5 + k[::-1]) / self.radius, (1.5 + k) / self.radius]),
                np.concatenate([mult[::-1], mult]))

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
    index_dim: ClassVar[int] = 3
    config_name: ClassVar[str] = "torus3"
    scalar_curvature: ClassVar[float] = 0.0

    def __post_init__(self):
        if len(self.lengths) != 3 or not all(0 < x <= MAX_LENGTH for x in self.lengths):
            raise ValueError(f"edge lengths must be finite, positive and at most "
                             f"{MAX_LENGTH:g}, got {self.lengths!r}")
        if len(self.spin) != 3 or any(s not in (0.0, 0.5) for s in self.spin):
            raise ValueError("spin structure offsets must each be 0 or 0.5")

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @property
    def weyl_coefficient(self) -> float:
        return -self.volume / (2.0 * np.pi**1.5)

    @property
    def shortest_geodesic(self) -> float:
        return float(min(self.lengths))

    def heat_remainder(self, T: float, t: float) -> float:
        """Each ``|gamma| = g >= l`` adds at most ``Vol |t| (1/(2T) + 4/g^2)
        exp(-g^2/(4T))/pi^(3/2)``; the lattice sums ``exp(-g^2/(4T))`` to ``prod_j
        (1 + 2 sum_{n>=1} exp(-n^2 L_j^2/(4T))) - 1``."""
        ell = self.shortest_geodesic
        lattice = np.expm1(np.sum(np.log1p(2.0 * _ray(np.asarray(self.lengths) ** 2 / (4 * T),
                                                      1.0, 0))))
        return float(self.volume * abs(t) * (0.5 / T + 4.0 / ell**2) * lattice / np.pi**1.5)

    def heat_tail(self, T: float, t: float, cutoff: int) -> float:
        """Shell ``k > cutoff`` of ``|w| max L`` in ``(k - 1/2, k + 1/2]`` has
        ``|lambda| >= 2 pi (k - 1/2)/max L - |t|`` and at most ``Vol (4 pi/3) ((k
        + 1/2)/max L + delta)^3`` modes, two eigenvalues each."""
        lmax = max(self.lengths)
        delta = 0.5 * float(np.sqrt(np.sum(1.0 / np.asarray(self.lengths) ** 2)))
        return _tail_levels(T, lmax / (2.0 * np.pi), t, cutoff, -0.5, lambda k: 8.0 * np.pi / 3.0
                            * self.volume * ((k + 0.5) / lmax + delta) ** 3)

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

        Only the sums that can lie in the shell are formed, each with the
        float the whole box would give it, so the levels are the same bits.
        Each axis's squared coordinates ``y_j^2`` are merged first (without
        holonomy ``v + 1/2`` and ``-v - 1/2`` square to the same float), then
        the partial sums ``p = y_0^2 + y_1^2`` with the products of their
        counts: equal partial sums are the same double, so the totals ``p +
        y_2^2``, in the box's order ``(y_0^2 + y_1^2) + y_2^2``, do not
        change, and the counts stay exact integer sums of products.  Per
        ``p`` the modes kept are a prefix of the ascending ``y_2^2``, since
        ``fl(p + y)`` and ``sqrt`` are monotone.  One ``searchsorted`` against
        ``B = (cutoff + 1/2)^2 (1 + 1e-9)`` finds a prefix that holds it: a
        kept mode has ``p <= fl(p + y)``, which ``sqrt`` rounds to at most
        ``cutoff + 1/2`` only within a few ulps of ``(cutoff + 1/2)^2`` (a
        partial sum an ulp above it can be kept), and the slack is far wider
        than those ulps and the rounding of ``B - p``.  So a ``p`` past
        ``B`` keeps nothing, and is dropped before the merge.  The box's own
        test ``sqrt(p + y) <= cutoff + 1/2`` then trims the prefixes, and
        equal ``|w|`` are merged last.
        """
        lmax = max(self.lengths)
        _, x = self.lattice(theta, cutoff + 1)
        y2, mult = zip(*(np.unique((xj * (lmax / l)) ** 2, return_counts=True)
                         for xj, l in zip(x, self.lengths)))
        bound = (cutoff + 0.5) ** 2 * (1.0 + 1e-9)
        partial = (y2[0][:, None] + y2[1][None, :]).ravel()
        near = partial <= bound
        partial, pairs = _merge(partial[near], (mult[0][:, None] * mult[1][None, :]).ravel()[near])
        width = np.searchsorted(y2[2], bound - partial, side="right")
        col = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        scaled_w = np.sqrt(np.repeat(partial, width) + y2[2][col])
        count = np.repeat(pairs, width) * mult[2][col]
        inside = scaled_w <= cutoff + 0.5
        # equal |w| are merged here: x -> x + t is monotone, and _merge absorbs
        # the values the flux shift makes collide (and w = 0, where the pair
        # +-2 pi |w| meets)
        scaled_w, count = _merge(scaled_w[inside], count[inside])
        x = 2.0 * np.pi * (scaled_w / lmax)
        return np.concatenate([-x[::-1], x]), np.concatenate([count[::-1], count])

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
    config_name: ClassVar[str] = "lens"

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("lens order p must be >= 2")
        super().__post_init__()

    @property
    def shape(self) -> tuple[int]:
        return (self.p,)

    @property
    def volume(self) -> float:
        return 2.0 * np.pi**2 * self.radius**3 / self.p

    @property
    def scalar_curvature(self) -> float:
        return 6.0 / self.radius**2

    @property
    def shortest_geodesic(self) -> float:
        return 2.0 * np.pi * self.radius / self.p

    def heat_remainder(self, T: float, t: float) -> float:
        """The sphere's terms and, per deck element ``theta = 2 pi j/p != pi``, at
        ``omega = 2 pi r |K - j/p|`` (twice the rays ``a = j/p``) at most ``r
        sqrt(pi) (r (1/T + 6/omega^2) + 2|1/2 - r t|/omega) exp(-omega^2/(4T))/
        |sin theta|``; all over p."""
        r, p, w = self.radius, self.p, 2.0 * np.pi * self.radius
        total = _round_remainder(T, r, t, 1.0)
        if p % 2 == 0:  # the antipodal map
            total += _round_remainder(T, r, t, 0.5)
        a = np.array([j for j in range(1, p) if 2 * j != p], dtype=float) / p
        ray = {q: w**q * _ray(w * w / (4.0 * T), a, q) for q in (0, -1, -2)}
        total += 2.0 * r * _SQRT_PI * float(np.sum(
            (r * (ray[0] / T + 6.0 * ray[-2]) + 2.0 * abs(0.5 - r * t) * ray[-1])
            / np.abs(np.sin(2.0 * np.pi * a))))
        return total / p

    def heat_tail(self, T: float, t: float, cutoff: int) -> float:
        """Level ``m`` has multiplicity at most ``(m + 2) min(m + 2, (m + 2)/q +
        1)``, ``q = p/gcd(2, p)``, on either side."""
        q = self.p // (2 if self.p % 2 == 0 else 1)
        return _tail_levels(T, self.radius, t, cutoff, 1.5,
                            lambda k: 2.0 * (k + 2) * np.minimum(k + 2, (k + 2) / q + 1))

    def levels(self, k_char: int, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
        m = np.arange(cutoff + 1)
        level = (1.5 + m) / self.radius
        # the - eigenvalues from the top level down, then the + ones; empty ones dropped
        values = np.concatenate([-level[::-1], level])
        mults = np.concatenate([((m + 1) * lens_weight_count(m + 1, k_char, self.p))[::-1],
                                (m + 2) * lens_weight_count(m, k_char, self.p)])
        keep = mults != 0
        return values[keep], mults[keep]

    def branches(self, k_char: int):
        # class m = rho + 2p j: (base + 2p j) N(m', k) with m' = m on the +
        # branch and m + 1 on the -; along it N grows by 2g per step when
        # g = gcd(2, p) divides m' - k (the 2p new weights at each end hit
        # every such residue g times) and stays 0 otherwise
        r, p, period = self.radius, self.p, 2 * self.p
        g = 2 if p % 2 == 0 else 1
        out = []
        for rho in range(period):
            for shift, step_sign in ((0, 1.0), (1, -1.0)):
                m, base = rho + shift, rho + 2 - shift
                n0 = lens_weight_count(m, k_char, p)
                d1 = 2 * g if (m - k_char) % g == 0 else 0
                coeffs = [base * n0, base * d1 + period * n0, period * d1]
                if any(coeffs):
                    out.append((step_sign * (1.5 + rho) / r, step_sign * period / r, coeffs))
        return out

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
        return SpectralModel(self.geometry, self.bundle, float(t))

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
    """Distinct eigenvalues, ascending, with their summed multiplicities.

    Strictly ascending values (no ties, no NaN, no ``+-0.0`` pair) are
    already ``np.unique``'s output and are returned unsorted.  Otherwise one
    sort: the values in ``np.unique``'s own order (the same ``argsort``, so
    the same one of ``+-0.0`` leads its group and survives, and NaNs merge
    into one), each group's multiplicities summed by ``np.add.reduceat``."""
    values = np.asarray(values, dtype=float).ravel()
    if np.all(values[1:] > values[:-1]):  # also empty and single values
        return values, np.asarray(mults).astype(np.int64)
    order = values.argsort()
    aux = values[order]
    first = np.empty(aux.size, dtype=bool)
    first[0] = True
    np.not_equal(aux[1:], aux[:-1], out=first[1:])
    if np.isnan(aux[-1]):  # NaNs sort last
        first[np.searchsorted(aux, aux[-1]) + 1:] = False
    starts = np.flatnonzero(first)
    return aux[starts], np.add.reduceat(np.asarray(mults)[order], starts).astype(np.int64)


def _check_multiplicities(mults):
    """Raise ``ValueError`` unless every multiplicity is a positive integer."""
    m = np.asarray(mults, dtype=float)
    if np.any(~np.isfinite(m) | (m < 1) | (m != np.round(m))):
        raise ValueError("multiplicities must be positive integers")


def enumerate_spectrum(model: SpectralModel, cutoff: int) -> np.ndarray:
    """Distinct eigenvalues with exact multiplicities: an ``(n, 2)`` float64
    array of ``[value, multiplicity]`` rows, values strictly ascending.  The
    flux shifts the geometry's levels, and the rank scales their
    multiplicities, here: a rank that puts a multiplicity above 2^53, where
    float64 stops holding every integer, is refused."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    values, mults = model.geometry.levels(model.bundle.twist, cutoff)
    values, mults = _merge(values + model.flux_shift, mults)
    if mults.size and model.rank * int(mults.max()) > 2**53:
        raise ValueError(f"rank {model.rank} puts a multiplicity above 2^53 at cutoff "
                         f"{cutoff}, where float64 rows are no longer exact")
    return np.column_stack((values, model.rank * mults))


# ---------------------------------------------------------------------------
# arithmetic-progression form of the exact spectra (Hurwitz engine input)
# ---------------------------------------------------------------------------

def _crossing(offset: float, step: float, mult_coeffs: Sequence[float]) -> tuple[int, int]:
    """``(n, K)`` of the family ``offset + step k``: the n indices with
    ``offset + step k < -ZERO_TOL``, and ``K = m(n)`` (exact) if index n, the
    one nearest ``-offset/step``, is a kernel mode, ``|offset + step n| <=
    ZERO_TOL``, else 0."""
    j = max(0, round(-offset / step))
    v = offset + step * j
    # v is off by up to eps (|offset| + step): no float test can tell there
    if abs(abs(v) - ZERO_TOL) <= _EPS * (abs(offset) + step):
        raise ValueError(f"the flux puts offset {offset:.6g} too far from zero to "
                         f"resolve the kernel threshold {ZERO_TOL:g}")
    if abs(v) <= ZERO_TOL:
        return j, round(sum(Fraction(c) * j**i for i, c in enumerate(mult_coeffs)))
    return (j + 1 if v < 0 else j), 0


def _poly_at(coeffs: Sequence[float], k: int) -> float:
    """``sum coeffs[i] k^i``."""
    return sum(c * k**i for i, c in enumerate(coeffs))


def _check_integer_valued(mult_coeffs: tuple[float, ...]) -> None:
    """Raise ``ValueError`` unless the multiplicity polynomial is a
    non-negative integer at ``k = 0 .. deg + 1``."""
    for k in range(len(mult_coeffs) + 2):
        v = _poly_at(mult_coeffs, k)
        if abs(v - round(v)) > 1e-6 * max(1.0, abs(v)):
            raise ValueError(f"multiplicity polynomial is not integer-valued at k={k}")
        if round(v) < 0:
            raise ValueError(f"multiplicity polynomial is negative at k={k}")


@lru_cache(maxsize=64)
def _bernoulli_poly(n: int) -> tuple[Fraction, ...]:
    """Coefficients of B_n(x), ascending powers, built once per ``n``."""
    bern = [Fraction(1)]
    for m in range(1, n + 1):
        bern.append(-sum(comb(m + 1, j) * bern[j] for j in range(m)) / (m + 1))
    return tuple(comb(n, k) * bern[k] for k in reversed(range(n + 1)))


@lru_cache(maxsize=1024)
def _family_polys(mult_coeffs: tuple[float, ...]
                  ) -> tuple[tuple[float, ...], tuple[int, ...], int]:
    """The two polynomials of a family with ``m(k) = sum c_n k^n`` that the
    Hurwitz engine evaluates, exact from the fractions of ``c_n``:

    * ``F_m(q) = sum_i c_i(q) zeta_H(-i, q)``, where ``m(k) = sum_i c_i(q)
      (k + q)^i`` (``c_n k^n = c_n sum_i C(n, i) (-q)^(n-i) (k + q)^i``) and
      ``zeta_H(-i, q) = -B_{i+1}(q)/(i+1)``, rounded to floats once, in
      Horner order;
    * ``S_m(n) = sum_{k<n} m(k)`` by Faulhaber, ``sum_{k<n} k^i =
      (B_{i+1}(n) - B_{i+1}(0))/(i+1)``, as integer numerators in Horner
      order over one common denominator.
    """
    f = [Fraction(0)] * (len(mult_coeffs) + 1)
    s = f[:]
    for n, c in enumerate(map(Fraction, mult_coeffs)):
        for i in range(n + 1):
            w = c * comb(n, i) * (-1) ** (n - i) / -(i + 1)
            for j, b in enumerate(_bernoulli_poly(i + 1)):
                f[n - i + j] += w * b
        for j, b in enumerate(_bernoulli_poly(n + 1)[1:], 1):
            s[j] += c * b / (n + 1)
    denom = lcm(*(x.denominator for x in s))
    return (tuple(float(x) for x in reversed(f)),
            tuple(int(x * denom) for x in reversed(s)), denom)


# A family table holds one row ``(sign, v0, step, mult_coeffs, polys)`` per
# family, everything of it that depends on neither radius nor flux: its
# first eigenvalue ``v0`` and its ``step > 0`` at radius 1 and flux 0, the
# multiplicity polynomial (checked integer-valued once, here) and its
# ``_family_polys``.  At radius r and flux t the family is ``sign (offset +
# step' k)`` with ``offset = sign (v0/r + t)`` and ``step' = step/r``: the
# float operations of ``branches`` at radius r, then the flux.
FamilyRow = tuple[int, float, float, tuple[float, ...],
                  tuple[tuple[float, ...], tuple[int, ...], int]]


def _row(sign: int, v0: float, step: float, mult_coeffs) -> FamilyRow:
    coeffs = tuple(float(c) for c in mult_coeffs)
    _check_integer_valued(coeffs)
    return sign, v0, step, coeffs, _family_polys(coeffs)


@lru_cache(maxsize=256)
def _family_table(geometry: type, shape: tuple, twist) -> tuple[FamilyRow, ...]:
    """The family table of ``geometry(*shape)`` with this twist, from its
    ``branches`` at radius 1: built once per key, which leaves out the
    radius, so every scale of a conformal sweep reads one table."""
    rows = []
    for v0, step, coeffs in geometry(*shape, radius=1.0).branches(twist):
        rows.append(_row(1 if step > 0 else -1, v0, abs(step), coeffs))
    return tuple(rows)


@dataclass(frozen=True)
class ProgressionSpectrum:
    """Full spectrum, kernel included: ``rank`` copies of the families of a
    family table read at ``radius`` and ``flux`` (so a rank-r trivial bundle
    has exactly r times the line bundle's eta)."""

    table: tuple[FamilyRow, ...]
    radius: float = 1.0
    flux: float = 0.0
    rank: int = 1


def progression_spectrum(model: SpectralModel) -> ProgressionSpectrum:
    """Exact progression decomposition; circle, sphere and lens models only.

    Returns the family table of the model's geometry class, lens order and
    twist, from a bounded cache whose key leaves out the radius, with the
    model's radius, flux and rank: no family is built or validated here.
    :func:`eta.eta_hurwitz` reads the table at that radius and flux and
    checks each family's offset and step (a step above ``2 ZERO_TOL`` leaves
    at most one index in the kernel).  Torus norms ``2 pi |v + delta
    + theta|`` are not arithmetic progressions, so torus models must use the
    heat engine.
    """
    geo = model.geometry
    if not isinstance(geo, _Round):
        raise ValueError("torus spectra are not arithmetic progressions; use the heat engine")
    return ProgressionSpectrum(_family_table(type(geo), geo.shape, model.bundle.twist),
                               geo.radius, model.flux_shift, model.rank)


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


@lru_cache(maxsize=1)
def _unit_top_form():
    """``build_gamma_rep(3)`` and the terms of the unit top form ``vol``, the
    Clifford data of every torus operator, built on first use and shared."""
    return build_gamma_rep(3), FluxForm.top(3, 1.0).complex_terms()


@dataclass(frozen=True, eq=False)
class TorusSymbol:
    """A block operator on the mode box ``[-N, N]^3`` of ``geometry.lattice``
    by its symbol, the one home of its block data.  Mode ``v`` carries the
    diagonal block ``sum_j s_j(v_j) grad[j] + coupling[0]``, where ``s_j = 2 pi
    i x_j/L_j`` is ``d/dx_j`` on mode ``v`` (``axis_symbol[j, v_j + N]``, ``x``
    its shifted coordinates), and couples to ``v - u`` by the constant block
    ``coupling[u]``, ``u != 0``, when that mode is in the box.  The diagonal
    is held by entry (``entries``): entry ``(a, b)`` varies only along the
    axes ``j`` with ``grad[j][a, b] != 0``."""

    cutoff: int
    axis_symbol: np.ndarray  # (3, 2N+1)
    grad: dict[int, np.ndarray]
    coupling: dict[tuple[int, int, int], np.ndarray]

    @classmethod
    def on(cls, geometry: Torus3, theta, cutoff: int, grad: dict[int, np.ndarray],
           coupling: dict[tuple[int, int, int], np.ndarray]) -> "TorusSymbol":
        _, x = geometry.lattice(theta, cutoff)
        return cls(cutoff, 2.0j * np.pi * (x / np.asarray(geometry.lengths)[:, None]),
                   grad, coupling)

    @property
    def zero_block(self) -> np.ndarray:
        return np.asarray(self.coupling.get((0, 0, 0), np.zeros((2, 2))), dtype=complex)

    @cached_property
    def entries(self) -> dict[tuple[int, int], np.ndarray]:
        """Entry ``(a, b)`` of the diagonal blocks, shape ``(2N+1 or 1,) * 3``:
        full along axis ``j`` only where ``grad[j][a, b] != 0``.  It is ``0 +
        sum_j s_j grad[j][a, b]`` over those axes in the order of ``grad``,
        joined with ``coupling[0][a, b]``; a term with a zero ``grad`` entry
        would add a signed zero to a sum from ``+0``, which changes nothing."""
        zero = self.zero_block
        side = 2 * self.cutoff + 1
        out = {}
        for a in range(2):
            for b in range(2):
                terms = [self.axis_symbol[j].reshape([side if k == j else 1 for k in range(3)])
                         * blk[a, b] for j, blk in self.grad.items() if blk[a, b] != 0]
                z = zero[a, b]
                if not terms:
                    out[a, b] = np.full((1, 1, 1), z)
                    continue
                diag = sum(terms)
                # the nonzero one of the two, or their sum where both are nonzero
                out[a, b] = np.where(diag != 0, diag + z if z != 0 else diag, z)
        return out

    def assembled_shifts(self) -> list[tuple[int, int, int]]:
        """The shifts ``u != 0`` with a source mode in the box."""
        side = 2 * self.cutoff + 1
        return [u for u in self.coupling if any(u) and all(abs(k) < side for k in u)]

    def hermitian_deviation(self) -> float:
        """``max |X - X^H|`` over the entries of the assembled matrix: each
        diagonal entry ``(a, b)`` against the conjugate of ``(b, a)``, each
        assembled ``coupling[u]`` against ``coupling[-u]^H``.  NaN
        propagates."""
        entries = self.entries
        devs = [np.abs(e - np.conj(entries[b, a])).max() for (a, b), e in entries.items()]
        for u in self.assembled_shifts():
            neg = self.coupling.get((-u[0], -u[1], -u[2]), np.zeros((2, 2)))
            devs.append(np.abs(self.coupling[u] - np.conj(neg.T)).max())
        return float(np.max(devs))


def _assemble_blocks(symbol: TorusSymbol):
    """The CSR matrix of a symbol's operator, with its mode list.

    The CSR arrays are written shift by shift.  The box index ``i`` is linear
    in ``v``, so shift ``u`` sends ``i`` to ``i - off`` for a fixed ``off``,
    and its source modes are the product of three 1-D index ranges.  Each
    nonzero entry ``c`` of its constant block at ``(a, b)`` becomes ``(2i + a,
    2(i - off) + b, c)``; only the diagonal, the symbol's entries broadcast to
    the box, needs a data mask.  The shifts are written in descending ``off``
    (the diagonal at 0), so the columns of every row ascend and the matrix
    needs no sort.  Exact zeros are skipped."""
    import scipy.sparse as sp  # deferred: no command needs scipy

    cutoff = symbol.cutoff
    v = np.arange(-cutoff, cutoff + 1)
    side = 2 * cutoff + 1
    nm, box = side**3, (side, side, side)

    def on_box(axis_values):
        # (nm, 3) array whose column j is axis_values[j] along box axis j
        out = np.empty(box + (3,), dtype=axis_values.dtype)
        for j in range(3):
            out[..., j] = axis_values[j].reshape([side if k == j else 1 for k in range(3)])
        return out.reshape(nm, 3)

    modes = on_box(np.broadcast_to(v, (3, side)))
    zero = symbol.zero_block
    diag = np.empty(box + (2, 2), dtype=complex)
    for (a, b), entry in symbol.entries.items():
        diag[..., a, b] = entry
    diag = diag.reshape(nm, 2, 2)
    diag_mask = (diag != 0) | (zero != 0)
    pieces = [(0, None, None)]  # (off, source ranges, block); None: the diagonal
    for u in symbol.assembled_shifts():
        ranges = tuple(slice(max(0, k), min(side, side + k)) for k in u)
        pieces.append(((u[0] * side + u[1]) * side + u[2], ranges, symbol.coupling[u]))
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


def _dirac_symbol(geometry: Torus3, flux: TorusFlux, cutoff: int,
                  bundle: Bundle = TrivialBundle(1)) -> TorusSymbol:
    """The symbol of ``D + c(H)`` for ``H = f(x) vol``, checked Hermitian."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    bundle.check(geometry)
    if bundle.rank != 1:
        raise ValueError("mode-block operator supports rank-1 bundles")

    rep, vol = _unit_top_form()
    c_vol = _clifford_terms(rep, vol)  # the identity
    coupling = {u: c * c_vol for u, c in flux.table().items()}
    grad = dict(enumerate(rep.gammas))  # D = sum_j c(e_j) d_j
    symbol = TorusSymbol.on(geometry, bundle.twist, cutoff, grad, coupling)
    herm = symbol.hermitian_deviation()
    if not herm <= 1e-12:  # NaN fails too
        raise AssertionError(f"assembled operator not Hermitian: deviation {herm}")
    return symbol


def _derivative_symbol(geometry: Torus3, flux: TorusFlux, cutoff: int, axis: int,
                       bundle: Bundle = TrivialBundle(1)) -> TorusSymbol:
    """The symbol of ``d/dx_j + c(iota_{e_j} H)`` (the flux contraction acts
    as ``f(x) c(iota_{e_j} vol)``)."""
    rep, vol = _unit_top_form()
    blk = _clifford_terms(rep, _contract(vol, axis))  # i sigma_j
    coupling = {u: c * blk for u, c in flux.table().items()}
    return TorusSymbol.on(geometry, bundle.twist, cutoff, {axis: np.eye(2, dtype=complex)},
                          coupling)


def build_torus_operator(geometry: Torus3, flux: TorusFlux, cutoff: int,
                         bundle: Bundle = TrivialBundle(1)) -> ModeBlockOperator:
    """Assemble ``D + c(H)`` for ``H = f(x) vol`` in the Fourier basis."""
    modes, mat = _assemble_blocks(_dirac_symbol(geometry, flux, cutoff, bundle))
    return ModeBlockOperator(cutoff=cutoff, modes=modes, matrix=mat)


def torus_twisted_derivative(geometry: Torus3, flux: TorusFlux, cutoff: int, axis: int,
                             bundle: Bundle = TrivialBundle(1)) -> sp.csr_matrix:
    """Skew-adjoint connection component ``d/dx_j + c(iota_{e_j} H)`` in the
    Fourier basis (the flux contraction acts as ``f(x) c(iota_{e_j} vol)``)."""
    return _assemble_blocks(_derivative_symbol(geometry, flux, cutoff, axis, bundle))[1]


def torus_multiplication_operator(geometry: Torus3, coeffs: dict[tuple[int, int, int], complex],
                                  cutoff: int, bundle: Bundle = TrivialBundle(1), *,
                                  block: np.ndarray) -> sp.csr_matrix:
    """Multiplication operator by the scalar Fourier series ``coeffs``, tensored
    with the constant 2x2 ``block``."""
    symbol = TorusSymbol.on(geometry, bundle.twist, cutoff, {},
                            {u: c * block for u, c in coeffs.items()})
    return _assemble_blocks(symbol)[1]
