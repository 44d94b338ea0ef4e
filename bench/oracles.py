"""Values the benchmark checks twisteta against, computed without twisteta.

Nothing here imports the package under test.  The spectra are re-derived
from their definitions (the circle's shifted integers, the sphere levels
``+-(3/2 + m)`` with multiplicity ``(m+1)(m+2)``, the lens levels filtered by
brute-force weight counting) and the eta values come from three independent
sources:

* the circle closed form ``eta = 1 - 2 frac(a + t r)``;
* an mpmath evaluation of ``sum_i c_i zeta_H(-i, q)`` for the sphere and lens
  levels while no eigenvalue has changed sign (``|t r| < 3/2``);
* the variation formula of Atiyah-Patodi-Singer, ``d eta/dt = Vol (R/12 -
  2 t^2)/(2 pi^2)`` between crossings, which integrates to the flux-response
  identity ``eta(t) - eta(0) = 2 sf + R Vol t/(24 pi^2) - Vol t^3/(3 pi^2)``.

All functions take the scale-free flux ``tau = t r`` for round models: eta,
spectral flow and rho depend on the radius only through it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

_DPS = 40


def circle_eta(a: float, t: float, radius: float) -> float:
    """Eta of ``(n + a)/r + t``, n in Z; undefined on the kernel ``a + t r in Z``."""
    x = a + t * radius
    frac = x - math.floor(x)
    if frac == 0.0:
        raise ValueError("circle operator has a kernel")
    return 1.0 - 2.0 * frac


def circle_rho(a: float, t: float, radius: float) -> float:
    """``xi(holonomy a) - xi(trivial)`` for invertible endpoints (kernels 0)."""
    return (circle_eta(a, t, radius) - circle_eta(0.0, t, radius)) / 2.0


def weight_count(m: int, k: int, p: int) -> int:
    """Number of weights in ``{m, m-2, ..., -m}`` congruent to k mod p."""
    if m < 0:
        return 0
    return sum(1 for w in range(-m, m + 1, 2) if (w - k) % p == 0)


def level_multiplicities(m: int, p: int, k: int) -> tuple[int, int]:
    """(multiplicity of ``+(3/2+m)``, multiplicity of ``-(3/2+m)``) on the lens
    space L(p) with character k; p = 1 is the round sphere."""
    return (m + 2) * weight_count(m, k, p), (m + 1) * weight_count(m + 1, k, p)


def _class_poly(p: int, k: int, rho: int, branch: int) -> tuple[Fraction, Fraction, Fraction]:
    """Multiplicity of level ``rho + 2 p j`` as ``c0 + c1 j + c2 j^2``, found by
    interpolation at j = 0, 1, 2 and confirmed at j = 3, 4."""
    vals = [level_multiplicities(rho + 2 * p * j, p, k)[branch] for j in range(5)]
    d1 = vals[1] - vals[0]
    d2 = vals[2] - 2 * vals[1] + vals[0]
    poly = (Fraction(vals[0]), Fraction(d1) - Fraction(d2, 2), Fraction(d2, 2))
    for j in (3, 4):
        if poly[0] + poly[1] * j + poly[2] * j * j != vals[j]:
            raise AssertionError("level multiplicity is not quadratic along its class")
    return poly


def _branch_zeta_sum(p: int, k: int, branch: int, offset) -> mpmath.mpf:
    """Value at s = 0 of ``sum_m mult(m) (3/2 + m + offset)^-s`` over one branch."""
    total = mpmath.mpf(0)
    period = 2 * p
    for rho in range(period):
        c = _class_poly(p, k, rho, branch)
        if not any(c):
            continue
        # (rho + period j + 3/2 + offset)^-s = period^-s (j + q)^-s; rebase the
        # multiplicity to powers of x = j + q and use zeta_H(-i, q)
        q = (mpmath.mpf(rho) + mpmath.mpf(3) / 2 + offset) / period
        c0, c1, c2 = (mpmath.mpf(x.numerator) / x.denominator for x in c)
        b0 = c0 - c1 * q + c2 * q * q
        b1 = c1 - 2 * c2 * q
        b2 = c2
        total += b0 * mpmath.zeta(0, q) + b1 * mpmath.zeta(-1, q) + b2 * mpmath.zeta(-2, q)
    return total


@lru_cache(maxsize=None)
def level_eta_direct(p: int, k: int, tau: float) -> float:
    """Eta of the sphere (p = 1) or lens L(p) with character k at flux
    ``tau = t r`` by mpmath Hurwitz zeta; needs ``|tau| < 3/2``."""
    if abs(tau) >= 1.5:
        raise ValueError("direct evaluation needs |tau| < 3/2")
    with mpmath.workdps(_DPS):
        t = mpmath.mpf(tau)
        value = _branch_zeta_sum(p, k, 0, t) - _branch_zeta_sum(p, k, 1, -t)
        return float(value)


def level_sf(p: int, k: int, tau: float) -> int:
    """Spectral flow from flux 0 to ``tau``: for tau > 0 the negative levels
    with ``3/2 + m < tau`` cross upwards, for tau < 0 the positive ones cross
    downwards."""
    flow = 0
    m = 0
    while 1.5 + m < abs(tau):
        plus, minus = level_multiplicities(m, p, k)
        flow += minus if tau > 0 else -plus
        m += 1
    return flow


def level_kernel_margin(tau: float) -> float:
    """Distance of ``|tau|`` to the nearest level ``3/2 + m`` (a kernel point)."""
    if abs(tau) < 1.5:
        return 1.5 - abs(tau)
    x = abs(tau) - 1.5
    frac = x - math.floor(x)
    return min(frac, 1.0 - frac)


def local_term(volume: float, scalar_curvature: float, t: float) -> float:
    """``R Vol t/(24 pi^2) - Vol t^3/(3 pi^2)``, the integrated APS variation."""
    return (scalar_curvature * volume * t / (24.0 * math.pi**2)
            - volume * t**3 / (3.0 * math.pi**2))


def bare_term(volume: float, t: float) -> float:
    """The refuted bare normalization ``h/(2 pi^2)`` with ``h = t Vol``."""
    return t * volume / (2.0 * math.pi**2)


def level_eta(p: int, k: int, tau: float) -> float:
    """Eta at any non-kernel flux: the direct mpmath value below the first
    level, the flux-response identity beyond it."""
    if abs(tau) < 1.5:
        return level_eta_direct(p, k, tau)
    return level_eta_by_identity(p, k, tau)


def level_eta_by_identity(p: int, k: int, tau: float) -> float:
    """Eta through the flux-response identity, anchored at the mpmath value
    at zero flux.  In the scale-free variable the unit model has
    ``Vol = 2 pi^2/p`` and ``R = 6``."""
    vol = 2.0 * math.pi**2 / p
    return level_eta_direct(p, k, 0.0) + 2.0 * level_sf(p, k, tau) + local_term(vol, 6.0, tau)


def lens_rho(p: int, k: int, tau: float) -> float:
    """``xi(character k) - xi(trivial)``; both operators invertible."""
    return (level_eta(p, k, tau) - level_eta(p, 0, tau)) / 2.0


def level_min_abs(p: int, k: int, tau: float) -> float:
    """Smallest ``|eigenvalue|`` of the unit model at flux ``tau``."""
    best = math.inf
    for m in range(int(abs(tau)) + 4):
        plus, minus = level_multiplicities(m, p, k)
        if plus:
            best = min(best, abs(1.5 + m + tau))
        if minus:
            best = min(best, abs(-1.5 - m + tau))
    return best


def torus_eta(t: float, lengths: tuple[float, float, float]) -> float:
    """Eta of the flat torus with the all-odd spin structure below its first
    crossing: ``eta(0) = 0`` by symmetry and the curvature term vanishes."""
    if abs(t) >= torus_first_crossing(lengths):
        raise ValueError("flux past the first crossing")
    vol = lengths[0] * lengths[1] * lengths[2]
    return local_term(vol, 0.0, t)


def torus_first_crossing(lengths: tuple[float, float, float]) -> float:
    """``2 pi |w_min|`` with ``w = (v + 1/2)/L``: the smallest free eigenvalue."""
    return 2.0 * math.pi * math.sqrt(sum((0.5 / x) ** 2 for x in lengths))


def lw_modes_compared(cutoff: int, bandwidth: int) -> int:
    """Interior modes of a cutoff-N Fourier box at margin ``max(b, 1)``."""
    return (2 * (cutoff - max(bandwidth, 1)) + 1) ** 3


def psc_threshold(scalar_curvature: float, h_norm: float) -> float:
    """``u0 = sqrt(R/8)/|H|`` from ``R/4 - 2 u^2 |H|^2 > 0``."""
    return math.sqrt(scalar_curvature / 8.0) / h_norm
