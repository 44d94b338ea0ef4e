"""Workload generation: every operation of a workload as a twisteta CLI call
on a config drawn from the seed.

The kinds and number of operations, cutoffs, lens orders and sweep lengths
are fixed per workload, so the work done per pass is the same for every
seed; the seed draws radii, holonomies, characters, fluxes, sweep points and
torus shapes.  Draws keep a margin of ``MARGIN`` from kernel points and
crossings (where the flux-response identity's hypothesis fails and the CLI
exits 2), and from the circle's half-integer shift, where the odd heat trace
cancels exactly and the heat engine returns in a few milliseconds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import oracles

MARGIN = 0.05
HEAT_TOL = 1e-8

# heat-engine cutoffs at which tol 1e-8 is met on every draw below; the
# torus default cutoff of 12 never converges, lens p = 3 does not at 50/100
HEAT_CUTOFF = {"circle": 2000, "sphere3": 400, "lens": 400, "torus3": 40}
HEAT_LADDER = (40, 50, 60)           # circle rho on short spectra (bound <= 4e-9 at 40)
HEAT_LENS_P = 5
SWEEP_LENS_P = (2, 3, 5, 7, 12)      # specflow
CONFORMAL_LENS_P = (3, 7, 12)
PSC_LENS_P = (3, 5, 12)
LW_CASES = ((8, 0), (10, 2), (12, 1))  # (cutoff, cosine harmonic; 0 = constant)


@dataclass(frozen=True)
class Op:
    """One CLI call: ``twisteta <command> --config <label>.cfg``."""

    label: str
    command: str
    config: dict
    points: int   # sweep points, or 1 for a single-value command

    def config_text(self) -> str:
        return "".join(f"{k} = {_fmt(v)}\n" for k, v in self.config.items())


def _fmt(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(x) for x in value)
    return repr(value) if isinstance(value, float) else str(value)


def write_configs(ops: list[Op], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for op in ops:
        path = directory / f"{op.label}.cfg"
        path.write_text(op.config_text())
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# draws
# ---------------------------------------------------------------------------

def _uniform(rng: random.Random, lo: float, hi: float, digits: int = 6) -> float:
    return round(rng.uniform(lo, hi), digits)


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return _uniform(rng, lo, hi) * rng.choice((-1.0, 1.0))


def _radius(rng: random.Random) -> float:
    return _uniform(rng, 0.8, 1.25, 4)


def _circle_draw(rng: random.Random) -> dict:
    """Holonomy, flux and radius with ``frac(a + t r)`` and ``frac(t r)`` (the
    trivial partner of rho) away from 0 and 1/2."""

    def clear(x: float) -> bool:
        frac = x - math.floor(x)
        return min(frac, 1.0 - frac, abs(frac - 0.5)) >= MARGIN

    while True:
        a, t, r = _uniform(rng, 0.05, 0.95), _signed(rng, 0.0, 1.5), _radius(rng)
        if clear(a + t * r) and clear(t * r):
            return {"geometry": "circle", "radius": r, "bundle": "circle_holonomy",
                    "holonomy": a, "flux": t}


def _level_flux(rng: random.Random, r: float, lo: float, hi: float) -> float:
    """Flux t with ``tau = t r`` in ``+-[lo, hi]`` and off every level."""
    while True:
        t = _signed(rng, lo / r, hi / r)
        tau = t * r
        if abs(tau) >= max(lo, MARGIN) and oracles.level_kernel_margin(tau) >= MARGIN:
            return t


def _level_model(rng: random.Random, p: int | None) -> dict:
    r = _radius(rng)
    if p is None:
        return {"geometry": "sphere3", "radius": r}
    return {"geometry": "lens", "radius": r, "lens_p": p, "bundle": "lens_character",
            "character": rng.randrange(1, p)}


def _distinct_sorted(draw, n: int) -> list[float]:
    values: set[float] = set()
    while len(values) < n:
        values.add(draw())
    return sorted(values)


def _avoid_half(rng: random.Random) -> float:
    """A torus holonomy component with ``v + 1/2 + theta`` never 0."""
    x = _uniform(rng, 0.05, 0.45)
    return x if rng.random() < 0.5 else round(x + 0.5, 6)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def heat_eta(rng: random.Random) -> list[Op]:
    """Heat-kernel eta, rho and specflow on long enumerated spectra."""
    heat = {"engine": "heat", "tol": HEAT_TOL}
    circle = _circle_draw(rng)
    sphere = _level_model(rng, None)
    sphere["flux"] = _level_flux(rng, sphere["radius"], MARGIN, 2.9)
    lens = _level_model(rng, HEAT_LENS_P)
    lens["flux"] = _level_flux(rng, lens["radius"], MARGIN, 1.4)
    edge = _uniform(rng, 0.8, 1.25, 4)
    torus = {"geometry": "torus3", "lengths": (edge, edge, edge),
             "sweep": [_signed(rng, 0.1, 1.0)]}
    return [
        Op("eta-circle", "eta", {**circle, **heat, "cutoff": HEAT_CUTOFF["circle"]}, 1),
        Op("eta-sphere", "eta", {**sphere, **heat, "cutoff": HEAT_CUTOFF["sphere3"]}, 1),
        Op("rho-lens", "rho", {**lens, **heat, "cutoff": HEAT_CUTOFF["lens"]}, 1),
        Op("specflow-torus", "specflow", {**torus, **heat, "cutoff": HEAT_CUTOFF["torus3"]}, 1),
    ]


def sweeps(rng: random.Random) -> list[Op]:
    """Many small Hurwitz-engine sweeps plus a short heat cutoff ladder."""
    ops: list[Op] = []
    hurwitz = {"engine": "hurwitz"}
    for i, p in enumerate((None,) + SWEEP_LENS_P):
        model = _level_model(rng, p)
        n = 32 if p is None else 24
        model["sweep"] = _distinct_sorted(
            lambda: _level_flux(rng, model["radius"], MARGIN, 3.9), n)
        ops.append(Op(f"specflow-{i}", "specflow", {**model, **hurwitz}, n))
    for i, p in enumerate(("circle", None) + CONFORMAL_LENS_P):
        if p == "circle":
            model = _circle_draw(rng)
        else:
            model = _level_model(rng, p)
            model["flux"] = _level_flux(rng, model["radius"], MARGIN, 3.9)
        model["sweep"] = _distinct_sorted(lambda: _uniform(rng, -1.5, 1.5), 16)
        ops.append(Op(f"conformal-{i}", "conformal", {**model, **hurwitz}, 16))
    for i, p in enumerate((None,) + PSC_LENS_P):
        model = _level_model(rng, p)
        h = _uniform(rng, 0.8, 1.25, 4)
        u0 = oracles.psc_threshold(6.0 / model["radius"] ** 2, h)
        grid = [0.0] + _distinct_sorted(lambda: _uniform(rng, 0.02 * u0, 0.95 * u0), 13)
        ops.append(Op(f"psc-{i}", "psc", {**model, **hurwitz, "h_norm": h, "sweep": grid}, 14))
    circle = _circle_draw(rng)
    for n in HEAT_LADDER:
        ops.append(Op(f"rho-circle-{n}", "rho",
                      {**circle, "engine": "heat", "tol": HEAT_TOL, "cutoff": n}, 1))
    return ops


def lw_torus(rng: random.Random) -> list[Op]:
    """Degree-3 Lichnerowicz-Weitzenbock checks on the Fourier-mode torus."""
    ops = []
    for cutoff, harmonic in LW_CASES:
        cfg = {"geometry": "torus3",
               "lengths": tuple(_uniform(rng, 0.9, 1.1, 4) for _ in range(3)),
               "bundle": "torus_holonomy",
               "holonomy": tuple(_avoid_half(rng) for _ in range(3)),
               "cutoff": cutoff}
        amplitude = _signed(rng, 0.3, 1.2)
        if harmonic:
            cfg["flux_cosine"] = f"{rng.randrange(3)}:{amplitude!r}:{harmonic}"
        else:
            cfg["flux"] = amplitude
        ops.append(Op(f"lw-{cutoff}", "lw", cfg, 1))
    return ops


WORKLOADS = {"heat_eta": heat_eta, "sweeps": sweeps, "lw_torus": lw_torus}


def generate(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(seed))
