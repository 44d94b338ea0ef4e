"""Command-line front end: config parsing, sweep orchestration, result
serialization, and the acceptance harness entry point.

Config files are plain ``key = value`` text ('#' comments, blank lines ok);
keys mirror the run-configuration fields exactly and unknown keys are
errors.  Command-line flags override config values.  Results stream as JSON
lines (full config echo per record) or CSV (header row, floats with 17
significant digits).

Exit codes: 0 success, 2 config error, 3 unconverged computation,
4 invariant violation (e.g. a kernel below the PSC threshold) or failed
selftest criteria.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .conformal import ConformalScale, transform_spectrum
from .eta import UnconvergedError, eta_for_model, rho
from .models import BUNDLES, GEOMETRIES, SpectralModel, Torus3, TorusFlux
from .specflow import check_flux_response
from .weitzenbock import TheoremViolationError, lw_check_deg3, psc_stability_sweep
from . import selftest as selftest_mod

__all__ = ["RunConfig", "ResultRecord", "ConfigError", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNCONVERGED = 3
EXIT_VIOLATION = 4


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


_CONFIG_KEYS = {
    "geometry": str,
    "radius": float,
    "lengths": str,
    "spin_structure": str,
    "lens_p": int,
    "bundle": str,
    "rank": int,
    "holonomy": str,
    "character": int,
    "flux": float,
    "flux_cosine": str,
    "engine": str,
    "cutoff": int,
    "tol": float,
    "zero_tol": float,
    "sweep": str,
    "h_norm": float,
    "r_min": float,
    "workers": int,
    "format": str,
    "out": str,
}

_SEMANTIC_KEYS = sorted(set(_CONFIG_KEYS) - {"out", "format", "workers"})


@dataclass
class RunConfig:
    """Validated run configuration; ``raw`` echoes the effective key/values."""

    raw: dict = field(default_factory=dict)

    # -- parsing ------------------------------------------------------------

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        raw: dict = {}
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in stripped.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                raw[key] = _CONFIG_KEYS[key](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
        return cls(raw=raw)

    def override(self, **kwargs):
        for key, value in kwargs.items():
            if value is not None:
                self.raw[key] = _CONFIG_KEYS[key](value)

    # -- typed access -------------------------------------------------------

    def get(self, key: str, default=None):
        return self.raw.get(key, default)

    def require(self, key: str):
        if key not in self.raw:
            raise ConfigError(f"missing required key {key!r}")
        return self.raw[key]

    def floats(self, key: str, default: Sequence[float] | None = None) -> list[float]:
        if default is not None and key not in self.raw:
            return list(default)
        try:
            return [float(x) for x in str(self.require(key)).split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad float list for {key!r}: {exc}") from None

    def ints(self, key: str) -> list[int]:
        try:
            return [int(x) for x in str(self.require(key)).split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad integer list for {key!r}: {exc}") from None

    # -- model construction ---------------------------------------------------

    def model(self) -> SpectralModel:
        geometry = self.require("geometry")
        flux = float(self.get("flux", 0.0))
        try:
            if geometry not in GEOMETRIES:
                raise ConfigError(f"unknown geometry {geometry!r}")
            geo = GEOMETRIES[geometry].from_config(self)
            kind = self.get("bundle", "trivial")
            if kind not in BUNDLES:
                raise ConfigError(f"unknown bundle kind {kind!r}")
            return SpectralModel(geo, BUNDLES[kind].from_config(self), flux)
        except ValueError as exc:
            raise ConfigError(f"invalid model: {exc}") from None

    def torus_flux(self) -> TorusFlux:
        if "flux_cosine" in self.raw:
            parts = str(self.raw["flux_cosine"]).split(":")
            if len(parts) not in (2, 3):
                raise ConfigError("flux_cosine must be 'axis:amplitude[:harmonic]'")
            harmonic = int(parts[2]) if len(parts) == 3 else 1
            return TorusFlux.cosine(int(parts[0]), float(parts[1]), harmonic)
        return TorusFlux.constant(float(self.get("flux", 0.0)))

    # -- misc -----------------------------------------------------------------

    @property
    def engine(self) -> str:
        eng = self.get("engine", "hurwitz")
        if eng not in ("hurwitz", "heat_kernel", "heat"):
            raise ConfigError(f"unknown engine {eng!r}")
        return "heat_kernel" if eng == "heat" else eng

    def config_hash(self) -> str:
        semantic = {k: self.raw[k] for k in _SEMANTIC_KEYS if k in self.raw}
        blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def echo(self) -> dict:
        """Input echo: the semantically meaningful key/values, sorted (output
        routing keys are excluded so equal runs produce equal records)."""
        return {k: self.raw[k] for k in _SEMANTIC_KEYS if k in self.raw}


def model_to_config(model: SpectralModel) -> dict:
    """Config key/values describing a model (inverse of ``RunConfig.model``)."""
    return {"flux": model.flux_shift, **model.geometry.config(), **model.bundle.config()}


@dataclass(frozen=True)
class ResultRecord:
    quantity: str
    value: float
    error_bound: float
    method: str
    param: float | None
    wall_time: float
    version: str
    config_hash: str
    config: dict
    converged: bool = True

    def to_json(self) -> str:
        payload = {
            "quantity": self.quantity,
            "value": self.value,
            "error_bound": self.error_bound,
            "method": self.method,
            "param": self.param,
            "wall_time": self.wall_time,
            "version": self.version,
            "config_hash": self.config_hash,
            "config": self.config,
            "converged": self.converged,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "ResultRecord":
        d = json.loads(line)
        return cls(quantity=d["quantity"], value=d["value"], error_bound=d["error_bound"],
                   method=d["method"], param=d["param"], wall_time=d["wall_time"],
                   version=d["version"], config_hash=d["config_hash"], config=d["config"],
                   converged=d["converged"])


_CSV_COLUMNS = ("param", "quantity", "value", "error_bound", "method",
                "wall_time", "converged", "version", "config_hash")


def _fmt_csv_value(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    if x is None:
        return ""
    return str(x)


def write_records(records: Sequence[ResultRecord], fmt: str, out: str | None):
    if fmt == "json":
        text = "\n".join(r.to_json() for r in records) + "\n"
    elif fmt == "csv":
        lines = [",".join(_CSV_COLUMNS)]
        for r in records:
            lines.append(",".join(_fmt_csv_value(getattr(r, c)) for c in _CSV_COLUMNS))
        text = "\n".join(lines) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _record_factory(cfg: RunConfig):
    chash = cfg.config_hash()
    echo = cfg.echo()

    def make(quantity: str, value: float, error_bound: float, method: str,
             param: float | None, wall: float, converged: bool = True) -> ResultRecord:
        return ResultRecord(quantity=quantity, value=float(value),
                            error_bound=float(error_bound), method=method,
                            param=param, wall_time=wall, version=__version__,
                            config_hash=chash, config=echo, converged=converged)

    return make


def _sweep(points: Sequence[float], fn: Callable[[float], list], workers: int) -> list:
    """Evaluate sweep points on a worker pool, preserving sweep order."""
    if workers <= 1:
        chunks = [fn(p) for p in points]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(fn, points))
    return [rec for chunk in chunks for rec in chunk]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eta(cfg: RunConfig) -> list[ResultRecord]:
    make = _record_factory(cfg)
    model = cfg.model()
    start = time.perf_counter()
    value = eta_for_model(model, cfg.engine, cfg.get("cutoff"),
                          float(cfg.get("tol", 1e-8)), float(cfg.get("zero_tol", 1e-9)))
    wall = time.perf_counter() - start
    return [
        make("eta", value.eta, value.error_bound, value.method, None, wall, value.converged),
        make("kernel_dim", value.kernel_dim, 0.0, value.method, None, wall, value.converged),
        make("xi", value.xi, value.error_bound / 2.0, value.method, None, wall, value.converged),
    ]


def cmd_rho(cfg: RunConfig) -> list[ResultRecord]:
    make = _record_factory(cfg)
    model = cfg.model()
    start = time.perf_counter()
    value = rho(model, engine=cfg.engine, cutoff=cfg.get("cutoff"),
                tol=float(cfg.get("tol", 1e-8)), zero_tol=float(cfg.get("zero_tol", 1e-9)))
    wall = time.perf_counter() - start
    return [
        make("rho", value.rho, value.error_bound, value.xi_twisted.method, None, wall,
             value.converged),
        make("xi_twisted", value.xi_twisted.xi, value.xi_twisted.error_bound,
             value.xi_twisted.method, None, wall, value.xi_twisted.converged),
        make("xi_trivial", value.xi_trivial.xi, value.xi_trivial.error_bound,
             value.xi_trivial.method, None, wall, value.xi_trivial.converged),
    ]


def cmd_specflow(cfg: RunConfig) -> list[ResultRecord]:
    make = _record_factory(cfg)
    base = cfg.model()
    engine = cfg.engine
    cutoff = cfg.get("cutoff")
    tol = float(cfg.get("tol", 1e-8))
    points = cfg.floats("sweep")
    # the unfluxed endpoint is shared by every point of the sweep
    eta_zero = eta_for_model(base.with_flux(0.0), engine, cutoff, tol)

    def one(t: float) -> list[ResultRecord]:
        start = time.perf_counter()
        rpt = check_flux_response(base.with_flux(t), engine=engine, cutoff=cutoff, tol=tol,
                                  eta_zero=eta_zero)
        wall = time.perf_counter() - start
        conv = rpt.eta_flux.converged and rpt.eta_zero.converged
        return [
            make("eta", rpt.eta_flux.eta, rpt.eta_flux.error_bound,
                 rpt.eta_flux.method, t, wall, conv),
            make("sf", float(rpt.sf.flow), 0.0, "affine_exact", t, wall),
            make("residual", rpt.residuals["bare"], rpt.error_budget,
                 "bare_volume_constant", t, wall, conv),
            make("residual_calibrated", rpt.residuals["calibrated"], rpt.error_budget,
                 "curvature_flux_local_term", t, wall, conv),
        ]

    return _sweep(points, one, int(cfg.get("workers", 1)))


def cmd_lw(cfg: RunConfig) -> list[ResultRecord]:
    make = _record_factory(cfg)
    model = cfg.model()
    if not isinstance(model.geometry, Torus3):
        raise ConfigError("lw requires geometry = torus3")
    cutoff = int(cfg.get("cutoff", 8))
    start = time.perf_counter()
    rpt = lw_check_deg3(model.geometry, cfg.torus_flux(), cutoff, model.bundle)
    wall = time.perf_counter() - start
    return [
        make("lw_residual_deg3", rpt.residual_deg3, 0.0, "fourier_blocks", None, wall),
        make("lw_residual_general", rpt.residual_general, 0.0, "fourier_blocks", None, wall),
        make("lw_modes_compared", float(rpt.modes_compared), 0.0, "fourier_blocks", None, wall),
    ]


def cmd_psc(cfg: RunConfig) -> list[ResultRecord]:
    make = _record_factory(cfg)
    model = cfg.model()
    grid = cfg.floats("sweep")
    start = time.perf_counter()
    rpt = psc_stability_sweep(
        model, grid, h_norm=float(cfg.get("h_norm", 1.0)), engine=cfg.engine,
        cutoff=cfg.get("cutoff"), zero_tol=float(cfg.get("zero_tol", 1e-9)),
        r_min=cfg.get("r_min"))
    wall = time.perf_counter() - start
    # |rho_i - rho_0| is off by at most b_i + b_0 at each grid point
    deviation_bound = rpt.rhos[0].error_bound + max(r.error_bound for r in rpt.rhos)
    records = [
        make("u0", rpt.threshold.u0, 0.0, "curvature_bound", None, wall),
        make("first_kernel_u", rpt.first_kernel_u, 0.0, "spectrum", None, wall),
        make("sf", float(rpt.flow), 0.0, "affine_exact", None, wall),
        make("rho_deviation_max", rpt.rho_deviation_max, deviation_bound, cfg.engine, None,
             wall, all(r.converged for r in rpt.rhos)),
    ]
    for u, low, value in zip(rpt.u_grid, rpt.min_abs_eigenvalue, rpt.rhos):
        records.append(make("min_abs_eigenvalue", low, 0.0, "spectrum", u, wall))
        records.append(make("rho", value.rho, value.error_bound, cfg.engine, u, wall,
                            value.converged))
    return records


def cmd_conformal(cfg: RunConfig) -> list[ResultRecord]:
    make = _record_factory(cfg)
    model = cfg.model()
    engine = cfg.engine
    cutoff = cfg.get("cutoff")
    tol = float(cfg.get("tol", 1e-8))
    base = rho(model, engine=engine, cutoff=cutoff, tol=tol).rho

    def one(u: float) -> list[ResultRecord]:
        start = time.perf_counter()
        scaled = transform_spectrum(model, ConformalScale(u))
        value = rho(scaled, engine=engine, cutoff=cutoff, tol=tol)
        wall = time.perf_counter() - start
        bound, conv = value.error_bound, value.converged
        return [
            make("rho", value.rho, bound, value.xi_twisted.method, u, wall, conv),
            make("rho_deviation", abs(value.rho - base), bound, value.xi_twisted.method,
                 u, wall, conv),
        ]

    return _sweep(cfg.floats("sweep"), one, int(cfg.get("workers", 1)))


def cmd_selftest(cfg: RunConfig) -> int:
    results = selftest_mod.run_criteria()
    print(selftest_mod.format_table(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VIOLATION


_COMMANDS = {
    "eta": cmd_eta,
    "rho": cmd_rho,
    "specflow": cmd_specflow,
    "lw": cmd_lw,
    "psc": cmd_psc,
    "conformal": cmd_conformal,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twisteta",
        description="eta/xi/rho invariants of flux-twisted Dirac operators on model spin manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_COMMANDS) + ["selftest"]:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="path to key = value config file")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        p.add_argument("--format", type=str, default=None, choices=("json", "csv"))
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--cutoff", type=int, default=None)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        cfg.override(out=args.out, format=args.format, workers=args.workers,
                     tol=args.tol, cutoff=args.cutoff)
        if args.command == "selftest":
            return cmd_selftest(cfg)
        records = _COMMANDS[args.command](cfg)
        write_records(records, cfg.get("format", "json"), cfg.get("out"))
        if any(not r.converged for r in records):
            return EXIT_UNCONVERGED
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TheoremViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except UnconvergedError as exc:
        print(f"unconverged: {exc}", file=sys.stderr)
        return EXIT_UNCONVERGED
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
