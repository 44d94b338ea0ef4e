"""Command-line front end: config parsing, sweep orchestration, result
serialization, and the acceptance harness entry point.

Config files are plain ``key = value`` text ('#' comments, blank lines ok);
keys mirror the run-configuration fields exactly and unknown keys are
errors; each value is checked where it is parsed, so a bad one is a config
error that names its key.  Command-line flags override config values.
Results stream as JSON lines or CSV (header row, floats with 17 significant
digits).  Each JSON line is ``json.dumps(vars(record), sort_keys=True)`` byte
for byte, full config echo included; the part that records of one config
share is encoded once per output, the rest per record (``_json_lines``).

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
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .conformal import ConformalScale, transform_spectrum
from .eta import _value, eta_for_model, rho, rho_sweep
from .models import BUNDLES, GEOMETRIES, SpectralModel, Torus3, TorusFlux
from .specflow import flux_response_sweep
from .weitzenbock import TheoremViolationError, lw_check_deg3, psc_stability_sweep

__all__ = ["RunConfig", "ResultRecord", "ConfigError", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNCONVERGED = 3
EXIT_VIOLATION = 4


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


def _tolerance(value) -> float:
    tol = float(value)
    if not (isfinite(tol) and tol > 0):
        raise ValueError(f"must be finite and > 0, got {tol!r}")
    return tol


def _positive_int(value) -> int:
    n = int(value)
    if n < 1:
        raise ValueError(f"must be >= 1, got {n!r}")
    return n


def _one_of(*choices: str) -> Callable[[str], str]:
    def parse(value: str) -> str:
        if value not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}, got {value!r}")
        return value

    return parse


def _output_path(value: str) -> str:
    if value and (Path(value).is_dir() or not Path(value).parent.is_dir()):
        raise ValueError(f"must be a file in an existing directory, got {value!r}")
    return value  # empty: stdout


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
    "engine": _one_of("hurwitz", "heat_kernel", "heat"),
    "cutoff": _positive_int,
    "tol": _tolerance,
    "sweep": str,
    "h_norm": float,
    "format": _one_of("json", "csv"),
    "out": _output_path,
}

_SEMANTIC_KEYS = sorted(set(_CONFIG_KEYS) - {"out", "format"})


@dataclass
class RunConfig:
    """Validated run configuration; ``raw`` echoes the effective key/values."""

    raw: dict = field(default_factory=dict)

    # -- parsing ------------------------------------------------------------

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {str(path)!r}: {exc.strerror or exc}") from None
        raw: dict = {}
        for lineno, line in enumerate(text.splitlines(), 1):
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
                try:
                    self.raw[key] = _CONFIG_KEYS[key](value)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key!r}: {exc}") from None

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
            values = [float(x) for x in str(self.require(key)).split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad float list for {key!r}: {exc}") from None
        if not all(isfinite(x) for x in values):
            raise ConfigError(f"bad float list for {key!r}: values must be finite, got {values!r}")
        return values

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
            if "flux" in self.raw:
                raise ConfigError("'flux' and 'flux_cosine' are exclusive: set one of them")
            parts = str(self.raw["flux_cosine"]).split(":")
            if len(parts) not in (2, 3):
                raise ConfigError("flux_cosine must be 'axis:amplitude[:harmonic]'")
            try:
                harmonic = int(parts[2]) if len(parts) == 3 else 1
                return TorusFlux.cosine(int(parts[0]), float(parts[1]), harmonic)
            except ValueError as exc:
                raise ConfigError(f"invalid flux_cosine: {exc}") from None
        return TorusFlux.constant(float(self.get("flux", 0.0)))

    # -- misc -----------------------------------------------------------------

    def eta_settings(self) -> dict:
        """The ``engine``, ``cutoff`` and ``tol`` of every eta evaluation, as
        keyword arguments of ``eta.eta_sweep`` and all that builds on it (each
        is checked where it is parsed; ``heat`` is spelled ``heat_kernel``)."""
        eng = self.get("engine", "hurwitz")
        return {"engine": "heat_kernel" if eng == "heat" else eng, "cutoff": self.get("cutoff"),
                "tol": self.get("tol", 1e-8)}

    def config_hash(self) -> str:
        blob = json.dumps(self.echo(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def echo(self) -> dict:
        """Input echo: the semantically meaningful key/values, sorted (output
        routing keys are excluded so equal runs produce equal records)."""
        return {k: self.raw[k] for k in _SEMANTIC_KEYS if k in self.raw}


@dataclass(frozen=True)
class ResultRecord:
    """One output record.  The JSON encoder relies on the field types that
    ``_record_factory`` pins: ``value``, ``error_bound`` and ``wall_time``
    are ``float``, ``param`` is ``float`` or ``None``, ``converged`` is
    ``bool`` and the strings are ``str``."""

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


_CSV_COLUMNS = ("param", "quantity", "value", "error_bound", "method",
                "wall_time", "converged", "version", "config_hash")


def _fmt_csv_value(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    if x is None:
        return ""
    return str(x)


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_WORDS.get(text, text)


def _json_lines(records: Sequence[ResultRecord]) -> list[str]:
    """``json.dumps(vars(r), sort_keys=True)`` of each record, byte for byte.

    The keys up to ``converged`` (``config`` and ``config_hash``) are encoded
    by the stdlib encoder once per distinct echo object and hash, since every
    record of one command shares them; the scalar fields after them are
    formatted by json's own rules: ``encode_basestring_ascii`` for strings,
    ``float.__repr__`` for finite floats, ``NaN``/``Infinity``/``-Infinity``,
    ``null``, ``true`` and ``false``."""
    heads: dict[tuple[int, str], str] = {}
    lines = []
    for r in records:
        # the records hold their echoes alive, so no id is reused in this call
        key = (id(r.config), r.config_hash)
        head = heads.get(key)
        if head is None:
            shared = json.dumps({"config": r.config, "config_hash": r.config_hash},
                                sort_keys=True)
            head = heads[key] = shared[:-1] + ', "converged": '
        lines.append(
            f'{head}{"true" if r.converged else "false"}, '
            f'"error_bound": {_json_float(r.error_bound)}, '
            f'"method": {encode_basestring_ascii(r.method)}, '
            f'"param": {"null" if r.param is None else _json_float(r.param)}, '
            f'"quantity": {encode_basestring_ascii(r.quantity)}, '
            f'"value": {_json_float(r.value)}, '
            f'"version": {encode_basestring_ascii(r.version)}, '
            f'"wall_time": {_json_float(r.wall_time)}}}')
    return lines


def write_records(records: Sequence[ResultRecord], fmt: str, out: str | None):
    """Write records as JSON lines (see ``_json_lines``: sorted keys, the
    default separators, byte-stable apart from ``wall_time``) or as CSV, to
    ``out`` or, when it is empty, to stdout."""
    if fmt == "json":
        text = "\n".join(_json_lines(records)) + "\n"
    else:  # csv: the format key admits no other value
        lines = [",".join(_CSV_COLUMNS)]
        for r in records:
            lines.append(",".join(_fmt_csv_value(getattr(r, c)) for c in _CSV_COLUMNS))
        text = "\n".join(lines) + "\n"
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {out!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _record_factory(cfg: RunConfig):
    chash = cfg.config_hash()
    echo = cfg.echo()

    def make(quantity: str, value: float, error_bound: float, method: str,
             param: float | None, wall: float, converged: bool = True) -> ResultRecord:
        return ResultRecord(quantity=quantity, value=float(value),
                            error_bound=float(error_bound), method=method,
                            param=None if param is None else float(param),
                            wall_time=float(wall), version=__version__,
                            config_hash=chash, config=echo, converged=bool(converged))

    return make


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eta(cfg: RunConfig) -> list[ResultRecord]:
    make = _record_factory(cfg)
    model = cfg.model()
    settings = cfg.eta_settings()
    start = time.perf_counter()
    value = eta_for_model(model, **settings)
    wall = time.perf_counter() - start
    return [
        make("eta", value.eta, value.error_bound, value.method, None, wall, value.converged),
        make("kernel_dim", value.kernel_dim, 0.0, value.method, None, wall, value.converged),
        make("xi", value.xi, value.error_bound / 2.0, value.method, None, wall, value.converged),
    ]


def cmd_rho(cfg: RunConfig) -> list[ResultRecord]:
    make = _record_factory(cfg)
    model = cfg.model()
    settings = cfg.eta_settings()
    start = time.perf_counter()
    value = rho(model, **settings)
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
    points = cfg.floats("sweep")
    # one eta pass for the sweep: a point's wall_time is its even share plus its own
    start = time.perf_counter()
    reports = flux_response_sweep(base, points, **cfg.eta_settings())
    share = (time.perf_counter() - start) / len(points)

    def one(t: float) -> list[ResultRecord]:
        start = time.perf_counter()
        rpt = next(reports)
        wall = share + time.perf_counter() - start
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

    return [rec for t in points for rec in one(t)]


def cmd_lw(cfg: RunConfig) -> list[ResultRecord]:
    make = _record_factory(cfg)
    model = cfg.model()
    if not isinstance(model.geometry, Torus3):
        raise ConfigError("lw requires geometry = torus3")
    start = time.perf_counter()
    rpt = lw_check_deg3(model.geometry, cfg.torus_flux(), cfg.get("cutoff", 8), model.bundle)
    wall = time.perf_counter() - start
    return [
        make("lw_residual_deg3", rpt.residual, 0.0, "fourier_blocks", None, wall),
        make("lw_residual_general", rpt.residual, 0.0, "fourier_blocks", None, wall),
        make("lw_modes_compared", float(rpt.modes_compared), 0.0, "fourier_blocks", None, wall),
    ]


def cmd_psc(cfg: RunConfig) -> list[ResultRecord]:
    make = _record_factory(cfg)
    model = cfg.model()
    settings = cfg.eta_settings()
    grid = cfg.floats("sweep")
    start = time.perf_counter()
    rpt = psc_stability_sweep(model, grid, h_norm=float(cfg.get("h_norm", 1.0)), **settings)
    wall = time.perf_counter() - start
    # |rho_i - rho_0| is off by at most b_i + b_0 at each grid point
    deviation_bound = rpt.rhos[0].error_bound + max(r.error_bound for r in rpt.rhos)
    records = [
        make("u0", rpt.u0, 0.0, "curvature_bound", None, wall),
        make("first_kernel_u", rpt.first_kernel_u, 0.0, "spectrum", None, wall),
        make("sf", float(rpt.flow), 0.0, "affine_exact", None, wall),
        make("rho_deviation_max", rpt.rho_deviation_max, deviation_bound,
             settings["engine"], None, wall, all(r.converged for r in rpt.rhos)),
    ]
    for u, low, value in zip(grid, rpt.min_abs_eigenvalue, rpt.rhos):
        records.append(make("min_abs_eigenvalue", low, 0.0, "spectrum", u, wall))
        records.append(make("rho", value.rho, value.error_bound, settings["engine"], u,
                            wall, value.converged))
    return records


def cmd_conformal(cfg: RunConfig) -> list[ResultRecord]:
    make = _record_factory(cfg)
    model = cfg.model()
    settings = cfg.eta_settings()
    # every scaled model is built, and so checked, before the first rho
    scaled = []
    for u in cfg.floats("sweep"):
        try:
            scale = ConformalScale(u)
            scaled.append((scale, transform_spectrum(model, scale)))
        except ValueError as exc:
            raise ConfigError(f"bad value for 'sweep': u = {u!r}: {exc}") from None
    # one rho pass for the sweep: a point's wall_time is its even share plus its own
    start = time.perf_counter()
    base, *values = rho_sweep([model, *(scaled_model for _, scaled_model in scaled)], **settings)
    share = (time.perf_counter() - start) / len(scaled)
    base = _value(base)

    def one(scale: ConformalScale, value) -> list[ResultRecord]:
        start = time.perf_counter()
        value = _value(value)
        wall = share + time.perf_counter() - start
        method = value.xi_twisted.method
        u = scale.u
        # |rho_u - rho_0| is off by at most b_u + b_0
        return [
            make("rho", value.rho, value.error_bound, method, u, wall, value.converged),
            make("rho_deviation", abs(value.rho - base.rho),
                 value.error_bound + base.error_bound, method, u, wall,
                 value.converged and base.converged),
        ]

    return [rec for (scale, _), value in zip(scaled, values) for rec in one(scale, value)]


def cmd_selftest(cfg: RunConfig) -> int:
    from . import selftest as selftest_mod

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
    parser.add_argument("command", choices=[*_COMMANDS, "selftest"])
    parser.add_argument("--config", type=str, default=None, help="path to key = value config file")
    parser.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    parser.add_argument("--format", type=str, default=None, help="json (default) or csv")
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--cutoff", type=int, default=None)
    return parser


# built once per process: a parser holds reference cycles, which only the
# cyclic garbage collector frees, and parsing leaves it unchanged
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        cfg.override(out=args.out, format=args.format, tol=args.tol, cutoff=args.cutoff)
        if args.command == "selftest":
            return cmd_selftest(cfg)
        records = _COMMANDS[args.command](cfg)
        write_records(records, cfg.get("format", "json"), cfg.get("out"))
        if any(not r.converged for r in records):
            return EXIT_UNCONVERGED
        return EXIT_OK
    except TheoremViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
