"""Output checks: every record a CLI call writes is compared with a value from
:mod:`oracles`, never with a stored copy of an earlier run.

``check_op(command, config, records)`` returns a list of failure messages,
empty when every record passes.  Tolerances:

* heat-engine values must lie within their own reported ``error_bound`` of
  the independent value and be ``converged``;
* exact (Hurwitz) values and identity residuals within ``EXACT_TOL``;
* LW residuals at most ``LW_TOL``; rho deviations (PSC, conformal) at most
  ``RHO_DEV_TOL``.
"""

from __future__ import annotations

import json
import math

import oracles

EXACT_TOL = 1e-10
LW_TOL = 1e-10
RHO_DEV_TOL = 1e-8
REL_TOL = 1e-12


def read_records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


class _Report:
    def __init__(self):
        self.failures: list[str] = []

    def fail(self, message: str):
        self.failures.append(message)

    def near(self, what: str, value, expected: float, tol: float):
        if not (isinstance(value, (int, float)) and math.isfinite(value)
                and abs(value - expected) <= tol):
            self.fail(f"{what}: {value!r} differs from {expected!r} by more than {tol:.3g}")

    def at_most(self, what: str, value, limit: float):
        if not (isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= limit):
            self.fail(f"{what}: {value!r} exceeds {limit:.3g}")

    def equal(self, what: str, value, expected):
        if value != expected:
            self.fail(f"{what}: {value!r} != {expected!r}")


def _index(records: list[dict], report: _Report, expected: set) -> dict:
    """``(quantity, param) -> record``; any missing, extra or repeated key fails."""
    table: dict = {}
    for rec in records:
        key = (rec.get("quantity"), rec.get("param"))
        if key in table:
            report.fail(f"duplicate record {key}")
        table[key] = rec
    if set(table) != expected:
        report.fail(f"records {sorted(map(str, table))} != expected {sorted(map(str, expected))}")
    return table


def _tol(rec: dict, config: dict) -> float:
    """Heat values answer for their own bound; exact ones for ``EXACT_TOL``."""
    if config.get("engine") == "heat":
        return rec["error_bound"]
    return EXACT_TOL + rec["error_bound"]


def _near_record(report: _Report, what: str, rec: dict, expected: float, config: dict):
    if rec.get("converged") is not True:
        report.fail(f"{what}: not converged (error_bound {rec.get('error_bound')!r})")
    report.near(what, rec.get("value"), expected, _tol(rec, config))


def _level_params(config: dict) -> tuple[int, int, float]:
    """(p, character, radius) of a sphere (p = 1) or lens config."""
    if config["geometry"] == "sphere3":
        return 1, 0, config["radius"]
    return config["lens_p"], config["character"], config["radius"]


def _volume_curvature(config: dict) -> tuple[float, float]:
    geometry = config["geometry"]
    if geometry == "torus3":
        a, b, c = config["lengths"]
        return a * b * c, 0.0
    p, _, r = _level_params(config)
    return 2.0 * math.pi**2 * r**3 / p, 6.0 / r**2


def expected_eta(config: dict, flux: float) -> float:
    geometry = config["geometry"]
    if geometry == "circle":
        return oracles.circle_eta(config["holonomy"], flux, config["radius"])
    if geometry == "torus3":
        return oracles.torus_eta(flux, config["lengths"])
    p, k, r = _level_params(config)
    return oracles.level_eta(p, k, flux * r)


def expected_rho(config: dict, flux: float) -> float:
    geometry = config["geometry"]
    if geometry == "circle":
        return oracles.circle_rho(config["holonomy"], flux, config["radius"])
    p, k, r = _level_params(config)
    return 0.0 if p == 1 else oracles.lens_rho(p, k, flux * r)


def expected_sf(config: dict, flux: float) -> int:
    if config["geometry"] == "torus3":
        if abs(flux) >= oracles.torus_first_crossing(config["lengths"]):
            raise ValueError("torus flux past the first crossing")
        return 0
    p, k, r = _level_params(config)
    return oracles.level_sf(p, k, flux * r)


# ---------------------------------------------------------------------------
# per command
# ---------------------------------------------------------------------------

def _check_eta(config: dict, records: list[dict], report: _Report):
    table = _index(records, report, {("eta", None), ("kernel_dim", None), ("xi", None)})
    eta = expected_eta(config, config["flux"])
    if ("eta", None) in table:
        _near_record(report, "eta", table["eta", None], eta, config)
    if ("kernel_dim", None) in table:
        report.equal("kernel_dim", table["kernel_dim", None].get("value"), 0.0)
    if ("xi", None) in table:
        _near_record(report, "xi", table["xi", None], eta / 2.0, config)


def _check_rho(config: dict, records: list[dict], report: _Report):
    table = _index(records, report,
                   {("rho", None), ("xi_twisted", None), ("xi_trivial", None)})
    flux = config["flux"]
    twisted = expected_eta(config, flux)
    trivial = expected_eta({**config, "holonomy": 0.0, "character": 0}, flux)
    for quantity, value in (("rho", expected_rho(config, flux)),
                            ("xi_twisted", twisted / 2.0), ("xi_trivial", trivial / 2.0)):
        if (quantity, None) in table:
            _near_record(report, quantity, table[quantity, None], value, config)


def _check_specflow(config: dict, records: list[dict], report: _Report):
    points = config["sweep"]
    quantities = ("eta", "sf", "residual", "residual_calibrated")
    table = _index(records, report, {(q, t) for q in quantities for t in points})
    vol, curvature = _volume_curvature(config)
    for t in points:
        if ("eta", t) in table:
            _near_record(report, f"eta(t={t})", table["eta", t], expected_eta(config, t), config)
        if ("sf", t) in table:
            report.equal(f"sf(t={t})", table["sf", t].get("value"), float(expected_sf(config, t)))
        if ("residual_calibrated", t) in table:
            rec = table["residual_calibrated", t]
            if rec.get("converged") is not True:
                report.fail(f"residual_calibrated(t={t}): not converged")
            report.at_most(f"residual_calibrated(t={t})", rec.get("value"), _tol(rec, config))
        if ("residual", t) in table:
            # the bare constant is refuted by exactly the gap to the local term
            gap = abs(oracles.local_term(vol, curvature, t) - oracles.bare_term(vol, t))
            _near_record(report, f"residual(t={t})", table["residual", t], gap, config)


def _check_lw(config: dict, records: list[dict], report: _Report):
    table = _index(records, report, {("lw_residual_deg3", None),
                                     ("lw_residual_general", None),
                                     ("lw_modes_compared", None)})
    for quantity in ("lw_residual_deg3", "lw_residual_general"):
        if (quantity, None) in table:
            report.at_most(quantity, table[quantity, None].get("value"), LW_TOL)
    bandwidth = int(config["flux_cosine"].split(":")[2]) if "flux_cosine" in config else 0
    if ("lw_modes_compared", None) in table:
        report.equal("lw_modes_compared", table["lw_modes_compared", None].get("value"),
                     float(oracles.lw_modes_compared(config["cutoff"], bandwidth)))


def _check_psc(config: dict, records: list[dict], report: _Report):
    grid = config["sweep"]
    expected = {("u0", None), ("first_kernel_u", None), ("sf", None), ("rho_deviation_max", None)}
    expected |= {(q, u) for q in ("min_abs_eigenvalue", "rho") for u in grid}
    table = _index(records, report, expected)
    p, k, r = _level_params(config)
    h = config["h_norm"]

    def rel(what, key, value):
        if key in table:
            report.near(what, table[key].get("value"), value, REL_TOL * max(1.0, abs(value)))

    rel("u0", ("u0", None), oracles.psc_threshold(6.0 / r**2, h))
    rel("first_kernel_u", ("first_kernel_u", None), oracles.level_min_abs(p, k, 0.0) / r / h)
    if ("sf", None) in table:
        report.equal("sf", table["sf", None].get("value"), 0.0)
    if ("rho_deviation_max", None) in table:
        report.at_most("rho_deviation_max", table["rho_deviation_max", None].get("value"),
                       RHO_DEV_TOL)
    for u in grid:
        rel(f"min_abs_eigenvalue(u={u})", ("min_abs_eigenvalue", u),
            oracles.level_min_abs(p, k, u * h * r) / r)
        if ("rho", u) in table:
            report.near(f"rho(u={u})", table["rho", u].get("value"),
                        expected_rho(config, u * h), EXACT_TOL)


def _check_conformal(config: dict, records: list[dict], report: _Report):
    scales = config["sweep"]
    table = _index(records, report, {(q, u) for q in ("rho", "rho_deviation") for u in scales})
    # a constant rescaling keeps t r, so rho is the unscaled model's rho
    value = expected_rho(config, config["flux"])
    for u in scales:
        if ("rho", u) in table:
            _near_record(report, f"rho(u={u})", table["rho", u], value, config)
        if ("rho_deviation", u) in table:
            report.at_most(f"rho_deviation(u={u})", table["rho_deviation", u].get("value"),
                           RHO_DEV_TOL)


_CHECKS = {
    "eta": _check_eta,
    "rho": _check_rho,
    "specflow": _check_specflow,
    "lw": _check_lw,
    "psc": _check_psc,
    "conformal": _check_conformal,
}


def check_op(command: str, config: dict, records: list[dict]) -> list[str]:
    """Failure messages for one CLI call's records (empty: all correct)."""
    report = _Report()
    try:
        _CHECKS[command](config, records, report)
    except (KeyError, TypeError, ValueError) as exc:
        report.fail(f"malformed records: {type(exc).__name__}: {exc}")
    return report.failures
