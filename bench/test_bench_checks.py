"""Tests of the benchmark's own oracles, checks and workload generation.

Run with ``PYTHONPATH=src python -m pytest bench``.  Each check must pass the
oracle's value and fail a value outside its tolerance.
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def rec(quantity, value, error_bound=0.0, param=None, converged=True):
    return {"quantity": quantity, "value": float(value), "error_bound": error_bound,
            "param": param, "converged": converged}


def replace(records, quantity, param=None, **changes):
    return [dict(r, **changes) if (r["quantity"], r["param"]) == (quantity, param) else r
            for r in records]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def test_sphere_eta_closed_form_at_half():
    assert oracles.level_eta_direct(1, 0, 0.5) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert oracles.level_eta_direct(1, 0, 0.0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("p,k", [(1, 0), (2, 1), (3, 1), (5, 2), (12, 7)])
def test_identity_matches_direct_zeta_below_first_level(p, k):
    for tau in (-1.37, -0.4, 0.21, 0.9, 1.45):
        assert oracles.level_eta_by_identity(p, k, tau) == pytest.approx(
            oracles.level_eta_direct(p, k, tau), abs=1e-12)


def test_sphere_spectral_flow_closed_form():
    for tau in (0.3, 1.6, 2.7, -2.7, 3.8):
        expected = int(math.copysign(1, tau)) * sum(
            (k + 1) * (k + 2) for k in range(10) if k + 1.5 < abs(tau))
        assert oracles.level_sf(1, 0, tau) == expected


def test_circle_and_torus_closed_forms():
    assert oracles.circle_eta(0.25, 0.1, 1.0) == pytest.approx(0.3)
    assert oracles.circle_eta(0.7, 0.05, 1.0) == pytest.approx(-0.5)
    assert oracles.torus_eta(0.5, (1.0, 1.0, 1.0)) == pytest.approx(-0.125 / (3 * math.pi**2))
    with pytest.raises(ValueError):
        oracles.torus_eta(6.0, (1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# checks: the oracle's value passes, a value outside tolerance fails
# ---------------------------------------------------------------------------

HEAT_CIRCLE = {"geometry": "circle", "radius": 1.0, "bundle": "circle_holonomy",
               "holonomy": 0.25, "flux": 0.1, "engine": "heat", "tol": 1e-8, "cutoff": 2000}


def heat_eta_records(bound=1e-11):
    eta = oracles.circle_eta(0.25, 0.1, 1.0)
    return [rec("eta", eta + bound / 10, bound), rec("kernel_dim", 0.0),
            rec("xi", (eta + bound / 10) / 2, bound / 2)]


def test_heat_eta_within_bound_passes():
    assert checks.check_op("eta", HEAT_CIRCLE, heat_eta_records()) == []


def test_heat_eta_moved_by_ten_bounds_fails():
    records = heat_eta_records()
    eta = oracles.circle_eta(0.25, 0.1, 1.0)
    moved = replace(records, "eta", value=eta + 10 * 1e-11)
    assert checks.check_op("eta", HEAT_CIRCLE, moved)


def test_unconverged_or_missing_record_fails():
    assert checks.check_op("eta", HEAT_CIRCLE, replace(heat_eta_records(), "eta", converged=False))
    assert checks.check_op("eta", HEAT_CIRCLE, heat_eta_records()[:2])


SPHERE_SPECFLOW = {"geometry": "sphere3", "radius": 1.0, "engine": "hurwitz",
                   "sweep": [-2.2, 0.7, 1.8]}


def specflow_records(config):
    vol, curvature = 2 * math.pi**2, 6.0
    out = []
    for t in config["sweep"]:
        gap = abs(oracles.local_term(vol, curvature, t) - oracles.bare_term(vol, t))
        out += [rec("eta", oracles.level_eta(1, 0, t), 1e-14, t),
                rec("sf", float(oracles.level_sf(1, 0, t)), 0.0, t),
                rec("residual", gap, 1e-14, t),
                rec("residual_calibrated", 3e-14, 1e-14, t)]
    return out


def test_sphere_specflow_passes():
    assert checks.check_op("specflow", SPHERE_SPECFLOW, specflow_records(SPHERE_SPECFLOW)) == []


def test_spectral_flow_off_by_one_fails():
    records = specflow_records(SPHERE_SPECFLOW)
    bad = replace(records, "sf", 1.8, value=float(oracles.level_sf(1, 0, 1.8) + 1))
    assert checks.check_op("specflow", SPHERE_SPECFLOW, bad)


def test_bare_residual_must_equal_the_refuting_gap():
    bad = replace(specflow_records(SPHERE_SPECFLOW), "residual", 0.7, value=0.0)
    assert checks.check_op("specflow", SPHERE_SPECFLOW, bad)


def test_heat_torus_specflow_eta_outside_bound_fails():
    config = {"geometry": "torus3", "lengths": (1.0, 1.0, 1.0), "engine": "heat",
              "sweep": [0.5], "cutoff": 40}
    eta = oracles.torus_eta(0.5, (1.0, 1.0, 1.0))
    gap = abs(oracles.local_term(1.0, 0.0, 0.5) - oracles.bare_term(1.0, 0.5))
    good = [rec("eta", eta, 2e-11, 0.5), rec("sf", 0.0, 0.0, 0.5),
            rec("residual", gap, 4e-11, 0.5), rec("residual_calibrated", 1e-12, 4e-11, 0.5)]
    assert checks.check_op("specflow", config, good) == []
    assert checks.check_op("specflow", config, replace(good, "eta", 0.5, value=eta + 2e-10))


LW = {"geometry": "torus3", "lengths": (1.0, 1.0, 1.0), "cutoff": 8, "flux_cosine": "0:0.7:2"}


def lw_records(residual=2e-12, modes=None):
    modes = oracles.lw_modes_compared(8, 2) if modes is None else modes
    return [rec("lw_residual_deg3", residual), rec("lw_residual_general", residual),
            rec("lw_modes_compared", float(modes))]


def test_lw_check():
    assert oracles.lw_modes_compared(8, 2) == 13**3
    assert checks.check_op("lw", LW, lw_records()) == []
    assert checks.check_op("lw", LW, lw_records(residual=1e-6))
    assert checks.check_op("lw", LW, lw_records(modes=15**3))


CONFORMAL = {"geometry": "lens", "radius": 1.1, "lens_p": 3, "bundle": "lens_character",
             "character": 1, "flux": 0.2, "engine": "hurwitz", "sweep": [-0.5, 0.5]}


def conformal_records(deviation=0.0):
    value = oracles.lens_rho(3, 1, 0.2 * 1.1)
    return [r for u in CONFORMAL["sweep"]
            for r in (rec("rho", value, 1e-14, u), rec("rho_deviation", deviation, 1e-14, u))]


def test_conformal_rho_deviation():
    assert checks.check_op("conformal", CONFORMAL, conformal_records()) == []
    assert checks.check_op("conformal", CONFORMAL, conformal_records(deviation=1e-6))


PSC = {"geometry": "sphere3", "radius": 1.0, "engine": "hurwitz", "h_norm": 1.0,
       "sweep": [0.0, 0.4]}


def psc_records():
    out = [rec("u0", math.sqrt(6.0 / 8.0)), rec("first_kernel_u", 1.5), rec("sf", 0.0),
           rec("rho_deviation_max", 0.0)]
    for u in PSC["sweep"]:
        out += [rec("min_abs_eigenvalue", 1.5 - u, 0.0, u), rec("rho", 0.0, 0.0, u)]
    return out


def test_psc_check():
    assert checks.check_op("psc", PSC, psc_records()) == []
    assert checks.check_op("psc", PSC, replace(psc_records(), "rho_deviation_max", value=1e-6))
    assert checks.check_op("psc", PSC, replace(psc_records(), "sf", value=2.0))
    assert checks.check_op("psc", PSC, replace(psc_records(), "min_abs_eigenvalue", 0.4,
                                               value=1.5))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_work_per_pass_is_fixed_across_seeds(workload):
    shapes = {tuple((op.label, op.command, op.points, op.config.get("cutoff"),
                     op.config.get("lens_p")) for op in workloads.generate(workload, seed))
              for seed in range(20)}
    assert len(shapes) == 1
    assert workloads.generate(workload, 3) == workloads.generate(workload, 3)


def test_draws_keep_their_margins():
    for seed in range(20):
        for op in workloads.generate("sweeps", seed) + workloads.generate("heat_eta", seed):
            cfg = op.config
            if cfg["geometry"] in ("sphere3", "lens") and op.command == "specflow":
                for t in cfg["sweep"]:
                    assert oracles.level_kernel_margin(t * cfg["radius"]) >= workloads.MARGIN
            if cfg["geometry"] == "circle":
                for x in (cfg["holonomy"] + cfg["flux"] * cfg["radius"],
                          cfg["flux"] * cfg["radius"]):
                    frac = x - math.floor(x)
                    assert min(frac, 1 - frac, abs(frac - 0.5)) >= workloads.MARGIN


def test_hurwitz_operations_pass_their_checks(tmp_path):
    cli = pytest.importorskip("twisteta.cli")
    ops = [op for op in workloads.generate("sweeps", 0) if op.config["engine"] == "hurwitz"]
    for op, cfg in zip(ops, workloads.write_configs(ops, tmp_path)):
        out = tmp_path / f"{op.label}.jsonl"
        assert cli.main([op.command, "--config", str(cfg), "--out", str(out)]) == 0
        assert checks.check_op(op.command, op.config, checks.read_records(out.read_text())) == []


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
