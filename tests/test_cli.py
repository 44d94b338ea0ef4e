import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twisteta.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNCONVERGED,
    EXIT_VIOLATION,
    ConfigError,
    ResultRecord,
    RunConfig,
    main,
    write_records,
)
from twisteta import cli
from twisteta.eta import eta_for_model, heat_cutoff, rho
from twisteta.models import Circle, CircleHolonomy, SpectralModel, Sphere3, Torus3


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


CIRCLE_CFG = """
# quarter-holonomy circle
geometry = circle
bundle = circle_holonomy
holonomy = 0.25
engine = hurwitz
"""


def read_records(path):
    return [ResultRecord(**json.loads(line))
            for line in path.read_text().splitlines() if line.strip()]


def test_eta_command_circle(tmp_path):
    cfg = write(tmp_path, "c.txt", CIRCLE_CFG)
    out = tmp_path / "out.jsonl"
    assert main(["eta", "--config", cfg, "--out", str(out)]) == EXIT_OK
    records = read_records(out)
    by_name = {r.quantity: r for r in records}
    assert by_name["eta"].value == pytest.approx(0.5, abs=1e-12)
    assert by_name["eta"].method == "hurwitz"
    assert by_name["eta"].error_bound > 0.0
    assert by_name["kernel_dim"].value == 0.0
    assert by_name["xi"].value == pytest.approx(0.25, abs=1e-12)


_COMMAND_CONFIGS = {
    "eta": CIRCLE_CFG,
    "rho": "geometry = sphere3\nflux = 0.1\n",
    "specflow": "geometry = sphere3\nsweep = 0.1,-0.5\n",
    "psc": "geometry = sphere3\nsweep = 0.0,0.2,0.4\n",
    "conformal": "geometry = lens\nlens_p = 3\nbundle = lens_character\ncharacter = 1\n"
                 "flux = 0.2\nsweep = 0.3,-0.1\n",
    "lw": "geometry = torus3\nflux_cosine = 0:1.0\ncutoff = 6\n",
}


def test_main_leaves_no_argparse_object_to_the_cyclic_collector(tmp_path):
    # a parser holds reference cycles that only the cyclic collector frees:
    # built per call, 20 calls would leave 1,000 objects, 460 of them argparse
    # instances (HelpFormatter, _StoreAction, ...), and the peak memory of a
    # process that calls main often would move with the collector's timing
    import gc

    cfg = write(tmp_path, "c.txt", CIRCLE_CFG)
    out = str(tmp_path / "out.jsonl")
    gc.collect()
    start = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(20):
            assert main(["eta", "--config", cfg, "--out", out]) == EXIT_OK
        gc.collect()
        left = [type(obj).__name__ for obj in gc.garbage[start:]
                if type(obj).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        del gc.garbage[start:]
    assert left == []


@pytest.mark.parametrize("command", _COMMAND_CONFIGS)
def test_json_records_round_trip(tmp_path, command):
    cfg = write(tmp_path, "c.txt", _COMMAND_CONFIGS[command])
    out = tmp_path / "out.jsonl"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) >= 3
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True)
        rec = ResultRecord(**json.loads(line))
        assert cli._json_lines((rec,)) == [line]


_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1,
           1e16, 2.0]
_TEXTS = ["", "eta", 'a "quoted" word', "back\\slash\\", "\x00\x01\t\n\r\x1f\x7f",
          "ρ η ξ naïve", "\u2028\u2029", "\U0001d702 \ud800", "0.1.0"]


def test_json_lines_are_the_stdlib_dump_byte_for_byte(tmp_path):
    # seeded records over awkward floats, None params, both flags and echoes
    # with quotes, backslashes, control and non-ASCII text; one write_records
    # call mixes several configs, and one echo object under two hashes
    rng = random.Random(29)

    def number():
        if rng.random() < 0.5:
            return rng.choice(_FLOATS)
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 307)

    echoes = [{}, {"geometry": "circle", "sweep": "0.1,0.2,0.3", "tol": 1e-8, "cutoff": 40},
              {"a\"b": "c\\d", "ctl": "\x01\n", "ρ": "η ✓", "nan": math.nan, "zero": -0.0,
               "big": 1e300, "n": -7},
              {"geometry": "circle", "sweep": "0.1,0.2,0.3", "tol": 1e-8, "cutoff": 40}]
    records = [ResultRecord(quantity=rng.choice(_TEXTS), value=number(), error_bound=number(),
                            method=rng.choice(_TEXTS),
                            param=None if rng.random() < 0.3 else number(),
                            wall_time=number(), version=rng.choice(_TEXTS),
                            config_hash=rng.choice(["5f1b", "0000", rng.choice(_TEXTS)]),
                            config=rng.choice(echoes), converged=rng.random() < 0.5)
               for _ in range(600)]
    want = [json.dumps(vars(r), sort_keys=True) for r in records]
    assert {r.param is None for r in records} == {r.converged for r in records} == {True, False}
    assert [line for r in records for line in cli._json_lines((r,))] == want
    out = tmp_path / "o.jsonl"
    write_records(records, "json", str(out))
    assert out.read_text() == "".join(line + "\n" for line in want)


def test_records_pin_the_field_types_the_encoder_relies_on(tmp_path):
    make = cli._record_factory(RunConfig.from_file(write(tmp_path, "c.txt", CIRCLE_CFG)))
    rec = make("eta", np.float64(0.5), np.int64(0), "hurwitz", np.float64(0.25),
               np.float64(1e-3), np.bool_(False))
    assert [type(x) for x in (rec.value, rec.error_bound, rec.param, rec.wall_time)] \
        == [float] * 4
    assert type(rec.converged) is bool
    assert cli._json_lines((rec,)) == [json.dumps(vars(rec), sort_keys=True)]
    assert make("sf", 2, 0, "affine_exact", None, 0.5).param is None


def test_deterministic_output_modulo_wall_time(tmp_path):
    cfg = write(tmp_path, "c.txt", CIRCLE_CFG)
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["eta", "--config", cfg, "--out", str(out1)])
    main(["eta", "--config", cfg, "--out", str(out2)])
    strip = lambda recs: [
        (r.quantity, r.value, r.error_bound, r.method, r.param, r.config_hash, r.config)
        for r in recs]
    assert strip(read_records(out1)) == strip(read_records(out2))


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write(tmp_path, "c.txt", "geometry = circle\nbogus_key = 1\n")
    assert main(["eta", "--config", cfg]) == EXIT_CONFIG
    # the kernel threshold is the constant models.ZERO_TOL, not a config key
    cfg = write(tmp_path, "z.txt", "geometry = circle\nzero_tol = 1e-6\n")
    assert main(["eta", "--config", cfg]) == EXIT_CONFIG
    assert "unknown key 'zero_tol'" in capsys.readouterr().err


def test_bad_value_rejected(tmp_path):
    cfg = write(tmp_path, "c.txt", "geometry = circle\nradius = fast\n")
    assert main(["eta", "--config", cfg]) == EXIT_CONFIG


def test_missing_required_key_rejected(tmp_path):
    cfg = write(tmp_path, "c.txt", "geometry = lens\n")
    assert main(["eta", "--config", cfg]) == EXIT_CONFIG


def test_invalid_pairing_rejected(tmp_path):
    cfg = write(tmp_path, "c.txt",
                "geometry = sphere3\nbundle = circle_holonomy\nholonomy = 0.25\n")
    assert main(["eta", "--config", cfg]) == EXIT_CONFIG


def test_config_hash_semantics(tmp_path):
    base = RunConfig.from_file(write(tmp_path, "a.txt", CIRCLE_CFG))
    same_output = RunConfig.from_file(
        write(tmp_path, "b.txt", CIRCLE_CFG + "format = csv\n"))
    different = RunConfig.from_file(
        write(tmp_path, "c.txt", CIRCLE_CFG + "cutoff = 100\n"))
    assert base.config_hash() == same_output.config_hash()
    assert base.config_hash() != different.config_hash()


def test_rho_trivial_bundle(tmp_path):
    cfg = write(tmp_path, "c.txt", "geometry = sphere3\nflux = 0.1\n")
    out = tmp_path / "out.jsonl"
    assert main(["rho", "--config", cfg, "--out", str(out)]) == EXIT_OK
    by_name = {r.quantity: r for r in read_records(out)}
    assert by_name["rho"].value == 0.0


def test_specflow_csv(tmp_path):
    cfg = write(tmp_path, "c.txt",
                "geometry = sphere3\nsweep = 0.1,0.5\nformat = csv\n")
    out = tmp_path / "sweep.csv"
    assert main(["specflow", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["param", "quantity", "value", "error_bound"]
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    cal = [float(r["value"]) for r in rows if r["quantity"] == "residual_calibrated"]
    assert cal and all(v <= 1e-8 for v in cal)
    # 17 significant digits on a float column
    eta_row = next(r for r in rows if r["quantity"] == "eta" and r["param"].startswith("0.1"))
    assert len(eta_row["value"].replace("-", "").replace(".", "").lstrip("0")) >= 16


def test_specflow_on_a_large_sphere(tmp_path):
    # radius 10: flux 2.03 crosses the shells k <= 18, far past the levels a
    # unit-radius cutoff of int(t) + 4 shells would enumerate
    cfg = write(tmp_path, "c.txt", "geometry = sphere3\nradius = 10\nsweep = 0.33,2.03\n")
    out = tmp_path / "out.jsonl"
    assert main(["specflow", "--config", cfg, "--out", str(out)]) == EXIT_OK
    by_key = {(r.param, r.quantity): r.value for r in read_records(out)}
    assert by_key[(2.03, "sf")] == sum((k + 1) * (k + 2) for k in range(19)) == 2660
    assert by_key[(2.03, "residual_calibrated")] <= 1e-8


@pytest.mark.parametrize("model", [
    "geometry = sphere3\nradius = 1.1\n",
    "geometry = lens\nlens_p = 5\nbundle = lens_character\ncharacter = 2\nradius = 1.3\n",
], ids=["sphere3", "lens"])
def test_specflow_sweep_writes_the_records_of_its_points_run_alone(tmp_path, model):
    # the points share one zero-flux spectrum, grown at 6.3 in the middle of
    # the sweep: the points after it read a spectrum larger than their own
    fluxes = ["0.4", "-2.9", "6.3", "1.7", "-0.9", "3.6"]

    def records(name, sweep):
        cfg = write(tmp_path, f"{name}.txt", model + f"engine = hurwitz\nsweep = {sweep}\n")
        out = tmp_path / f"{name}.jsonl"
        assert main(["specflow", "--config", cfg, "--out", str(out)]) == EXIT_OK
        return [dataclasses.replace(r, config={}, config_hash="", wall_time=0.0)
                for r in read_records(out)]

    swept = records("sweep", ",".join(fluxes))
    alone = [r for i, t in enumerate(fluxes) for r in records(f"point{i}", t)]
    assert len(swept) == 4 * len(fluxes) and swept == alone
    assert [r.quantity for r in swept[:4]] == ["eta", "sf", "residual", "residual_calibrated"]
    flows = [r.value for r in swept if r.quantity == "sf"]
    assert min(flows) < 0 < max(flows)


def test_specflow_sweep_enumerates_its_spectrum_once_per_new_reach(tmp_path, monkeypatch):
    from twisteta import specflow

    seen = []
    enumerate_spectrum = specflow.enumerate_spectrum

    def recording(model, cutoff):
        seen.append(cutoff)
        return enumerate_spectrum(model, cutoff)

    monkeypatch.setattr(specflow, "enumerate_spectrum", recording)
    # unit sphere: cutoff 8 reaches 9.5 and 16 reaches 17.5, past 12.3 + 1
    cfg = write(tmp_path, "c.txt", "geometry = sphere3\nsweep = 0.4,12.3,-3.2,0.7\n")
    assert main(["specflow", "--config", cfg, "--out", str(tmp_path / "o.jsonl")]) == EXIT_OK
    assert seen == [8, 16]


def test_heat_specflow_enumerates_the_torus_shell_once(tmp_path, monkeypatch):
    # eta_zero and every point read one zero-flux enumeration at the derived
    # cutoff of the largest |t|, shifted; the flow's own spectrum is the one
    # at cutoff 8
    n_rule = heat_cutoff(SpectralModel(Torus3(), flux_shift=0.9))
    assert 8 < n_rule < 40
    seen = []
    levels = Torus3.levels

    def recording(self, theta, cutoff):
        seen.append(cutoff)
        return levels(self, theta, cutoff)

    monkeypatch.setattr(Torus3, "levels", recording)
    cfg = write(tmp_path, "c.txt", "geometry = torus3\nengine = heat\nsweep = 0.3,-0.6,0.9\n")
    out = tmp_path / "o.jsonl"
    assert main(["specflow", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert seen == [n_rule, 8]
    assert len(read_records(out)) == 12


def test_specflow_sweep_to_a_flux_past_the_doubles_is_refused(tmp_path, capsys):
    # the point's own eta refuses the flux before its spectrum would be grown
    cfg = write(tmp_path, "c.txt", "geometry = sphere3\nsweep = 0.5,1e300\n")
    assert main(["specflow", "--config", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: the flux puts offset -1e+300 too far from zero to resolve "
        "the kernel threshold 1e-09\n")


@pytest.mark.parametrize("command,text,message", [
    # the kernel at 3/2 comes before the eta that refuses 1e300
    ("specflow", "geometry = sphere3\nsweep = 0.5,1.5,1e300\n",
     "endpoint operator has a kernel: identity hypothesis violated"),
    # the base rho fails before the scale's, at flux 1e300 e^-0.5
    ("conformal", "geometry = sphere3\nflux = 1e300\nsweep = 0.5\n",
     "the flux puts offset -1e+300 too far from zero to resolve the kernel threshold 1e-09"),
    ("specflow", "geometry = circle\nsweep = 0.5,1e300\n",
     "flux-response checks need a 3-dimensional model"),
    # the heat engine evaluates every point before the walk, and keeps the
    # order: the point at 11 is refused; the kernel at 3/2 comes first
    ("specflow", "geometry = sphere3\nengine = heat\ncutoff = 20\nsweep = 0.5,11.0\n",
     "eigenvalues are too large for the heat engine: flux 11 exceeds half the radius 21.5 "
     "of the spectrum enumerated at cutoff 20"),
    ("specflow", "geometry = sphere3\nengine = heat\ncutoff = 20\nsweep = 0.5,1.5,11.0\n",
     "endpoint operator has a kernel: identity hypothesis violated"),
], ids=["specflow-kernel-first", "conformal-base-first", "specflow-circle", "heat-radius",
        "heat-kernel-first"])
def test_a_sweep_fails_at_its_first_failing_point(tmp_path, capsys, command, text, message):
    cfg = write(tmp_path, "c.txt", text)
    out = tmp_path / "out.jsonl"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("sweep,code,message", [
    ("0.0,1.5,2.6", EXIT_VIOLATION, "invariant violation: kernel detected at u=1.5 "),
    ("0.0,2.6,2.7", EXIT_CONFIG, "config error: an eta error\n"),
], ids=["kernel-first", "eta-first"])
def test_psc_fails_at_its_first_failing_grid_point(tmp_path, monkeypatch, capsys, sweep, code,
                                                   message):
    # an inflated curvature puts u0 = 2.74 past the kernel at u = 3/2; an eta
    # error is injected where a family's offset is below -1, as it is at u =
    # 2.6 (the negative branch, 1.5 - 2.6) and past it
    from twisteta import eta as eta_mod

    crossing = eta_mod._crossing

    def failing(offset, step, coeffs):
        if offset < -1.0:
            raise ValueError("an eta error")
        return crossing(offset, step, coeffs)

    monkeypatch.setattr(Sphere3, "scalar_curvature", 60.0)
    monkeypatch.setattr(eta_mod, "_crossing", failing)
    cfg = write(tmp_path, "c.txt", f"geometry = sphere3\nsweep = {sweep}\n")
    out = tmp_path / "out.jsonl"
    assert main(["psc", "--config", cfg, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_conformal_scales_of_a_lens_share_one_family_table_per_bundle(tmp_path):
    from twisteta import models

    scales = ",".join(str(-1.5 + 0.2 * i) for i in range(16))
    cfg = write(tmp_path, "c.txt",
                "geometry = lens\nlens_p = 12\nbundle = lens_character\ncharacter = 5\n"
                f"radius = 1.1\nflux = 0.37\nsweep = {scales}\n")
    models._family_table.cache_clear()
    assert main(["conformal", "--config", cfg, "--out", str(tmp_path / "o.jsonl")]) == EXIT_OK
    # the character 5 and the trivial partner: 17 rho, 34 eta, 2 tables
    info = models._family_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 32, 2)
    # bounded: a new key past the limit evicts the oldest entry
    for i in range(info.maxsize + 10):
        models.progression_spectrum(SpectralModel(Circle(1.0), CircleHolonomy(i / 1000.0)))
    assert models._family_table.cache_info().currsize == info.maxsize


def test_lw_command(tmp_path):
    cfg = write(tmp_path, "c.txt",
                "geometry = torus3\nflux_cosine = 0:1.0\ncutoff = 6\n")
    out = tmp_path / "lw.jsonl"
    assert main(["lw", "--config", cfg, "--out", str(out)]) == EXIT_OK
    by_name = {r.quantity: r for r in read_records(out)}
    assert by_name["lw_residual_deg3"].value <= 1e-10
    assert by_name["lw_residual_general"].value <= 1e-10


def run_fresh(args, cwd):
    """Run ``python args`` in a new interpreter with this checkout's ``src``
    first on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))


def test_cli_import_loads_only_what_every_command_needs(tmp_path):
    # no command imports scipy, which only the tests' sparse reference
    # operators use; the selftest criteria are imported by the one branch
    # that runs them, and no command imports a thread pool.  In pytest they
    # are already loaded, so only a cold interpreter shows it
    proc = run_fresh(["-c", "import sys, twisteta.cli; print(*sorted(sys.modules))"],
                     tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "twisteta.cli" in loaded and "numpy" in loaded
    deferred = [m for m in loaded
                if m.split(".")[0] == "scipy" or m == "twisteta.selftest"
                or m == "concurrent.futures" or m.startswith("concurrent.futures.")]
    assert deferred == []


_NO_SCIPY = """\
import importlib, importlib.abc, json, sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)


sys.meta_path.insert(0, NoScipy())
try:
    importlib.import_module("scipy.sparse")
    raise SystemExit("scipy was not blocked")
except ModuleNotFoundError:
    pass
import twisteta
from twisteta.cli import main

codes = [main(json.loads(argv)) for argv in sys.argv[1:]]
print(json.dumps(codes))
"""


def test_every_command_runs_without_scipy(tmp_path):
    # numpy is the one runtime dependency: under a finder that refuses scipy,
    # every command exits, and writes, as it does here with scipy loaded
    cfgs = {name: write(tmp_path, f"{name}.txt", text) for name, text in _COMMAND_CONFIGS.items()}
    argv = lambda name, out: [name, "--config", cfgs[name], "--out", str(tmp_path / out)]
    blocked = [argv(name, f"{name}.blocked") for name in cfgs] + [["selftest"]]
    proc = run_fresh(["-c", _NO_SCIPY, *map(json.dumps, blocked)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    expected = [main(argv(name, f"{name}.jsonl")) for name in cfgs] + [main(["selftest"])]
    assert json.loads(proc.stdout.splitlines()[-1]) == expected == [EXIT_OK] * 7
    strip = lambda out: [dataclasses.replace(r, wall_time=0.0) for r in read_records(out)]
    for name in cfgs:
        assert strip(tmp_path / f"{name}.blocked") == strip(tmp_path / f"{name}.jsonl"), name


@pytest.mark.parametrize("command,text,reason", [
    ("eta", "geometry = circle\nengine = heat\nrank = 10000000000000000000\n", "2^53"),
    ("psc", "geometry = sphere3\nrank = 10000000000000000000\nsweep = 0,0.2\n", "2^53"),
    # 2^62 + 1 times the sphere's multiplicities wraps in int64
    ("eta", "geometry = sphere3\nengine = heat\nrank = 4611686018427387905\n", "2^53"),
    # the Hurwitz kernel count 2^53 + 1 of the circle's one zero mode
    ("eta", "geometry = circle\nrank = 9007199254740993\n", "2^53"),
    # rank times the Hurwitz eta: no double holds 10^400, nor 10^308 times
    # the kernel 2 at flux 3/2
    ("eta", f"geometry = sphere3\nflux = 0.3\nrank = {10**400}\n", "double range"),
    ("eta", f"geometry = sphere3\nflux = 1.5\nrank = {10**308}\n", "2^53"),
    # the derived heat cutoff's rank times the tail: no double holds 10^400
    ("eta", f"geometry = sphere3\nengine = heat\nflux = 0.3\nrank = {10**400}\n",
     "double range"),
], ids=["circle-heat", "sphere-psc", "sphere-heat-int64", "circle-hurwitz-kernel",
        "sphere-hurwitz-past-doubles", "sphere-hurwitz-kernel-past-doubles",
        "sphere-heat-derived-cutoff-past-doubles"])
def test_rank_past_exact_float64_multiplicities_is_refused(tmp_path, capsys, command, text,
                                                           reason):
    cfg = write(tmp_path, "c.txt", text)
    out = tmp_path / "out.jsonl"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "rank" in err and reason in err and "Traceback" not in err
    assert not out.exists()


def test_hurwitz_eta_at_a_huge_rank_enumerates_nothing(tmp_path):
    cfg = write(tmp_path, "c.txt", "geometry = circle\nrank = 10000000000000000000\n")
    out = tmp_path / "out.jsonl"
    assert main(["eta", "--config", cfg, "--out", str(out)]) == EXIT_OK
    by_name = {r.quantity: r for r in read_records(out)}
    assert by_name["kernel_dim"].value == 1e19 and by_name["eta"].value == 0.0


def test_lw_command_in_a_fresh_interpreter(tmp_path):
    cfg = write(tmp_path, "c.txt", "geometry = torus3\nflux_cosine = 0:1.0\ncutoff = 3\n")
    out = tmp_path / "lw.jsonl"
    proc = run_fresh(["-m", "twisteta", "lw", "--config", cfg, "--out", str(out)], tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    by_name = {r.quantity: r for r in read_records(out)}
    assert by_name["lw_residual_deg3"].value <= 1e-10
    assert by_name["lw_residual_general"].value <= 1e-10
    # the check works on the operators' symbols: the same entry point, run
    # by runpy as -m runs it, leaves no scipy module loaded
    again = tmp_path / "again.jsonl"
    script = ("import runpy, sys\n"
              "try:\n"
              "    runpy.run_module('twisteta', run_name='__main__', alter_sys=True)\n"
              "except SystemExit as stop:\n"
              "    code = stop.code\n"
              "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
              "raise SystemExit(code)\n")
    proc = run_fresh(["-c", script, "lw", "--config", cfg, "--out", str(again)], tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.split() == []
    assert [(r.quantity, r.value) for r in read_records(again)] == \
        [(r.quantity, r.value) for r in read_records(out)]


@pytest.mark.parametrize("text", [
    "geometry = torus3\ncutoff = 4\nflux = 1e150\n",  # row * column sum overflows
    "geometry = torus3\ncutoff = 4\nflux_cosine = 0:1e160\n",  # f^2 overflows: inf * 0
], ids=["inf", "nan"])
def test_lw_residual_that_overflows_is_refused(tmp_path, capsys, text):
    cfg = write(tmp_path, "c.txt", text)
    out = tmp_path / "out.jsonl"
    assert main(["lw", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "flux" in err and "overflows" in err and "Traceback" not in err
    assert not out.exists()


def test_lw_cutoff_past_the_mode_budget_is_refused_before_any_array(tmp_path, monkeypatch,
                                                                      capsys):
    # at cutoff 120 the box holds 241^3 modes, whose stacked symbol took
    # gigabytes; the budget refuses it before the symbol is built
    def build(*args, **kwargs):
        raise AssertionError("the Dirac symbol was built")

    monkeypatch.setattr("twisteta.weitzenbock._dirac_symbol", build)
    cfg = write(tmp_path, "c.txt", "geometry = torus3\ncutoff = 120\nflux = 0.5\n")
    out = tmp_path / "out.jsonl"
    assert main(["lw", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "cutoff 120" in err and "Traceback" not in err
    assert not out.exists()


def test_heat_cutoff_past_the_shell_budget_is_refused_before_any_array(tmp_path, monkeypatch,
                                                                       capsys):
    # at cutoff 200 this torus has 13.6M levels, whose odd trace ran out of
    # memory; the budget refuses the cutoff before the spectrum is enumerated
    def enumerate_spectrum(*args, **kwargs):
        raise AssertionError("the spectrum was enumerated")

    monkeypatch.setattr("twisteta.eta.enumerate_spectrum", enumerate_spectrum)
    cfg = write(tmp_path, "c.txt", "geometry = torus3\nlengths = 1.0,1.3,0.7\n"
                "bundle = torus_holonomy\nholonomy = 0.3,0.1,0\nengine = heat\n"
                "flux = 0.1\ncutoff = 200\n")
    out = tmp_path / "out.jsonl"
    assert main(["eta", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "cutoff 200" in err and "Traceback" not in err
    assert not out.exists()


def test_lw_requires_torus(tmp_path):
    cfg = write(tmp_path, "c.txt", "geometry = sphere3\n")
    assert main(["lw", "--config", cfg]) == EXIT_CONFIG


def test_psc_command_and_violation_exit(tmp_path, monkeypatch):
    cfg = write(tmp_path, "c.txt", "geometry = sphere3\nsweep = 0.0,0.2,0.4\n")
    out = tmp_path / "psc.jsonl"
    assert main(["psc", "--config", cfg, "--out", str(out)]) == EXIT_OK
    by_name = {r.quantity: r for r in read_records(out)}
    assert by_name["u0"].value == pytest.approx(0.8660254037844386, abs=1e-12)
    assert by_name["sf"].value == 0.0
    # an inflated curvature claims a threshold beyond the true first kernel
    # at u = 3/2: exit 4
    monkeypatch.setattr(Sphere3, "scalar_curvature", 60.0)
    bad = write(tmp_path, "bad.txt", "geometry = sphere3\nsweep = 0.0,1.5\n")
    assert main(["psc", "--config", bad]) == EXIT_VIOLATION


def test_psc_heat_records_carry_their_bounds(tmp_path):
    # the heat engine misses the exact rho = -1/3 at this short cutoff
    cfg = write(tmp_path, "c.txt",
                "geometry = lens\nlens_p = 3\nbundle = lens_character\ncharacter = 1\n"
                "engine = heat\ncutoff = 20\nsweep = 0,0.3,0.6\n")
    out = tmp_path / "psc.jsonl"
    assert main(["psc", "--config", cfg, "--out", str(out)]) == EXIT_UNCONVERGED
    records = read_records(out)
    rhos = [r for r in records if r.quantity == "rho"]
    assert [r.param for r in rhos] == [0.0, 0.3, 0.6]
    for r in rhos:
        assert not r.converged
        assert abs(r.value - (-1.0 / 3.0)) <= r.error_bound
    dev = {r.quantity: r for r in records}["rho_deviation_max"]
    assert not dev.converged
    assert dev.error_bound == rhos[0].error_bound + max(r.error_bound for r in rhos)


def test_psc_honours_tol(tmp_path):
    # rho is evaluated at the tol asked for, which this heat cutoff misses
    cfg = write(tmp_path, "c.txt",
                "geometry = sphere3\nengine = heat\ncutoff = 60\ntol = 1e-14\n"
                "sweep = 0.0,0.2\n")
    out = tmp_path / "psc.jsonl"
    assert main(["psc", "--config", cfg, "--out", str(out)]) == EXIT_UNCONVERGED
    assert not {r.quantity: r for r in read_records(out)}["rho_deviation_max"].converged


def test_psc_kernel_scan_ignores_the_heat_cutoff(tmp_path):
    # cutoff = 2 enumerates no level of this lens character; the kernel scan
    # does not read it, and the Hurwitz engine ignores it
    text = ("geometry = lens\nlens_p = 12\nbundle = lens_character\ncharacter = 6\n"
            "engine = hurwitz\nsweep = 0.0,0.2\n")
    runs = {}
    for name, extra in (("plain", ""), ("cut", "cutoff = 2\n")):
        cfg = write(tmp_path, f"{name}.txt", text + extra)
        out = tmp_path / f"{name}.jsonl"
        assert main(["psc", "--config", cfg, "--out", str(out)]) == EXIT_OK
        runs[name] = [dataclasses.replace(r, config={}, config_hash="", wall_time=0.0)
                      for r in read_records(out)]
    assert runs["cut"] == runs["plain"]
    assert {r.quantity: r for r in runs["plain"]}["first_kernel_u"].value == 6.5


@pytest.mark.parametrize("command,text,key", [
    ("eta", "tol = nan\n", "tol"),
    ("eta", "tol = 0\n", "tol"),
    ("eta", "tol = -1\n", "tol"),
    ("eta", "cutoff = 0\n", "cutoff"),
    ("psc", "sweep = 0.0,0.2\nh_norm = nan\n", "h_norm"),
    ("psc", "sweep = 0.0,0.2\nh_norm = inf\n", "h_norm"),
    ("psc", "sweep = 0.0,0.2\nr_min = nan\n", "unknown key 'r_min'"),
], ids=["eta-tol-nan", "eta-tol-0", "eta-tol-negative", "eta-cutoff-0",
        "psc-h_norm-nan", "psc-h_norm-inf", "psc-r_min-nan"])
def test_bad_setting_is_a_config_error_naming_it(tmp_path, capsys, command, text, key):
    cfg = write(tmp_path, "c.txt", "geometry = sphere3\n" + text)
    out = tmp_path / "out.jsonl"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,text,key", [
    ("lw", "geometry = torus3\ncutoff = 3\nflux_cosine = 0:nan\n", "flux_cosine"),
    ("lw", "geometry = torus3\ncutoff = 3\nflux_cosine = 0:inf:1\n", "flux_cosine"),
    ("lw", "geometry = torus3\ncutoff = 3\nflux_cosine = 0:0.5:0\n", "flux_cosine"),
    ("lw", "geometry = torus3\ncutoff = 3\ntol = nan\n", "tol"),
    ("psc", "geometry = sphere3\nsweep = nan\n", "sweep"),
    ("specflow", "geometry = sphere3\nsweep = 0.5,inf\n", "sweep"),
    ("conformal", "geometry = sphere3\nsweep = -inf\n", "sweep"),
    ("lw", "geometry = torus3\ncutoff = 3\nengine = bogus\n", "engine"),
    ("lw", "geometry = torus3\ncutoff = 0\n", "cutoff"),
    ("lw", "geometry = torus3\ncutoff = 3\nformat = xml\n", "format"),
], ids=["lw-cosine-nan", "lw-cosine-inf", "lw-cosine-harmonic-0", "lw-tol-nan",
        "psc-sweep-nan", "specflow-sweep-inf", "conformal-sweep-inf",
        "lw-engine-bogus", "lw-cutoff-0", "lw-format-xml"])
def test_bad_value_is_refused_under_its_own_key(tmp_path, capsys, command, text, key):
    cfg = write(tmp_path, "c.txt", text)
    out = tmp_path / "out.jsonl"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert "flux must" not in err
    assert not out.exists()


def test_tol_flag_is_checked_like_the_key(tmp_path, capsys):
    cfg = write(tmp_path, "c.txt", "geometry = torus3\ncutoff = 3\n")
    out = tmp_path / "out.jsonl"
    assert main(["lw", "--config", cfg, "--out", str(out), "--tol", "nan"]) == EXIT_CONFIG
    assert "'tol'" in capsys.readouterr().err
    assert not out.exists()


def test_flux_with_flux_cosine_names_both_keys(tmp_path, capsys):
    # the records would echo and hash a constant flux the check never saw
    cfg = write(tmp_path, "c.txt",
                "geometry = torus3\ncutoff = 3\nflux = 0.3\nflux_cosine = 0:0.5\n")
    out = tmp_path / "out.jsonl"
    assert main(["lw", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'flux'" in err and "'flux_cosine'" in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--format", "xml"), ("--cutoff", "0"),
])
def test_bad_flag_is_refused_under_its_own_key(tmp_path, capsys, flag, value):
    cfg = write(tmp_path, "c.txt", "geometry = torus3\ncutoff = 3\n")
    out = tmp_path / "out.jsonl"
    assert main(["lw", "--config", cfg, "--out", str(out), flag, value]) == EXIT_CONFIG
    assert f"'{flag[2:]}'" in capsys.readouterr().err
    assert not out.exists()


def test_workers_key_is_unknown(tmp_path, capsys):
    cfg = write(tmp_path, "c.txt", CIRCLE_CFG + "workers = 2\n")
    assert main(["specflow", "--config", cfg]) == EXIT_CONFIG
    assert "unknown key 'workers'" in capsys.readouterr().err


def test_workers_flag_is_unknown(tmp_path, capsys):
    cfg = write(tmp_path, "c.txt", CIRCLE_CFG + "sweep = 0.1\n")
    with pytest.raises(SystemExit) as exc:
        main(["specflow", "--config", cfg, "--workers", "2"])
    assert exc.value.code == EXIT_CONFIG
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--config", "c.txt"]],
                         ids=["empty", "unknown", "options-only"])
def test_missing_or_unknown_command_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert "command" in capsys.readouterr().err


def test_lw_zeroth_order_block_mismatch_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("twisteta.weitzenbock._zeroth_order_block",
                        lambda rep, h_terms: -1.9 * np.eye(2, dtype=complex))
    cfg = write(tmp_path, "c.txt", "geometry = torus3\ncutoff = 3\nflux = 0.3\n")
    out = tmp_path / "out.jsonl"
    assert main(["lw", "--config", cfg, "--out", str(out)]) == EXIT_VIOLATION
    assert "invariant violation" in capsys.readouterr().err
    assert not out.exists()


def test_conformal_command(tmp_path):
    cfg = write(tmp_path, "c.txt",
                "geometry = lens\nlens_p = 3\nbundle = lens_character\ncharacter = 1\n"
                "flux = 0.1\nsweep = -1.0,1.0\n")
    out = tmp_path / "conf.jsonl"
    assert main(["conformal", "--config", cfg, "--out", str(out)]) == EXIT_OK
    devs = [r.value for r in read_records(out) if r.quantity == "rho_deviation"]
    assert devs and all(d <= 1e-8 for d in devs)


@pytest.mark.parametrize("sweep", ["0.5,800", "0.5,-800"], ids=["overflow", "underflow"])
def test_conformal_scale_out_of_float_range_is_config_error(tmp_path, capsys, sweep):
    cfg = write(tmp_path, "c.txt", f"geometry = sphere3\nflux = 0.1\nsweep = {sweep}\n")
    out = tmp_path / "conf.jsonl"
    assert main(["conformal", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "conformal factor" in capsys.readouterr().err
    assert not out.exists()


# bad_at is the 1-based position of the out-of-range scale in the sweep: the
# scale is checked for every point before the first rho, wherever it sits.
@pytest.mark.parametrize("bad_at", ["1", "2"])
def test_conformal_bad_scale_is_refused_before_any_rho(tmp_path, monkeypatch, capsys, bad_at):
    from twisteta import cli

    calls = []
    rho_sweep = cli.rho_sweep
    monkeypatch.setattr(cli, "rho_sweep", lambda *a, **k: calls.append(1) or rho_sweep(*a, **k))
    sweep = "800,0.5" if bad_at == "1" else "0.5,800"
    cfg = write(tmp_path, "c.txt", f"geometry = sphere3\nflux = 0.1\nsweep = {sweep}\n")
    out = tmp_path / "conf.jsonl"
    assert main(["conformal", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "conformal factor" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


LENS_3_1 = "geometry = lens\nlens_p = 3\nbundle = lens_character\ncharacter = 1\n"


def test_conformal_scale_past_the_kernel_threshold_is_config_error(tmp_path, monkeypatch,
                                                                     capsys):
    # u = 22 stretches the radius to 3.6e9, where the levels 3.5e-10 apart
    # fall under the kernel threshold ZERO_TOL; it once gave rho = -2.333
    # against -1/3 at u = 0, marked converged
    from twisteta import cli

    calls = []
    rho_sweep = cli.rho_sweep
    monkeypatch.setattr(cli, "rho_sweep", lambda *a, **k: calls.append(1) or rho_sweep(*a, **k))
    cfg = write(tmp_path, "c.txt", LENS_3_1 + "flux = 0.1\nsweep = 22\n")
    out = tmp_path / "conf.jsonl"
    assert main(["conformal", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'sweep'" in err and "radius" in err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("command,text", [
    ("rho", LENS_3_1 + "radius = 1e10\n"),
    ("eta", "geometry = torus3\nlengths = 1.0,1.0,2e6\nengine = heat\n"),
], ids=["lens-radius-1e10", "torus-edge-2e6"])
def test_length_past_the_kernel_threshold_is_config_error(tmp_path, capsys, command, text):
    # rho of the lens at radius 1e10 once gave -6.333, marked converged
    cfg = write(tmp_path, "c.txt", text)
    out = tmp_path / "out.jsonl"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and ("radius" in err if command == "rho" else "lengths" in err)
    assert not out.exists()


THIN_TORUS = "geometry = torus3\nengine = heat\nflux = 0.1\ncutoff = 40\nsweep = 0.1\n"


@pytest.mark.parametrize("command", ["eta", "specflow"])
def test_empty_shell_of_a_thin_torus_is_config_error_naming_cutoff(tmp_path, capsys, command):
    # no mode of the unit edges fits the shell (cutoff + 1/2)/100 at cutoff 40;
    # this once ended in an IndexError traceback
    cfg = write(tmp_path, "c.txt", THIN_TORUS + "lengths = 1.0,1.0,100\n")
    out = tmp_path / "out.jsonl"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "cutoff 40" in err
    assert not out.exists()


def test_specflow_on_a_thin_torus_counts_past_empty_shells(tmp_path):
    # the zero-flux spectrum of the flow count is empty at cutoffs 8, 16 and
    # 32 here and first holds modes at 64; the flux crosses none of them
    cfg = write(tmp_path, "c.txt", THIN_TORUS + "lengths = 1.0,1.0,50\n")
    out = tmp_path / "out.jsonl"
    assert main(["specflow", "--config", cfg, "--out", str(out)]) == EXIT_UNCONVERGED
    [sf] = [r for r in read_records(out) if r.quantity == "sf"]
    assert sf.value == 0.0 and sf.param == 0.1


def test_radius_at_the_length_limit_is_accepted(tmp_path):
    cfg = write(tmp_path, "c.txt", LENS_3_1 + "radius = 1e6\n")
    out = tmp_path / "out.jsonl"
    assert main(["rho", "--config", cfg, "--out", str(out)]) == EXIT_OK
    [value] = [r for r in read_records(out) if r.quantity == "rho"]
    assert value.value == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert value.converged


def test_conformal_deviation_bound_includes_base(tmp_path):
    # |rho_u - rho_0| is off by at most b_u + b_0, and converged only when both are
    cfg = write(tmp_path, "c.txt",
                "geometry = circle\nbundle = circle_holonomy\nholonomy = 0.3\nflux = 0.2\n"
                "engine = heat_kernel\ncutoff = 35\nsweep = -1.5\n")
    out = tmp_path / "conf.jsonl"
    assert main(["conformal", "--config", cfg, "--out", str(out)]) == EXIT_OK
    point, dev = read_records(out)
    model = SpectralModel(Circle(1.0), CircleHolonomy(0.3), flux_shift=0.2)
    base = rho(model, engine="heat_kernel", cutoff=35)
    assert point.quantity == "rho" and dev.quantity == "rho_deviation"
    assert base.error_bound > 0.0 and point.error_bound > 0.0
    assert dev.error_bound == point.error_bound + base.error_bound
    assert dev.converged


def test_unconverged_exit_code(tmp_path):
    cfg = write(tmp_path, "c.txt",
                "geometry = circle\nbundle = circle_holonomy\nholonomy = 0.25\n"
                "engine = heat_kernel\ncutoff = 8\ntol = 1e-13\n")
    out = tmp_path / "out.jsonl"
    assert main(["eta", "--config", cfg, "--out", str(out)]) == EXIT_UNCONVERGED
    records = read_records(out)
    assert any(not r.converged for r in records)  # flagged, still reported


def test_duplicate_key_rejected(tmp_path):
    cfg = write(tmp_path, "c.txt", "geometry = circle\ngeometry = sphere3\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(cfg)


def test_model_config_round_trip(tmp_path):
    # every geometry and bundle class is built from its config keys
    from twisteta.models import (Circle, CircleHolonomy, Lens, LensCharacter,
                                 SpectralModel, Sphere3, Torus3, TorusHolonomy,
                                 TrivialBundle)

    cases = [
        ("geometry = circle\nradius = 0.8\nbundle = circle_holonomy\n"
         "holonomy = 0.35\nflux = 0.2\n",
         SpectralModel(Circle(radius=0.8), CircleHolonomy(0.35), flux_shift=0.2)),
        ("geometry = sphere3\nradius = 2.5\nbundle = trivial\nrank = 2\nflux = -0.7\n",
         SpectralModel(Sphere3(radius=2.5), TrivialBundle(2), flux_shift=-0.7)),
        ("geometry = lens\nradius = 1.5\nlens_p = 3\nbundle = lens_character\n"
         "character = 2\nflux = 0.3\n",
         SpectralModel(Lens(3, radius=1.5), LensCharacter(3, 2), flux_shift=0.3)),
        ("geometry = torus3\nlengths = 1.0,1.3,0.7\nspin_structure = 0.0,0.5,0.5\n"
         "bundle = torus_holonomy\nholonomy = 0.2,0.0,0.4\nflux = -0.1\n",
         SpectralModel(Torus3((1.0, 1.3, 0.7), (0.0, 0.5, 0.5)),
                       TorusHolonomy((0.2, 0.0, 0.4)), flux_shift=-0.1)),
    ]
    for text, model in cases:
        cfg = RunConfig.from_file(write(tmp_path, "m.txt", text))
        assert cfg.model() == model


@pytest.mark.parametrize("text,key", [
    ("geometry = circle\nbundle = circle_holonomy\nholonomy = 0.25\n"
     "engine = heat\nflux = inf\n", "flux"),
    ("geometry = sphere3\nengine = hurwitz\nflux = nan\n", "flux"),
    ("geometry = sphere3\nradius = nan\n", "radius"),
], ids=["circle-heat-flux-inf", "sphere3-hurwitz-flux-nan", "sphere3-radius-nan"])
def test_non_finite_input_is_a_config_error(tmp_path, capsys, text, key):
    cfg = write(tmp_path, "c.txt", text)
    assert main(["eta", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{key} must be finite" in err
    assert "too large to fold" not in err


@pytest.mark.parametrize("flux", ["1e160", "1e300", "1e150"])
def test_huge_flux_heat_engine_is_a_config_error(tmp_path, capsys, flux):
    cfg = write(tmp_path, "c.txt",
                "geometry = circle\nbundle = circle_holonomy\nholonomy = 0.25\n"
                f"engine = heat\nflux = {flux}\n")
    assert main(["eta", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "eigenvalues are too large for the heat engine" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,text", [
    ("eta", "geometry = lens\nlens_p = 3\nradius = 1e-110\nflux = 0.3\n"),
    # e^-287.1616 rescales the unit sphere to a radius near 1.6e-125
    ("conformal", "geometry = sphere3\nflux = 0.002298\nsweep = -287.1616\n"),
    # no cutoff: the derived one's time t_geo = (2 pi r)^2/240 underflows to 0
    ("rho", "geometry = sphere3\nradius = 1e-200\nflux = 0.3\n"),
], ids=["eta-lens", "conformal-sphere3", "rho-sphere3-derived-cutoff"])
def test_heat_radius_past_the_double_range_is_a_config_error(tmp_path, capsys, command, text):
    # the remainder's (2 pi r)^-3 overflowed: exit 1 with a traceback, and the
    # derived cutoff divided by zero; the Hurwitz engine still evaluates the
    # same conformal points
    out = tmp_path / "out.jsonl"
    cfg = write(tmp_path, "c.txt", text + "engine = heat\n")
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: eigenvalues are too large for the heat engine: ")
    assert err.endswith(" puts the error budget outside the double range\n")
    assert not out.exists()
    if command == "conformal":
        cfg = write(tmp_path, "c.txt", text + "engine = hurwitz\n")
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("model,flux", [
    ("geometry = circle\nbundle = circle_holonomy\nholonomy = 0.25\n", "1e20"),
    ("geometry = sphere3\n", "1e8"),
    ("geometry = torus3\n", "1e3"),
], ids=["circle", "sphere3", "torus3"])
def test_huge_flux_is_refused_by_the_shell_budget_before_enumerating(
        tmp_path, capsys, monkeypatch, model, flux):
    # the derived cutoff would pass the shell budget: refused before any
    # level is enumerated, in well under a MB
    import tracemalloc

    from twisteta import eta as eta_mod

    def refuse(*args, **kwargs):
        raise AssertionError("the budget must act before enumeration")

    monkeypatch.setattr(eta_mod, "enumerate_spectrum", refuse)
    cfg = write(tmp_path, "c.txt", model + f"engine = heat\nflux = {flux}\n")
    tracemalloc.start()
    try:
        code = main(["eta", "--config", cfg])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG
    assert peak < 2**20
    err = capsys.readouterr().err
    assert "eigenvalues are too large for the heat engine" in err
    assert "over 1048576 levels" in err and "Traceback" not in err


@pytest.mark.parametrize("model", [
    "geometry = sphere3\n",
    "geometry = lens\nlens_p = 5\nbundle = lens_character\ncharacter = 2\nradius = 1.3\n",
], ids=["sphere3", "lens"])
def test_huge_flux_hurwitz_engine_is_a_config_error(tmp_path, capsys, model):
    cfg = write(tmp_path, "c.txt", model + "engine = hurwitz\nflux = 1e300\n")
    assert main(["eta", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "flux" in err and "too large to fold" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["config-missing", "config-is-a-directory",
                                  "out-is-a-directory", "out-directory-missing"])
def test_unreadable_config_or_unwritable_out_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                               case):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "c.txt", CIRCLE_CFG)
    argv, path = {
        "config-missing": (["--config", "missing.cfg"], "missing.cfg"),
        "config-is-a-directory": (["--config", str(tmp_path)], str(tmp_path)),
        "out-is-a-directory": (["--config", cfg, "--out", str(tmp_path)], str(tmp_path)),
        "out-directory-missing": (["--config", cfg, "--out", "nodir/x.json"], "nodir/x.json"),
    }[case]

    def refuse(*args, **kwargs):
        raise AssertionError("a bad path must be refused before any computation")

    monkeypatch.setattr(cli, "eta_for_model", refuse)
    assert main(["eta", *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(path) in err


def test_a_failed_write_is_a_config_error_naming_the_path(tmp_path):
    out = str(tmp_path / "gone" / "x.json")
    with pytest.raises(ConfigError, match=f"cannot write output {out!r}"):
        write_records([], "json", out)


@pytest.mark.parametrize("holonomy,flux,cutoff", [
    ("0.25", "1e20", None),  # every n + a + t rounds to one double
    ("0.3", "45", 40),       # was a spurious pole, exit 1 with a traceback
    ("0.3", "30", 40),       # was unconverged, bound 1.78
])
def test_flux_beyond_half_the_spectrum_heat_engine_is_a_config_error(
        tmp_path, capsys, holonomy, flux, cutoff):
    cfg = write(tmp_path, "c.txt",
                f"geometry = circle\nbundle = circle_holonomy\nholonomy = {holonomy}\n"
                f"engine = heat\nflux = {flux}\n"
                + (f"cutoff = {cutoff}\n" if cutoff is not None else ""))
    assert main(["eta", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "eigenvalues are too large for the heat engine" in err
    # without a cutoff none fits up to 524286, the last of the 2N + 3 <= 2^20
    # levels of the shell budget
    assert "radius" in err and f"cutoff {cutoff or 524287}" in err
    assert "Traceback" not in err


def test_lens_heat_under_resolved_is_unconverged_not_a_pole(tmp_path, capsys):
    # a cutoff too low for this lens (t_floor above t_geo) is reported
    # unconverged (exit 3), honest to its bound
    cfg = write(tmp_path, "c.txt",
                "geometry = lens\nbundle = lens_character\nlens_p = 12\ncharacter = 0\n"
                "radius = 1.2690035052537247\nflux = 1.5\nengine = heat\ncutoff = 40\n")
    out = tmp_path / "out.jsonl"
    assert main(["eta", "--config", cfg, "--out", str(out)]) == EXIT_UNCONVERGED
    assert "Traceback" not in capsys.readouterr().err
    eta = {r.quantity: r for r in read_records(out)}["eta"]
    assert not eta.converged
    hurwitz = eta_for_model(RunConfig.from_file(cfg).model(), "hurwitz").eta
    assert hurwitz == pytest.approx(1.6822553845860109, abs=1e-12)
    assert abs(eta.value - hurwitz) <= eta.error_bound


def test_non_cubic_holonomy_torus_heat_converges_at_its_default_cutoff(tmp_path):
    # t_geo = 0.7^2/240 = 2.0e-3 lies above the tail floor 1.1e-3 of N = 40;
    # below the first crossing eta = -Vol t^3/(3 pi^2)
    cfg = write(tmp_path, "c.txt",
                "geometry = torus3\nlengths = 1.0,1.3,0.7\nbundle = torus_holonomy\n"
                "holonomy = 0.3,0.1,0\nengine = heat\nflux = 0.1\n")
    out = tmp_path / "out.jsonl"
    assert main(["eta", "--config", cfg, "--out", str(out)]) == EXIT_OK
    eta = {r.quantity: r for r in read_records(out)}["eta"]
    assert eta.converged
    assert abs(eta.value - (-1.0 * 1.3 * 0.7 * 0.1**3 / (3 * math.pi**2))) <= eta.error_bound


def test_torus_heat_default_cutoff_converges(tmp_path):
    cfg = write(tmp_path, "c.txt", "geometry = torus3\nengine = heat\nflux = 0.5\n")
    out = tmp_path / "out.jsonl"
    assert main(["eta", "--config", cfg, "--out", str(out)]) == EXIT_OK
    eta = {r.quantity: r for r in read_records(out)}["eta"]
    assert eta.converged
    assert abs(eta.value - (-0.5**3 / (3 * math.pi**2))) <= eta.error_bound


def test_flag_overrides_config(tmp_path):
    cfg = write(tmp_path, "c.txt",
                "geometry = circle\nbundle = circle_holonomy\nholonomy = 0.25\n"
                "engine = heat_kernel\ncutoff = 50\n")
    out = tmp_path / "out.jsonl"
    assert main(["eta", "--config", cfg, "--out", str(out), "--cutoff", "200"]) == EXIT_OK
    rec = read_records(out)[0]
    assert rec.config["cutoff"] == 200
