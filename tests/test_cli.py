import json
import math

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
)


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
    return [ResultRecord.from_json(line)
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


def test_json_records_round_trip(tmp_path):
    cfg = write(tmp_path, "c.txt", CIRCLE_CFG)
    out = tmp_path / "out.jsonl"
    main(["eta", "--config", cfg, "--out", str(out)])
    for line in out.read_text().splitlines():
        rec = ResultRecord.from_json(line)
        assert rec.to_json() == json.dumps(json.loads(line), sort_keys=True)
        assert ResultRecord.from_json(rec.to_json()) == rec


def test_deterministic_output_modulo_wall_time(tmp_path):
    cfg = write(tmp_path, "c.txt", CIRCLE_CFG)
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["eta", "--config", cfg, "--out", str(out1)])
    main(["eta", "--config", cfg, "--out", str(out2)])
    strip = lambda recs: [
        (r.quantity, r.value, r.error_bound, r.method, r.param, r.config_hash, r.config)
        for r in recs]
    assert strip(read_records(out1)) == strip(read_records(out2))


def test_unknown_key_rejected(tmp_path):
    cfg = write(tmp_path, "c.txt", "geometry = circle\nbogus_key = 1\n")
    assert main(["eta", "--config", cfg]) == EXIT_CONFIG


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
        write(tmp_path, "b.txt", CIRCLE_CFG + "format = csv\nworkers = 4\n"))
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


def test_specflow_workers_preserve_order(tmp_path):
    sweep = "0.1,0.2,0.3,0.4"
    cfg1 = write(tmp_path, "c1.txt", f"geometry = sphere3\nsweep = {sweep}\n")
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["specflow", "--config", cfg1, "--out", str(out1)]) == EXIT_OK
    assert main(["specflow", "--config", cfg1, "--out", str(out2),
                 "--workers", "4"]) == EXIT_OK
    a = [(r.param, r.quantity, r.value) for r in read_records(out1)]
    b = [(r.param, r.quantity, r.value) for r in read_records(out2)]
    assert a == b


def test_lw_command(tmp_path):
    cfg = write(tmp_path, "c.txt",
                "geometry = torus3\nflux_cosine = 0:1.0\ncutoff = 6\n")
    out = tmp_path / "lw.jsonl"
    assert main(["lw", "--config", cfg, "--out", str(out)]) == EXIT_OK
    by_name = {r.quantity: r for r in read_records(out)}
    assert by_name["lw_residual_deg3"].value <= 1e-10
    assert by_name["lw_residual_general"].value <= 1e-10


def test_lw_requires_torus(tmp_path):
    cfg = write(tmp_path, "c.txt", "geometry = sphere3\n")
    assert main(["lw", "--config", cfg]) == EXIT_CONFIG


def test_psc_command_and_violation_exit(tmp_path):
    cfg = write(tmp_path, "c.txt", "geometry = sphere3\nsweep = 0.0,0.2,0.4\n")
    out = tmp_path / "psc.jsonl"
    assert main(["psc", "--config", cfg, "--out", str(out)]) == EXIT_OK
    by_name = {r.quantity: r for r in read_records(out)}
    assert by_name["u0"].value == pytest.approx(0.8660254037844386, abs=1e-12)
    assert by_name["sf"].value == 0.0
    # inflated r_min claims a threshold beyond the true first kernel: exit 4
    bad = write(tmp_path, "bad.txt",
                "geometry = sphere3\nsweep = 0.0,1.5\nr_min = 60.0\n")
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


def test_conformal_command(tmp_path):
    cfg = write(tmp_path, "c.txt",
                "geometry = lens\nlens_p = 3\nbundle = lens_character\ncharacter = 1\n"
                "flux = 0.1\nsweep = -1.0,1.0\n")
    out = tmp_path / "conf.jsonl"
    assert main(["conformal", "--config", cfg, "--out", str(out)]) == EXIT_OK
    devs = [r.value for r in read_records(out) if r.quantity == "rho_deviation"]
    assert devs and all(d <= 1e-8 for d in devs)


def test_unconverged_exit_code(tmp_path):
    cfg = write(tmp_path, "c.txt",
                "geometry = circle\nbundle = circle_holonomy\nholonomy = 0.25\n"
                "engine = heat_kernel\ncutoff = 12\ntol = 1e-13\n")
    out = tmp_path / "out.jsonl"
    assert main(["eta", "--config", cfg, "--out", str(out)]) == EXIT_UNCONVERGED
    records = read_records(out)
    assert any(not r.converged for r in records)  # flagged, still reported


def test_duplicate_key_rejected(tmp_path):
    cfg = write(tmp_path, "c.txt", "geometry = circle\ngeometry = sphere3\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(cfg)


def test_model_config_round_trip(tmp_path):
    from twisteta.cli import model_to_config
    from twisteta.models import (Circle, CircleHolonomy, Lens, LensCharacter,
                                 SpectralModel, Sphere3, Torus3, TorusHolonomy,
                                 TrivialBundle)

    models = [
        SpectralModel(Circle(radius=0.8), CircleHolonomy(0.35), flux_shift=0.2),
        SpectralModel(Sphere3(radius=2.5), TrivialBundle(2), flux_shift=-0.7),
        SpectralModel(Lens(3, radius=1.5), LensCharacter(3, 2), flux_shift=0.3),
        SpectralModel(Torus3((1.0, 1.3, 0.7), (0.0, 0.5, 0.5)),
                      TorusHolonomy((0.2, 0.0, 0.4)), flux_shift=-0.1),
    ]
    for model in models:
        entries = model_to_config(model)
        text = "\n".join(f"{k} = {v}" for k, v in entries.items())
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
