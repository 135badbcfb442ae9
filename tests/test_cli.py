"""CLI surface: exit codes, outputs, bundled demo data fits."""

import importlib.resources
import json

import numpy as np
import pytest
from test_fitters import lm_exponential_fit

from ndtrap import io
from ndtrap.cli import KIND_RUNNERS, main
from ndtrap.config import SCENARIO_KINDS, serialize_scenario
from ndtrap.runner import load_bundled_scenario


MOTION_CFG = """
[scenario]
name = motion_demo
kind = motion
seed = 3

[particle]
diameter = 1 um
charge_sign = negative

[trap]
voltage = 4.5 kVpp
drive_frequency = 140 Hz
geometry_factor = 0.0005
characteristic_radius = 3 mm
pressure = 0 Torr

[run]
duration = 0.5 s
initial_charge = -100
damping = 0 1/s
"""

TRAJECTORY_CFG = ("[scenario]\nname = traj_demo\nkind = trajectory\nseed = 5\n"
                  "[particle]\ndiameter = 250 nm\ncharge_sign = negative\n"
                  "[run]\ninitial_charge = -20\nrate = 2 1/s\nduration = 5 s\n")


def bundled_data(name):
    return str(importlib.resources.files("ndtrap") / "scenarios" / "data" / name)


def write_scenario(tmp_path, name):
    sc = load_bundled_scenario(name)
    path = tmp_path / f"{name}.cfg"
    path.write_text(serialize_scenario(sc))
    return str(path)


def test_simulate_survival(tmp_path):
    cfg = write_scenario(tmp_path, "fig5_decay")
    out = tmp_path / "out"
    code = main(["simulate", "--config", cfg, "--out-dir", str(out)])
    assert code == 0
    assert (out / "survival.csv").exists()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["scenario"] == "fig5_decay"
    assert meta["losses"] > 0


def test_simulate_seed_changes_output(tmp_path):
    cfg = write_scenario(tmp_path, "fig9_steps")
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    assert main(["simulate", "--config", cfg, "--out-dir", str(out1), "--seed", "1"]) == 0
    assert main(["simulate", "--config", cfg, "--out-dir", str(out2), "--seed", "1"]) == 0
    assert main(["simulate", "--config", cfg, "--out-dir", str(out3), "--seed", "2"]) == 0
    a = (out1 / "frequency_trace.csv").read_bytes()
    b = (out2 / "frequency_trace.csv").read_bytes()
    c = (out3 / "frequency_trace.csv").read_bytes()
    assert a == b       # same seed, byte-identical
    assert a != c       # different seed, different trace


def test_simulate_motion_kind(tmp_path):
    cfg = tmp_path / "motion.cfg"
    cfg.write_text(MOTION_CFG)
    out = tmp_path / "m"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "motion.csv").exists()


def test_simulate_picker_kind(tmp_path):
    cfg = write_scenario(tmp_path, "fig12_picker")
    out = tmp_path / "p"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    assert (out / "pulses.csv").exists()
    assert (out / "frequency_trace.csv").exists()


def test_invalid_config_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[scenario]\nname = x\nkind = survival\nseed = 1\n"
                   "[trap]\nvoltage = fast\n")
    assert main(["simulate", "--config", str(cfg)]) == 2


def test_missing_config_exit_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_usage_error_exit_2():
    assert main(["fit", "nosuchmodel", "x.csv"]) == 2


def test_fit_lattice_on_bundled_data(tmp_path, capsys):
    out = tmp_path / "fit.json"
    code = main(["fit", "lattice", bundled_data("fig9_steps.csv"),
                 "--out", str(out), "--delta-f-min", "55", "--delta-f-max", "250"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "delta_f" in printed
    result = json.loads(out.read_text())
    assert abs(result["parameters"]["delta_f"] - 76.4) / 76.4 <= 0.02


def test_fit_sigmoid_on_bundled_data(tmp_path):
    out = tmp_path / "sig.json"
    code = main(["fit", "sigmoid", bundled_data("fig7_sweep.csv"),
                 "--out", str(out)])
    assert code == 0
    result = json.loads(out.read_text())
    assert abs(result["derived"]["center_wavelength"] - 280.0) <= 2.0


def check_fit_exp(tmp_path, data, uv_on):
    """``fit exp --band`` on a two-column CSV: tau as the LM reference on the
    frames after UV on, and one band row per such frame."""
    out, band = tmp_path / "exp.json", tmp_path / "band.csv"
    code = main(["fit", "exp", str(data), "--out", str(out), "--band", str(band),
                 "--uv-on", str(uv_on)])
    assert code == 0
    _, (t, y) = io.read_csv_columns(data)
    keep = t >= uv_on
    ref = lm_exponential_fit(t[keep] - uv_on, y[keep])
    result = json.loads(out.read_text())
    assert result["parameters"]["tau"] == pytest.approx(ref["tau"], rel=1e-6)
    header, (x, fitted, sigma) = io.read_csv_columns(band)
    assert header == ["x", "fit", "sigma"]
    assert np.array_equal(x, t[keep] - uv_on)
    assert np.all(np.isfinite(fitted)) and np.all(sigma > 0)


def test_fit_exp_band_on_uneven_non_integer_csv(tmp_path):
    rng = np.random.default_rng(11)
    t = np.sort(rng.uniform(0.0, 40.0, 60))
    y = 80.0 * np.exp(-t / 12.0) * (1 + 0.02 * rng.standard_normal(60))
    data = tmp_path / "decay.csv"
    io.write_csv(data, ["t_s", "signal"], [t, y])
    check_fit_exp(tmp_path, data, uv_on=0.0)


def test_fit_exp_band_on_bundled_survival_curve(tmp_path):
    cfg = write_scenario(tmp_path, "fig5_decay")
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "sim")]) == 0
    check_fit_exp(tmp_path, tmp_path / "sim" / "survival.csv", uv_on=20.0)


@pytest.mark.parametrize("flags", [
    ["sigmoid", bundled_data("fig7_sweep.csv"), "--band", "band.csv"],
    ["lattice", bundled_data("fig9_steps.csv"), "--uv-on", "3", "--fit-space", "linear"],
    ["exp", bundled_data("fig9_steps.csv"), "--fixed-exponent", "-1"],
    ["powerlaw", bundled_data("fig7_sweep.csv"), "--delta-f-min", "55"],
])
def test_fit_flag_of_another_model_exit_2(tmp_path, monkeypatch, flags):
    # each model takes only its own flags; another model's flag is a usage
    # error, not silently ignored
    monkeypatch.chdir(tmp_path)
    assert main(["fit", *flags, "--out", "fit.json"]) == 2
    assert list(tmp_path.iterdir()) == []


def test_kind_table_covers_scenario_kinds():
    assert set(KIND_RUNNERS) == set(SCENARIO_KINDS)


def test_fit_empty_file_exit_2(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["fit", "lattice", str(empty)]) == 2


def test_sweep_rejected_by_simulate(tmp_path):
    cfg = write_scenario(tmp_path, "fig8_sweep")
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "x")]) == 2


def test_sweep_size_writes_table(tmp_path):
    cfg = write_scenario(tmp_path, "fig8_sweep")
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 0
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "diameter_m"
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["kind"] == "sweep_size"


def test_non_sweep_rejected_by_sweep(tmp_path):
    cfg = write_scenario(tmp_path, "fig9_steps")
    assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "x")]) == 2


def test_simulate_trajectory_kind(tmp_path):
    cfg = tmp_path / "traj.cfg"
    cfg.write_text(TRAJECTORY_CFG)
    out = tmp_path / "t"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "t_s,charge_count"
    assert len(rows) > 2


def test_out_dir_env_override(tmp_path, monkeypatch):
    cfg = write_scenario(tmp_path, "fig9_steps")
    monkeypatch.setenv("NDTRAP_OUT_DIR", str(tmp_path / "envroot"))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", cfg]) == 0
    assert (tmp_path / "envroot" / "fig9_steps" / "frequency_trace.csv").exists()


def test_reproduce_unknown_exit_2():
    assert main(["reproduce", "fig99"]) == 2


def test_reproduce_fig10_report(tmp_path):
    out = tmp_path / "r10"
    code = main(["reproduce", "fig10", "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    names = {c["name"]: c for c in report["checks"]}
    assert names["first_step_electrons"]["status"] == "PASS"
    assert names["lower_bound_initial_charge"]["value"] == 23
