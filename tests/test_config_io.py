"""Scenario config parsing, serialization round trip, CSV/JSON I/O."""

import json

import numpy as np
import pytest

from ndtrap import io
from ndtrap.config import (ConfigError, parse_scenario_text, serialize_scenario)
from ndtrap.runner import BUNDLED_SCENARIOS, load_bundled_scenario

MINIMAL = """
[scenario]
name = demo
kind = survival
seed = 7

[particle]
diameter = 1 um
charge_sign = negative

[trap]
voltage = 4.5 kVpp
drive_frequency = 140 Hz
geometry_factor = 0.05
characteristic_radius = 3 mm
pressure = 760 Torr

[uv]
mode = continuous
wavelength = 264 nm
intensity = 1 mW/cm2

[run]
n_particles = 10
duration = 50 s
"""


def test_parse_minimal():
    sc = parse_scenario_text(MINIMAL)
    assert sc.name == "demo" and sc.kind == "survival" and sc.seed == 7
    assert sc.get("trap", "voltage") == 2250.0        # P-P halved once
    assert sc.get("uv", "wavelength") == 264.0        # nm canonical
    assert sc.get("uv", "intensity") == 10.0          # W/m^2 canonical
    assert sc.get("trap", "pressure") == 760.0        # Torr canonical
    particle = sc.particle()
    assert particle.radius == pytest.approx(0.5e-6)
    trap = sc.trap()
    assert trap.voltage_amplitude == 2250.0


def test_round_trip_identity():
    sc = parse_scenario_text(MINIMAL)
    text = serialize_scenario(sc)
    again = parse_scenario_text(text)
    assert again == sc
    # and serialization is a fixed point
    assert serialize_scenario(again) == text


def test_bundled_scenarios_parse_and_round_trip():
    for name in BUNDLED_SCENARIOS:
        sc = load_bundled_scenario(name)
        assert sc.name == name
        again = parse_scenario_text(serialize_scenario(sc))
        assert again == sc


def test_parse_errors_carry_line_numbers():
    bad = MINIMAL.replace("voltage = 4.5 kVpp", "voltage = 4.5 parsec")
    with pytest.raises(ConfigError) as err:
        parse_scenario_text(bad)
    assert "line" in str(err.value) and "voltage" in str(err.value)

    with pytest.raises(ConfigError) as err2:
        parse_scenario_text(MINIMAL.replace("duration = 50 s", "banana = 3"))
    assert "banana" in str(err2.value)

    with pytest.raises(ConfigError):
        parse_scenario_text("[nosuchsection]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_scenario_text("x = 1\n")  # key outside any section
    with pytest.raises(ConfigError):
        parse_scenario_text("[scenario]\nname = a\nkind = survival\n")  # no seed


def test_uv_bandwidth_rejected():
    # no physics reads a source line width, so a configured one must not pass silently
    text = MINIMAL.replace("mode = continuous", "mode = continuous\nbandwidth = 5 nm")
    line = text.splitlines().index("bandwidth = 5 nm") + 1
    with pytest.raises(ConfigError) as err:
        parse_scenario_text(text)
    assert err.value.line == line
    assert f"line {line}" in str(err.value) and "bandwidth" in str(err.value)


def test_wavelength_list_parsing():
    sc = parse_scenario_text(MINIMAL + "\nwavelengths = 255 264 315 nm\n")
    assert sc.get("run", "wavelengths") == [255.0, 264.0, 315.0]
    with pytest.raises(ConfigError):
        parse_scenario_text(MINIMAL + "\nwavelengths = 255 264 315\n")


def test_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    io.write_csv(path, ["a", "b"], [np.array([1.5, 2.0]), np.array([3, 4])])
    header, cols = io.read_csv_columns(path)
    assert header == ["a", "b"]
    assert np.array_equal(cols[0], [1.5, 2.0])
    assert np.array_equal(cols[1], [3.0, 4.0])


def test_csv_malformed_rows_named(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(io.DataFormatError) as err:
        io.read_csv_columns(path)
    assert "row 3" in str(err.value)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(io.DataFormatError):
        io.read_csv_columns(empty)


def test_json_sanitizes_nonfinite(tmp_path):
    path = tmp_path / "out.json"
    io.write_json(path, {"x": float("inf"), "y": [1.0, float("nan")], "z": 3})
    data = json.loads(path.read_text())
    assert data["x"] is None
    assert data["y"] == [1.0, None]
    assert data["z"] == 3


def test_frequency_trace_csv_round_trip(tmp_path):
    from ndtrap.signal import FrequencyTrace
    trace = FrequencyTrace(exposures=np.array([0.0, 1.0, 2.0]),
                           frequencies=np.array([300.0, 200.0, 100.0]),
                           errors=np.array([5.0, 5.0, 5.0]))
    path = tmp_path / "trace.csv"
    io.write_frequency_trace_csv(path, trace)
    again = io.read_frequency_trace_csv(path)
    assert np.array_equal(again.frequencies, trace.frequencies)
    assert np.array_equal(again.errors, trace.errors)
