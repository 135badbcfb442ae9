"""Scenario config parsing, serialization round trip, CSV/JSON I/O."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndtrap import io
from ndtrap.config import (_SECTION_KEYS, ConfigError, parse_scenario_text,
                           serialize_scenario)
from ndtrap.runner import BUNDLED_SCENARIOS, load_bundled_scenario
from ndtrap.units import _UNIT_TABLE

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


def test_charge_sign_default_negative():
    # one reading of [particle] charge_sign: the particle's unit charge and
    # the charge sampler both take it, negative when the key is absent
    assert parse_scenario_text(MINIMAL).charge_sign() == -1
    unset = parse_scenario_text(MINIMAL.replace("charge_sign = negative\n", ""))
    assert unset.charge_sign() == -1 and unset.particle().charge_count == -1
    positive = parse_scenario_text(MINIMAL.replace("= negative", "= positive"))
    assert positive.charge_sign() == 1 and positive.particle().charge_count == 1


def test_charge_sign_contradicting_initial_charge_rejected():
    # initial_charge used to override charge_sign silently; agreeing or zero
    # charges still parse, and the error names the later of the two lines
    for sign, charge in (("negative", -23), ("positive", 31), ("positive", 0)):
        text = MINIMAL.replace("= negative", f"= {sign}") + f"initial_charge = {charge}\n"
        assert parse_scenario_text(text).particle().charge_count == charge
    for sign, charge in (("negative", 31), ("positive", -23)):
        text = MINIMAL.replace("= negative", f"= {sign}") + f"initial_charge = {charge}\n"
        line = text.splitlines().index(f"initial_charge = {charge}") + 1
        with pytest.raises(ConfigError, match="contradicts") as err:
            parse_scenario_text(text)
        assert err.value.line == line and "charge_sign" in str(err.value)


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


def units_of(dimension):
    """Every unit token the parser accepts for a dimension."""
    if dimension == "dimensionless":
        return [""]
    dims = {"wavelength": ("length",), "rate": ("rate", "frequency")}.get(dimension,
                                                                          (dimension,))
    return [u for u, (d, _) in _UNIT_TABLE.items() if d in dims]


NUMBER = st.one_of(st.floats(), st.floats(-1e6, 1e6), st.integers(-10**6, 10**6))


@st.composite
def value_texts(draw, spec, notes):
    """Text for one value of this parse spec; ``notes`` collects the numbers
    and free strings it used, so the test knows when the text must parse."""
    kind = spec[0]
    if kind == "str":
        if len(spec) > 1:
            return draw(st.sampled_from(spec[1:]))
        text = draw(st.text())
        notes["texts"].append(text)
        return text
    if kind == "int":
        return str(draw(st.integers()))
    if kind in ("float", "quantity"):
        numbers = [draw(NUMBER)]
    else:
        numbers = draw(st.lists(NUMBER, min_size=1, max_size=4))
    notes["numbers"].extend(numbers)
    unit = "" if kind == "float" else draw(st.sampled_from(units_of(spec[1])))
    return f"{' '.join(repr(float(x)) for x in numbers)} {unit}".rstrip()


@st.composite
def scenario_texts(draw):
    """A config text and its notes: the numbers and free strings it used,
    and each (section, key)'s value text."""
    notes = {"numbers": [], "texts": [], "values": {}}

    def line(section, key, spec):
        value = notes["values"][section, key] = draw(value_texts(spec, notes))
        return f"{key} = {value}"

    lines = ["[scenario]"]
    for key, spec in _SECTION_KEYS["scenario"].items():
        lines.append(line("scenario", key, spec))
    sections = draw(st.lists(st.sampled_from([s for s in _SECTION_KEYS if s != "scenario"]),
                             unique=True))
    for section in sections:
        lines.append(f"[{section}]")
        keys = draw(st.lists(st.sampled_from(sorted(_SECTION_KEYS[section])), unique=True))
        for key in keys:
            lines.append(line(section, key, _SECTION_KEYS[section][key]))
    return "\n".join(lines) + "\n", notes


def must_parse(notes):
    """Finite numbers that stay finite in any unit, one-line stripped texts,
    and no charge_sign that contradicts a non-zero initial_charge."""
    sign = notes["values"].get(("particle", "charge_sign"))
    charge = int(notes["values"].get(("run", "initial_charge"), 0))
    return (all(math.isfinite(x) and abs(x) <= 1e300 for x in notes["numbers"])
            and all("#" not in t and t == t.strip() and "".join(t.splitlines()) == t
                    for t in notes["texts"])
            and not (sign and charge and (charge < 0) != (sign == "negative")))


SIGN_CONTRADICTION = {("scenario", "name"): "a", ("scenario", "kind"): "picker",
                      ("scenario", "seed"): "0", ("particle", "charge_sign"): "positive",
                      ("run", "initial_charge"): "-3"}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(generated=scenario_texts())
@example(generated=("[scenario]\nname = a\nkind = picker\nseed = 0\n[particle]\n"
                    "charge_sign = positive\n[run]\ninitial_charge = -3\n",
                    {"numbers": [], "texts": ["a"], "values": SIGN_CONTRADICTION}))
def test_round_trip_property(generated):
    # parse -> serialize -> parse is the identity on whatever the parser
    # accepts, serializing is a fixed point, and anything it rejects is
    # rejected with a ConfigError
    text, notes = generated
    try:
        sc = parse_scenario_text(text)
    except ConfigError:
        assert not must_parse(notes)
        return
    out = serialize_scenario(sc)
    again = parse_scenario_text(out)
    assert again == sc
    assert serialize_scenario(again) == out


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
