"""Unit parsing and conversions at the I/O boundary."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndtrap.units import (_UNIT_TABLE, CANONICAL_UNIT, _normalize_unit, format_quantity,
                          pa_to_torr, parse_quantity, photon_energy_ev, torr_to_pa)


def test_peak_to_peak_halved_once():
    assert parse_quantity("4.5 kV P-P", "voltage") == 2250.0
    assert parse_quantity("4.5 kVpp", "voltage") == 2250.0
    assert parse_quantity("2250 V", "voltage") == 2250.0
    # formatting back is amplitude, not P-P
    assert format_quantity(2250.0, "voltage") == "2250.0 V"


def test_si_prefix_exact_case():
    # milli and mega differ only in case, so a miscased prefix is an error
    # naming the unit and the expected dimension, never a value 10^9 off;
    # the unit letters after the prefix still fold case
    for text, dimension in (("1 mHz", "frequency"), ("1 MW", "power"), ("1 Ms", "time")):
        with pytest.raises(ValueError, match=f"'{text[2:]}'.*{dimension}"):
            parse_quantity(text, dimension)
    assert parse_quantity("1 MHZ", "frequency") == 1e6
    assert parse_quantity("1 mw", "power") == 1e-3
    assert parse_quantity("1 mS", "time") == 1e-3


def test_torr_pa_round_trip():
    for p in (1e-6, 0.2, 0.5, 760.0):
        assert pa_to_torr(torr_to_pa(p)) == pytest.approx(p, rel=1e-12)
    assert torr_to_pa(1.0) == pytest.approx(133.3223684210526, rel=1e-12)


def test_wavelength_units():
    assert parse_quantity("264 nm", "wavelength") == 264.0
    assert parse_quantity("0.264 um", "wavelength") == pytest.approx(264.0)
    with pytest.raises(ValueError):
        parse_quantity("264 s", "wavelength")


def test_intensity_units():
    assert parse_quantity("1 mW/cm2", "intensity") == 10.0
    assert parse_quantity("10 W/m2", "intensity") == 10.0


def test_pressure_units():
    assert parse_quantity("0.5 Torr", "pressure") == 0.5
    assert parse_quantity("66.66118421052632 Pa", "pressure") == pytest.approx(0.5, rel=1e-12)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_quantity("fast", "time")
    with pytest.raises(ValueError):
        parse_quantity("3 parsec", "length")
    with pytest.raises(ValueError):
        parse_quantity("3", "length")  # missing unit
    with pytest.raises(ValueError):
        parse_quantity("3 nm", "dimensionless")


def accepts(unit_dimension, dimension):
    return (unit_dimension == dimension
            or (dimension == "wavelength" and unit_dimension == "length")
            or (dimension == "rate" and unit_dimension == "frequency"))


MISMATCHES = sorted((u, d) for u, (ud, _) in _UNIT_TABLE.items()
                    for d in CANONICAL_UNIT if not accepts(ud, d))
LONGEST_UNIT = max(len(u) for u in _UNIT_TABLE)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(value=st.floats(),
       upper=st.lists(st.booleans(), min_size=LONGEST_UNIT, max_size=LONGEST_UNIT))
def test_dimension_mismatch_named(value, upper):
    # every unit of another dimension is rejected, whatever the number and
    # the letter case, by a ValueError that names the unit and the dimension
    # the field expects
    for unit, dimension in MISMATCHES:
        spelled = "".join(c.upper() if up else c for c, up in zip(unit, upper))
        with pytest.raises(ValueError) as err:
            parse_quantity(f"{value!r} {spelled}", dimension)
        message = str(err.value)
        assert repr(_normalize_unit(spelled)) in message and dimension in message


def test_photon_energy():
    assert photon_energy_ev(270.0) == pytest.approx(4.592, abs=1e-3)
    assert photon_energy_ev(280.0) == pytest.approx(4.428, abs=1e-3)
    with pytest.raises(ValueError):
        photon_energy_ev(0.0)
