"""Unit parsing and conversion.

All numerics inside the package are SI (with two deliberate exceptions:
wavelengths are carried in nm and trap pressure in Torr, both stored under
explicitly suffixed names).  Conversion happens only here, at the I/O
boundary.  Peak-to-peak voltages are halved exactly once, when parsed.
"""

from __future__ import annotations

import math

from .constants import EV_NM, TORR


def torr_to_pa(pressure_torr: float) -> float:
    return pressure_torr * TORR


def pa_to_torr(pressure_pa: float) -> float:
    return pressure_pa / TORR


def photon_energy_ev(wavelength_nm: float) -> float:
    """Photon energy in eV for a vacuum wavelength in nm."""
    if wavelength_nm <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength_nm}")
    return EV_NM / wavelength_nm


# unit token (spaces stripped) -> (dimension, factor to canonical).  An SI prefix
# is read in exact case; the unit letters after it fold case.
# Canonical units: m, s, Hz, V (amplitude), Torr, W, W/m^2, K, 1/s, kg/m^3, nm for
# "wavelength", dimensionless for bare numbers.
_UNIT_TABLE = {
    # length -> m
    "m": ("length", 1.0),
    "cm": ("length", 1e-2),
    "mm": ("length", 1e-3),
    "um": ("length", 1e-6),
    "µm": ("length", 1e-6),
    "nm": ("length", 1e-9),
    # time -> s
    "s": ("time", 1.0),
    "ms": ("time", 1e-3),
    "us": ("time", 1e-6),
    "µs": ("time", 1e-6),
    "ns": ("time", 1e-9),
    # frequency -> Hz
    "Hz": ("frequency", 1.0),
    "kHz": ("frequency", 1e3),
    "MHz": ("frequency", 1e6),
    # rate -> 1/s
    "1/s": ("rate", 1.0),
    "1/hour": ("rate", 1.0 / 3600.0),
    # voltage -> V zero-to-peak; peak-to-peak halves
    "V": ("voltage", 1.0),
    "kV": ("voltage", 1e3),
    "Vpp": ("voltage", 0.5),
    "kVpp": ("voltage", 500.0),
    "Vp-p": ("voltage", 0.5),
    "kVp-p": ("voltage", 500.0),
    # pressure -> Torr
    "Torr": ("pressure", 1.0),
    "Pa": ("pressure", 1.0 / TORR),
    "mbar": ("pressure", 100.0 / TORR),
    # power -> W
    "W": ("power", 1.0),
    "mW": ("power", 1e-3),
    "uW": ("power", 1e-6),
    # intensity -> W/m^2
    "W/m2": ("intensity", 1.0),
    "W/m^2": ("intensity", 1.0),
    "mW/cm2": ("intensity", 10.0),
    "mW/cm^2": ("intensity", 10.0),
    "W/cm2": ("intensity", 1e4),
    "W/cm^2": ("intensity", 1e4),
    # temperature -> K
    "K": ("temperature", 1.0),
    # mass density -> kg/m^3
    "kg/m3": ("density", 1.0),
    "kg/m^3": ("density", 1.0),
    "g/cm3": ("density", 1e3),
    "g/cm^3": ("density", 1e3),
    # counts of elementary charge
    "e": ("charge_count", 1.0),
}

# canonical unit suffix written when serializing, per dimension
CANONICAL_UNIT = {
    "length": "m",
    "wavelength": "nm",
    "time": "s",
    "frequency": "Hz",
    "rate": "1/s",
    "voltage": "V",
    "pressure": "Torr",
    "power": "W",
    "intensity": "W/m2",
    "temperature": "K",
    "density": "kg/m3",
    "charge_count": "e",
    "dimensionless": "",
}


def _normalize_unit(token: str) -> str:
    # the Greek small mu (also what the micro sign lowercases from upper case) reads as micro
    return token.strip().replace(" ", "").replace("\u03bc", "\u00b5")


# case-folded token -> unit table key
_FOLDED = {unit.lower(): unit for unit in _UNIT_TABLE}


def _si_prefix(unit: str) -> str:
    """The SI prefix a unit table key starts with, or ''."""
    return unit[0] if len(unit) > 1 and unit[0] in "cmuµnkM" else ""


def parse_quantity(text: str, dimension: str):
    """Parse ``"4.5 kVpp"`` style text into a canonical-unit float.

    ``dimension`` names the expected quantity kind; a bare number is accepted
    only for ``dimensionless``.  Wavelengths accept any length unit and come
    back in nm.  A value that is not finite in canonical units is rejected.
    """
    parts = text.strip().split()
    if not parts:
        raise ValueError("empty quantity")
    try:
        value = float(parts[0])
    except ValueError:
        raise ValueError(f"cannot parse number from {text!r}") from None
    unit = _normalize_unit(" ".join(parts[1:]))

    if dimension == "dimensionless":
        if unit:
            raise ValueError(f"unexpected unit {unit!r} on dimensionless value")
        factor = 1.0
    elif not unit:
        raise ValueError(f"missing unit on {text!r} (expected {dimension})")
    else:
        key = _FOLDED.get(_normalize_unit(unit.lower()))
        if key is None:
            raise ValueError(f"unknown unit {unit!r} (expected {dimension})")
        if not unit.startswith(_si_prefix(key)):
            raise ValueError(f"unknown unit {unit!r}: SI prefixes are case-sensitive, "
                             f"did you mean {key!r}? (expected {dimension})")
        dim, factor = _UNIT_TABLE[key]
        if dimension == "wavelength":
            # any length unit, canonical nm; exact per-unit factors avoid the
            # round trip through meters
            factor = {"nm": 1.0, "um": 1e3, "µm": 1e3, "mm": 1e6,
                      "cm": 1e7, "m": 1e9}.get(key)
            if factor is None:
                raise ValueError(f"unit {unit!r} is not a length (wavelength expected)")
        # Hz and 1/s are interchangeable
        elif dim != dimension and not (dim == "frequency" and dimension == "rate"):
            raise ValueError(f"unit {unit!r} has dimension {dim}, expected {dimension}")
    value *= factor
    if not math.isfinite(value):
        raise ValueError(f"non-finite value in {text!r}")
    return value


def format_quantity(value: float, dimension: str) -> str:
    """Format a canonical-unit value with its canonical unit suffix."""
    suffix = CANONICAL_UNIT[dimension]
    body = repr(float(value))
    return f"{body} {suffix}".strip()
