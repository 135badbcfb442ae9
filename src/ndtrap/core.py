"""Shared domain types: particle, trap and UV source, with derived quantities.

All types are immutable value objects and safe to share between threads.
Charge is always a signed integer count of elementary charges (negative =
excess electrons); coulombs only appear transiently inside formulas.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .constants import CARBON_ATOM_VOLUME, DIAMOND_DENSITY, ELEMENTARY_CHARGE

CHARGE_CAP = 1_000_000  # sanity bound on |charge_count|


def mass_from_radius(radius: float, density: float = DIAMOND_DENSITY) -> float:
    """Mass in kg of a sphere of the given radius (m) and density (kg/m^3)."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if density <= 0:
        raise ValueError(f"density must be positive, got {density}")
    return density * (4.0 / 3.0) * math.pi * radius**3


def atom_count_from_radius(radius: float) -> int:
    """Number of carbon atoms in a spherical diamond of the given radius (m)."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    volume = (4.0 / 3.0) * math.pi * radius**3
    return round(volume / CARBON_ATOM_VOLUME)


# typical-charge envelope anchors: (diameter, elementary charges)
_ENVELOPE_ANCHOR_LO = (75e-9, 10.0)
_ENVELOPE_ANCHOR_HI = (10e-6, 1000.0)
_ENVELOPE_RADIUS_RANGE = (10e-9, 20e-6)
# widening each way, to cover the scatter seen across published trap loads
_ENVELOPE_BAND_FACTOR = 3.0

ChargeEnvelope = namedtuple("ChargeEnvelope", "minimum center maximum")


def charge_envelope(radius: float) -> ChargeEnvelope:
    """Typical |charge| range (in e) for a trapped particle of this radius.

    Log-log linear interpolation between the anchor points
    (d = 75 nm -> 10 e) and (d = 10 um -> 1000 e), widened by a factor of 3
    each way.
    """
    lo, hi = _ENVELOPE_RADIUS_RANGE
    if not (lo <= radius <= hi):
        raise ValueError(
            f"radius {radius} m outside supported envelope range [{lo}, {hi}] m"
        )
    d_lo, q_lo = _ENVELOPE_ANCHOR_LO
    d_hi, q_hi = _ENVELOPE_ANCHOR_HI
    slope = math.log(q_hi / q_lo) / math.log(d_hi / d_lo)
    center = q_lo * (2.0 * radius / d_lo) ** slope
    return ChargeEnvelope(center / _ENVELOPE_BAND_FACTOR, center,
                          center * _ENVELOPE_BAND_FACTOR)


@dataclass(frozen=True)
class Particle:
    """A levitated spherical particle.

    radius in m, charge_count in units of e (negative = excess electrons),
    material_density in kg/m^3.  Mass is always derived from radius and
    density, never stored.
    """

    radius: float
    charge_count: int
    material_density: float = DIAMOND_DENSITY

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.material_density <= 0:
            raise ValueError("material_density must be positive")
        if self.charge_count != int(self.charge_count):
            raise ValueError("charge_count must be an integer number of e")
        object.__setattr__(self, "charge_count", int(self.charge_count))
        if abs(self.charge_count) > CHARGE_CAP:
            raise ValueError(
                f"|charge_count| = {abs(self.charge_count)} exceeds cap {CHARGE_CAP}"
            )

    @property
    def mass(self) -> float:
        return mass_from_radius(self.radius, self.material_density)

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    @property
    def charge(self) -> float:
        """Signed charge in coulombs."""
        return self.charge_count * ELEMENTARY_CHARGE

    def with_charge(self, charge_count: int) -> "Particle":
        return type(self)(self.radius, charge_count, self.material_density)


@dataclass(frozen=True)
class TrapConfig:
    """Drive and geometry of a quadrupole (Paul) trap.

    voltage_amplitude is zero-to-peak volts (peak-to-peak inputs are halved
    by the unit parser, exactly once).  pressure_torr carries its unit in the
    name; everything else is SI.
    """

    voltage_amplitude: float          # V, zero-to-peak
    drive_frequency: float            # Hz
    characteristic_radius: float      # m
    geometry_factor: float = 1.0      # dimensionless, trap specific
    pressure_torr: float = 0.0
    stability_band: tuple = (0.1, 0.9)

    def __post_init__(self):
        if self.voltage_amplitude <= 0:
            raise ValueError("voltage_amplitude must be positive")
        if self.drive_frequency <= 0:
            raise ValueError("drive_frequency must be positive")
        if self.characteristic_radius <= 0:
            raise ValueError("characteristic_radius must be positive")
        if self.geometry_factor <= 0:
            raise ValueError("geometry_factor must be positive")
        if self.pressure_torr < 0:
            raise ValueError("pressure_torr must be >= 0")
        q_min, q_max = self.stability_band
        if not (0 < q_min < q_max):
            raise ValueError(f"invalid stability band {self.stability_band}")
        object.__setattr__(self, "stability_band", (float(q_min), float(q_max)))

    @property
    def angular_frequency(self) -> float:
        """Drive angular frequency Omega = 2 pi f, rad/s."""
        return 2.0 * math.pi * self.drive_frequency


@dataclass(frozen=True)
class UVSource:
    """A UV illumination source, continuous (LED) or pulsed (Q-switched laser).

    Wavelength in nm; powers in W; intensity in W/m^2.
    """

    mode: str                      # "continuous" | "pulsed"
    wavelength: float              # nm
    intensity: float = 0.0         # W/m^2, continuous mode
    average_power: float = 0.0     # W, pulsed mode
    repetition_rate: float = 0.0   # Hz, pulsed mode
    pulse_duration: float = 0.0    # s, pulsed mode
    spot_diameter: float = 0.0     # m, pulsed mode

    def __post_init__(self):
        if self.mode not in ("continuous", "pulsed"):
            raise ValueError(f"mode must be 'continuous' or 'pulsed', got {self.mode!r}")
        if not (100.0 <= self.wavelength <= 1000.0):
            raise ValueError(f"wavelength {self.wavelength} nm outside [100, 1000] nm")
        for name in ("intensity", "average_power", "repetition_rate",
                     "pulse_duration", "spot_diameter"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.mode == "pulsed":
            for name in ("repetition_rate", "pulse_duration", "spot_diameter"):
                if getattr(self, name) <= 0:
                    raise ValueError(f"pulsed source requires {name} > 0")

    @property
    def pulse_energy(self) -> float:
        """J per pulse (pulsed mode)."""
        if self.mode != "pulsed":
            raise ValueError("pulse_energy is defined for pulsed sources only")
        return self.average_power / self.repetition_rate

    @property
    def spot_area(self) -> float:
        return math.pi * (self.spot_diameter / 2.0) ** 2

    @property
    def peak_intensity(self) -> float:
        """W/m^2 during a pulse (pulsed mode)."""
        if self.mode != "pulsed":
            raise ValueError("peak_intensity is defined for pulsed sources only")
        return self.pulse_energy / (self.pulse_duration * self.spot_area)

    @property
    def average_intensity(self) -> float:
        """Time-averaged intensity in W/m^2, defined for both modes."""
        if self.mode == "continuous":
            return self.intensity
        return self.average_power / self.spot_area
