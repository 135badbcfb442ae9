"""Scenario configuration: a line-oriented ``[section] / key = value`` format
where every physical value carries an explicit unit suffix.

Values are normalized to canonical units at parse time (SI, except
wavelengths in nm and pressure in Torr), so parse -> serialize -> parse is
the identity on normalized scenarios.  Parse errors name the line and field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .core import Particle, TrapConfig, UVSource
from .photoemission import EmissionModel, PulseTrain
from .units import CANONICAL_UNIT, parse_quantity


class ConfigError(ValueError):
    def __init__(self, message, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


SCENARIO_KINDS = ("survival", "trajectory", "motion", "frequency_trace",
                  "picker", "sweep_wavelength", "sweep_size")

# key -> parse spec: ("quantity", dimension) | ("int",) | ("float",) |
# ("str", allowed...) | ("floats", dimension) | ("ints",)
_SECTION_KEYS = {
    "scenario": {
        "name": ("str",),
        "kind": ("str",) + SCENARIO_KINDS,
        "seed": ("int",),
    },
    "particle": {
        "radius": ("quantity", "length"),
        "diameter": ("quantity", "length"),
        "charge_sign": ("str", "negative", "positive"),
        "material_density": ("quantity", "density"),
    },
    "trap": {
        "voltage": ("quantity", "voltage"),
        "drive_frequency": ("quantity", "frequency"),
        "geometry_factor": ("float",),
        "characteristic_radius": ("quantity", "length"),
        "pressure": ("quantity", "pressure"),
        "stability_band": ("floats", "dimensionless"),
    },
    "uv": {
        "mode": ("str", "continuous", "pulsed"),
        "wavelength": ("quantity", "wavelength"),
        "intensity": ("quantity", "intensity"),
        "average_power": ("quantity", "power"),
        "repetition_rate": ("quantity", "frequency"),
        "pulse_duration": ("quantity", "time"),
        "spot_diameter": ("quantity", "length"),
    },
    "emission": {
        "center": ("quantity", "wavelength"),
        "width_10_90": ("quantity", "wavelength"),
        "rate_scale": ("quantity", "rate"),
        "size_exponent": ("float",),
        "floor_rate": ("quantity", "rate"),
        "reference_diameter": ("quantity", "length"),
        "reference_intensity": ("quantity", "intensity"),
    },
    "run": {
        "n_particles": ("int",),
        "duration": ("quantity", "time"),
        "uv_on_time": ("quantity", "time"),
        "frame_rate": ("quantity", "frequency"),
        "background_rate": ("quantity", "rate"),
        "charge_sampler": ("str",),
        "initial_charge": ("int",),
        "rate": ("quantity", "rate"),
        "direction": ("str", "emit", "capture"),
        "delta_f": ("quantity", "frequency"),
        "noise_sigma": ("quantity", "frequency"),
        "exposure_step": ("quantity", "time"),
        "n_exposures": ("int",),
        "wavelengths": ("floats", "wavelength"),
        "diameters": ("floats", "length"),
        "damping": ("quantity", "rate"),
        "thermal_noise": ("str", "on", "off"),
        "x0": ("quantity", "length"),
        "shutter_open": ("quantity", "time"),
        "chopper_frequency": ("quantity", "frequency"),
        "chopper_duty": ("float",),
        "phases": ("floats", "dimensionless"),
        "n_shutter": ("int",),
        "pulse_probability": ("float",),
        "delta_f_min": ("quantity", "frequency"),
        "delta_f_max": ("quantity", "frequency"),
    },
}


@dataclass(frozen=True)
class Scenario:
    """A normalized, fully deterministic experiment description."""

    name: str
    kind: str
    seed: int
    sections: dict = field(default_factory=dict)

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def require(self, section: str, key: str):
        value = self.get(section, key)
        if value is None:
            raise ConfigError(f"scenario {self.name!r} is missing [{section}] {key}")
        return value

    def given(self, section: str, *keys: str, **renamed: str) -> dict:
        """The keys of ``section`` that the scenario sets, as keyword arguments:
        each of ``keys`` under its own name, each ``key=argument`` pair under
        that argument's name.  An unset key is left out, so the callee's
        default applies."""
        body = self.sections.get(section, {})
        names = dict(zip(keys, keys), **renamed)
        return {arg: body[key] for key, arg in names.items() if key in body}

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=int(seed))

    # -- domain object builders ------------------------------------------

    def particle(self) -> Particle:
        radius = self.get("particle", "radius")
        if radius is None:
            diameter = self.require("particle", "diameter")
            radius = diameter / 2.0
        sign = -1 if self.get("particle", "charge_sign", "negative") == "negative" else 1
        charge = self.get("run", "initial_charge")
        return Particle(radius=radius, charge_count=charge if charge is not None else sign,
                        **self.given("particle", "material_density"))

    def trap(self) -> TrapConfig:
        return TrapConfig(
            voltage_amplitude=self.require("trap", "voltage"),
            drive_frequency=self.require("trap", "drive_frequency"),
            characteristic_radius=self.require("trap", "characteristic_radius"),
            **self.given("trap", "geometry_factor", "stability_band",
                         pressure="pressure_torr"),
        )

    def uv_source(self) -> UVSource:
        return UVSource(
            mode=self.get("uv", "mode", "continuous"),
            wavelength=self.require("uv", "wavelength"),
            **self.given("uv", "intensity", "average_power", "repetition_rate",
                         "pulse_duration", "spot_diameter"),
        )

    def emission_model(self) -> EmissionModel:
        return EmissionModel.from_width(**self.given(
            "emission", "width_10_90", "rate_scale", "size_exponent", "floor_rate",
            "reference_diameter", "reference_intensity", center="center_wavelength"))

    def pulse_train(self) -> PulseTrain:
        return PulseTrain(
            repetition_rate=self.require("uv", "repetition_rate"),
            pulse_duration=self.require("uv", "pulse_duration"),
            shutter_open=self.require("run", "shutter_open"),
            chopper_frequency=self.require("run", "chopper_frequency"),
            chopper_duty=self.require("run", "chopper_duty"),
            **self.given("run", "phases"),
        )


def _parse_value(section, key, raw, line_no):
    spec = _SECTION_KEYS[section].get(key)
    if spec is None:
        raise ConfigError(f"unknown key {key!r} in section [{section}]", line_no)
    kind = spec[0]
    try:
        if kind == "str":
            value = raw.strip()
            allowed = spec[1:]
            if allowed and value not in allowed:
                raise ValueError(f"must be one of {allowed}")
            return value
        if kind == "int":
            return int(raw.strip())
        if kind == "float":
            return parse_quantity(raw, "dimensionless")
        if kind == "quantity":
            return parse_quantity(raw, spec[1])
        if kind == "floats":
            parts = raw.split()
            unit_parts = []
            while parts and not _is_number(parts[-1]):
                unit_parts.insert(0, parts.pop())
            if not parts:
                raise ValueError("no numbers found")
            return [parse_quantity(" ".join([p] + unit_parts), spec[1]) for p in parts]
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key}: {exc}", line_no) from None
    raise ConfigError(f"unhandled key spec for {key!r}", line_no)


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def parse_scenario_text(text: str) -> Scenario:
    sections: dict = {}
    current = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {raw_line.strip()!r}", line_no)
            name = line[1:-1].strip()
            if name not in _SECTION_KEYS:
                raise ConfigError(f"unknown section [{name}]", line_no)
            current = sections.setdefault(name, {})
            continue
        if current is None:
            raise ConfigError("key outside any [section]", line_no)
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line_no)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        section_name = next(n for n, s in sections.items() if s is current)
        current[key] = _parse_value(section_name, key, raw_value.strip(), line_no)

    meta = sections.get("scenario", {})
    for required in ("name", "kind", "seed"):
        if required not in meta:
            raise ConfigError(f"[scenario] section must define {required!r}")
    return Scenario(name=meta["name"], kind=meta["kind"], seed=meta["seed"],
                    sections={k: dict(v) for k, v in sections.items() if k != "scenario"})


def parse_scenario_file(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_scenario_text(text)


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical text form; parsing it back yields an identical Scenario."""
    lines = ["[scenario]",
             f"name = {scenario.name}",
             f"kind = {scenario.kind}",
             f"seed = {scenario.seed}"]
    for section in ("particle", "trap", "uv", "emission", "run"):
        body = scenario.sections.get(section)
        if body is None:   # an empty section is written, so it parses back
            continue
        lines.append("")
        lines.append(f"[{section}]")
        for key in _SECTION_KEYS[section]:
            if key not in body:
                continue
            value = body[key]
            spec = _SECTION_KEYS[section][key]
            if spec[0] == "quantity":
                unit = CANONICAL_UNIT[spec[1]]
                lines.append(f"{key} = {repr(float(value))} {unit}".rstrip())
            elif spec[0] == "floats":
                unit = CANONICAL_UNIT[spec[1]]
                numbers = " ".join(repr(float(v)) for v in value)
                lines.append(f"{key} = {numbers} {unit}".rstrip())
            elif spec[0] == "float":
                lines.append(f"{key} = {repr(float(value))}")
            else:
                lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
