"""Domain types and derived quantities."""

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import ndtrap
from ndtrap.core import (Particle, TrapConfig, UVSource, atom_count_from_radius,
                         charge_envelope, mass_from_radius)


def test_mass_from_radius_pinned():
    # 1 um diameter diamond sphere, checked against independent arithmetic
    m = mass_from_radius(0.5e-6, 3.52e3)
    assert m == pytest.approx(1.843e-15, rel=1e-3)
    assert m == pytest.approx(1.8430676901060117e-15, rel=1e-12)


def test_mass_cubic_scaling_exact():
    for r in (13e-9, 0.5e-6, 3.3e-6):
        assert mass_from_radius(2 * r) == 8.0 * mass_from_radius(r)


def test_mass_monotonic():
    radii = np.geomspace(1e-9, 1e-5, 50)
    masses = [mass_from_radius(r) for r in radii]
    assert all(a < b for a, b in zip(masses, masses[1:]))


def test_mass_domain_errors():
    with pytest.raises(ValueError):
        mass_from_radius(0.0)
    with pytest.raises(ValueError):
        mass_from_radius(-1e-9)


def test_atom_count_pinned():
    # ~1e7 atoms at 25 nm radius and ~1e11 at 500 nm
    assert atom_count_from_radius(25e-9) == pytest.approx(1.15e7, rel=1e-2)
    assert atom_count_from_radius(500e-9) == pytest.approx(9.23e10, rel=1e-2)


def test_atom_count_cubic():
    assert atom_count_from_radius(50e-9) == pytest.approx(
        8 * atom_count_from_radius(25e-9), rel=1e-6)


def test_atom_count_volume_consistency():
    for r in (25e-9, 117e-9, 500e-9, 2e-6):
        volume = (4 / 3) * math.pi * r**3
        assert abs(atom_count_from_radius(r) * 5.67e-30 - volume) <= 5.67e-30


def test_charge_envelope_anchors():
    assert charge_envelope(75e-9 / 2).center == pytest.approx(10.0, rel=1e-9)
    assert charge_envelope(10e-6 / 2).center == pytest.approx(1000.0, rel=1e-9)


def test_charge_envelope_covers_reported_charges():
    # 250 nm diameter: log-log interpolation between the anchors gives
    # 31.06 e; the x3 band must contain the 23..69 e readings seen for a
    # particle of this size
    env = charge_envelope(125e-9)
    assert env.center == pytest.approx(31.0556, rel=1e-3)
    assert env.minimum <= 23 <= env.maximum
    assert env.minimum <= 69 <= env.maximum


def test_charge_envelope_ordering_and_monotonic():
    radii = np.geomspace(10e-9, 20e-6, 40)
    last = None
    for r in radii:
        env = charge_envelope(r)
        assert env.minimum <= env.center <= env.maximum
        if last is not None:
            assert env.center > last
        last = env.center


def test_charge_envelope_domain():
    with pytest.raises(ValueError):
        charge_envelope(5e-9)
    with pytest.raises(ValueError):
        charge_envelope(30e-6)


def test_particle_validation():
    with pytest.raises(ValueError):
        Particle(radius=0.0, charge_count=1)
    with pytest.raises(ValueError):
        Particle(radius=1e-7, charge_count=2_000_000)
    p = Particle(radius=1e-7, charge_count=-50)
    assert p.mass > 0
    assert p.charge < 0
    assert p.diameter == 2e-7
    with pytest.raises(AttributeError):
        p.radius = 2e-7  # immutable value object


def test_particle_mass_never_stored():
    p = Particle(radius=0.5e-6, charge_count=0)
    assert p.mass == mass_from_radius(p.radius, p.material_density)


def test_trap_config_validation():
    with pytest.raises(ValueError):
        TrapConfig(voltage_amplitude=0.0, drive_frequency=140.0,
                   characteristic_radius=3e-3)
    with pytest.raises(ValueError):
        TrapConfig(voltage_amplitude=100.0, drive_frequency=140.0,
                   characteristic_radius=3e-3, stability_band=(0.9, 0.1))
    t = TrapConfig(voltage_amplitude=2250.0, drive_frequency=140.0,
                   characteristic_radius=3e-3)
    assert t.angular_frequency == pytest.approx(2 * math.pi * 140.0)


def test_uv_source_continuous():
    s = UVSource(mode="continuous", wavelength=264.0, intensity=10.0)
    assert s.average_intensity == 10.0
    with pytest.raises(ValueError):
        UVSource(mode="continuous", wavelength=50.0)
    with pytest.raises(ValueError):
        UVSource(mode="continuous", wavelength=264.0, intensity=-1.0)


def test_uv_source_pulsed_derived():
    s = UVSource(mode="pulsed", wavelength=266.0, average_power=7.7e-3,
                 repetition_rate=9200.0, pulse_duration=0.5e-9,
                 spot_diameter=200e-6)
    assert s.pulse_energy == pytest.approx(7.7e-3 / 9200.0)
    area = math.pi * (100e-6) ** 2
    assert s.spot_area == pytest.approx(area)
    assert s.peak_intensity == pytest.approx(s.pulse_energy / (0.5e-9 * area))
    assert s.average_intensity == pytest.approx(7.7e-3 / area)
    with pytest.raises(ValueError):
        UVSource(mode="pulsed", wavelength=266.0, average_power=1e-3)


def test_no_public_function_takes_both_a_seed_and_an_rng():
    # randomness enters each function one way: a seed it builds its own
    # generator from, or a generator the caller passes
    both = []
    for info in pkgutil.iter_modules(ndtrap.__path__):
        module = importlib.import_module(f"ndtrap.{info.name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            params = inspect.signature(fn).parameters
            if "rng" in params and {"seed", "rng_seed"} & params.keys():
                both.append(f"{module.__name__}.{name}")
    assert both == []
