"""Execute scenarios: wire the configured domain objects into the simulation
modules and return their result records.  Shared by the CLI and the figure
reproduction harness.

Seed discipline: every scenario derives all of its generators from
SeedSequence(scenario.seed) spawns, so a (scenario, seed) pair maps to
byte-identical outputs.
"""

from __future__ import annotations

import importlib.resources

import numpy as np

from .config import ConfigError, Scenario, parse_scenario_text
from .ensemble import (envelope_charge_sampler, fixed_charge_sampler,
                       lifetime_sweep, margin_charge_sampler, simulate_survival)
from .photoemission import pick_pulses, simulate_charge_trajectory
from .signal import FrequencyTrace, synthesize_frequency_trace
from .trap import damping_rate, integrate_motion

BUNDLED_SCENARIOS = ("fig5_decay", "control_no_uv", "fig7_sweep", "fig8_sweep",
                     "fig9_steps", "fig10_fast", "fig12_picker")


def load_bundled_scenario(name: str) -> Scenario:
    if name not in BUNDLED_SCENARIOS:
        raise ConfigError(f"unknown bundled scenario {name!r}")
    text = (importlib.resources.files("ndtrap") / "scenarios" / f"{name}.cfg").read_text()
    return parse_scenario_text(text)


def build_charge_sampler(spec: str, sign: int):
    """Sampler factory from a config string: 'envelope', 'margin LO HI', 'fixed N'."""
    parts = spec.split()
    kind = parts[0]
    if kind == "envelope" and len(parts) == 1:
        return envelope_charge_sampler(sign=sign)
    if kind == "margin" and len(parts) == 3:
        return margin_charge_sampler(int(parts[1]), int(parts[2]), sign=sign)
    if kind == "fixed" and len(parts) == 2:
        return fixed_charge_sampler(sign * abs(int(parts[1])))
    raise ConfigError(f"unknown charge_sampler spec {spec!r}")


def _sampler_from(sc: Scenario):
    sign = -1 if sc.get("particle", "charge_sign", "negative") == "negative" else 1
    return build_charge_sampler(sc.get("run", "charge_sampler", "envelope"), sign)


def _survival_kwargs(sc: Scenario) -> dict:
    return dict(
        n0=sc.require("run", "n_particles"),
        particle_template=sc.particle(),
        trap=sc.trap(),
        model=sc.emission_model(),
        source=sc.uv_source(),
        duration=sc.require("run", "duration"),
        seed=sc.seed,
        charge_sampler=_sampler_from(sc),
        **sc.given("run", "uv_on_time", "frame_rate", "background_rate"),
    )


def run_survival_scenario(sc: Scenario):
    return simulate_survival(**_survival_kwargs(sc))


# sweep kind -> (ensemble sweep axis, [run] key of its values, sweep.csv column)
SWEEP_KINDS = {
    "sweep_wavelength": ("wavelength", "wavelengths", "wavelength_nm"),
    "sweep_size": ("diameter", "diameters", "diameter_m"),
}


def run_sweep_scenario(sc: Scenario):
    """Lifetime sweep along the axis of the scenario's sweep kind."""
    axis, key, _ = SWEEP_KINDS[sc.kind]
    return lifetime_sweep(axis, sc.require("run", key), **_survival_kwargs(sc))


# per-kind names, still called by perfbench/selftest.py
run_wavelength_sweep_scenario = run_size_sweep_scenario = run_sweep_scenario


def run_trajectory_scenario(sc: Scenario, rng=None):
    particle = sc.particle()
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(sc.seed).spawn(1)[0])
    return simulate_charge_trajectory(
        particle,
        sc.require("run", "rate"),
        sc.require("run", "duration"),
        rng=rng,
        **sc.given("run", "direction"),
    )


def run_frequency_trace_scenario(sc: Scenario):
    """Charge trajectory plus synthesized frequency readout."""
    seq_traj, seq_noise = np.random.SeedSequence(sc.seed).spawn(2)
    traj = run_trajectory_scenario(sc, rng=np.random.default_rng(seq_traj))
    step = sc.require("run", "exposure_step")
    n_exp = sc.require("run", "n_exposures")
    sample_times = np.arange(n_exp) * step
    trace = synthesize_frequency_trace(
        traj,
        delta_f=sc.require("run", "delta_f"),
        noise_sigma=sc.get("run", "noise_sigma", 0.0),
        sample_times=sample_times,
        rng=np.random.default_rng(seq_noise),
    )
    return traj, trace


def run_motion_scenario(sc: Scenario):
    particle = sc.particle()
    trap = sc.trap()
    damping = sc.get("run", "damping")
    if damping is None:
        damping = damping_rate(particle, trap.pressure_torr)
    return integrate_motion(
        particle, trap,
        duration=sc.require("run", "duration"),
        damping=damping,
        rng_seed=sc.seed,
        thermal_noise=sc.get("run", "thermal_noise", "off") == "on",
        **sc.given("run", "x0"),
    )


def run_picker_scenario(sc: Scenario):
    """Shutter-exposure sequence through the single-pulse picker.

    Each exposure draws random gate phases, transmits pick_pulses(train)
    laser pulses, and each pulse ejects one electron with the configured
    probability.  Returns (deterministic-phase pulse times, per-exposure
    pulse counts, charge after each exposure, FrequencyTrace vs shutter
    count).
    """
    train = sc.pulse_train()
    n_shutter = sc.require("run", "n_shutter")
    p_emit = sc.get("run", "pulse_probability", 1.0)
    charge = abs(sc.require("run", "initial_charge"))
    delta_f = sc.require("run", "delta_f")
    noise_sigma = sc.get("run", "noise_sigma", 0.0)
    rng = np.random.default_rng(np.random.SeedSequence(sc.seed).spawn(1)[0])

    counts = np.empty(n_shutter, dtype=int)
    charges = np.empty(n_shutter, dtype=int)
    for i in range(n_shutter):
        k = len(pick_pulses(train, rng=rng))
        counts[i] = k
        emitted = rng.binomial(k, p_emit) if k else 0
        charge = max(charge - emitted, 0)
        charges[i] = charge
    freqs = delta_f * charges.astype(float)
    if noise_sigma > 0:
        freqs = np.maximum(freqs + noise_sigma * rng.standard_normal(n_shutter), 0.0)
    trace = FrequencyTrace(
        exposures=np.arange(1, n_shutter + 1, dtype=float),
        frequencies=freqs,
        errors=np.full(n_shutter, float(noise_sigma)),
        exposure_unit="shutter_count",
    )
    fixed_pulses = pick_pulses(train)
    return fixed_pulses, counts, charges, trace
