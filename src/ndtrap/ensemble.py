"""Multi-particle lifetime experiments: N trapped particles under UV, each
evolving an independent single-electron charge trajectory, dying when its
stability parameter leaves the trap band.  Produces survival curves and the
lifetime-vs-wavelength / lifetime-vs-size sweep tables.

Determinism contract: per-particle generators are spawned from the master
seed with numpy SeedSequence, so results are bit-identical for a given seed
regardless of evaluation order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import Particle, TrapConfig, UVSource, charge_envelope
from .fitters import FitError, fit_exponential
from .photoemission import EmissionModel, emission_rate, simulate_charge_trajectory

DEFAULT_FRAME_RATE = 10.0  # Hz, CCD-video style sampling


@dataclass(frozen=True)
class SurvivalCurve:
    """Number of still-trapped particles vs time."""

    times: np.ndarray
    n_alive: np.ndarray
    n0: int
    uv_on_time: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        n = np.asarray(self.n_alive, dtype=int)
        if len(t) != len(n):
            raise ValueError("times and n_alive must have equal length")
        if len(n):
            if n[0] != self.n0:
                raise ValueError("curve must start at n0")
            if np.any(np.diff(n) > 0):
                raise ValueError("n_alive must be non-increasing")
            if np.any(n < 0):
                raise ValueError("counts must be non-negative")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "n_alive", n)


def stable_charge_range(particle_template: Particle, trap: TrapConfig) -> tuple:
    """(min, max) |charge_count| keeping this particle inside the trap band."""
    from .trap import stability_parameter
    q_per_e = stability_parameter(particle_template.with_charge(1), trap)
    q_min, q_max = trap.stability_band
    lo = math.ceil(q_min / q_per_e - 1e-9)
    hi = math.floor(q_max / q_per_e + 1e-9)
    if lo > hi:
        raise ValueError("no integer charge is stable in this trap for this particle")
    return max(lo, 1), hi


ChargeSampler = Callable[[Particle, TrapConfig], Callable[[np.random.Generator], int]]
"""Initial-charge sampler, bound once per particle template.

``sampler(particle, trap)`` does all the work that depends only on the
template and the trap, and raises there if they admit no charge; the
``draw(rng) -> int`` it returns is called once per particle and costs little
more than its random draw.  ``simulate_survival`` binds it once per run.
"""


def envelope_charge_sampler(sign: int = -1) -> ChargeSampler:
    """Initial charges log-uniform inside the typical-charge envelope.

    The draw is restricted to the part of the envelope that is actually
    trappable (particles outside the band would never have loaded), which is
    also what keeps n_alive(0) = n0.
    """
    def sampler(particle, trap):
        env = charge_envelope(particle.radius)
        s_lo, s_hi = stable_charge_range(particle, trap)
        lo, hi = max(env.minimum, s_lo), min(env.maximum, s_hi)
        if lo > hi:
            raise ValueError(
                "typical-charge envelope does not overlap the stable band; "
                "adjust the trap geometry factor or drive")
        log_lo, log_hi = math.log(lo), math.log(hi)
        c_lo, c_hi = math.ceil(lo), math.floor(hi)

        def draw(rng):
            count = int(round(math.exp(rng.uniform(log_lo, log_hi))))
            return sign * min(max(count, c_lo), c_hi)
        return draw
    return sampler


def margin_charge_sampler(margin_lo: int, margin_hi: int, sign: int = -1) -> ChargeSampler:
    """Initial charges a log-uniform margin above the instability threshold.

    Models loads that sit a size-independent number of electrons above the
    band floor; used by calibrated sweeps where the per-particle electron
    deficit must not co-vary with size.
    """
    if not (1 <= margin_lo <= margin_hi):
        raise ValueError("need 1 <= margin_lo <= margin_hi")
    log_lo, log_hi = math.log(margin_lo), math.log(margin_hi)

    def sampler(particle, trap):
        s_lo, s_hi = stable_charge_range(particle, trap)

        def draw(rng):
            margin = int(round(math.exp(rng.uniform(log_lo, log_hi))))
            count = s_lo + min(max(margin, margin_lo), margin_hi)
            if count > s_hi:
                raise ValueError("margin sampler exceeds the stable band ceiling")
            return sign * count
        return draw
    return sampler


def fixed_charge_sampler(charge_count: int) -> ChargeSampler:
    def sampler(particle, trap):
        return lambda rng: charge_count
    return sampler


def integrated_escape_check(particle: Particle, trap: TrapConfig) -> bool:
    """Opt-in dynamical loss check: True when the undamped driven motion at
    the particle's q grows without bound, i.e. the spectral radius of the
    RK4 period map exceeds 1 (trap.period_map_radius).

    The production loss criterion is the algebraic band check; this spot
    check confirms the dynamical side of it.  Note that only the upper band
    edge is a true parametric instability -- the lower edge (q ~ 0.1)
    models practical confinement limits that the ideal single-axis
    motion does not contain, so this check cannot replace the band
    test there.
    """
    from .trap import period_map_radius, stability_parameter
    return not period_map_radius(stability_parameter(particle, trap)) <= 1.0


def _death_time(rng, particle_template, charge, rate, exit_charge, duration,
                uv_on_time, background_rate):
    """First time a particle of this charge leaves the band (or inf).

    ``rate`` is the per-electron emission rate and ``exit_charge`` the first
    charge below the band floor, both fixed by the template; emission moves
    charge_count positive-ward, so it discharges a negative particle down
    through the band floor, while positive particles do not emit.
    """
    t_bg = rng.exponential(1.0 / background_rate) if background_rate > 0 else math.inf
    t_uv = math.inf
    if charge < 0 and rate > 0 and uv_on_time < duration:
        traj = simulate_charge_trajectory(
            particle_template.with_charge(charge), rate, duration - uv_on_time,
            direction="emit", rng=rng, floor_charge=exit_charge)
        if traj.n_events and traj.final_charge == exit_charge:
            t_uv = uv_on_time + float(traj.times[-1])
    return min(t_bg, t_uv)


def _survival_curve(deaths, duration, frame_rate, uv_on_time) -> SurvivalCurve:
    """Survivors at each frame of ``duration`` from one death time per particle."""
    n0 = len(deaths)
    times = np.arange(int(math.floor(duration * frame_rate)) + 1) / frame_rate
    # a death counts from the first frame at or after it; later ones fall in the dropped bin
    first = np.searchsorted(times, deaths)
    alive = n0 - np.cumsum(np.bincount(first, minlength=len(times) + 1)[:len(times)])
    return SurvivalCurve(times=times, n_alive=alive, n0=n0, uv_on_time=uv_on_time)


def simulate_survival(n0: int, particle_template: Particle, trap: TrapConfig,
                      model: EmissionModel, source: UVSource, duration: float,
                      seed: int, charge_sampler: Optional[ChargeSampler] = None,
                      uv_on_time: float = 0.0,
                      frame_rate: float = DEFAULT_FRAME_RATE,
                      background_rate: float = 0.0) -> SurvivalCurve:
    """Simulate n0 independent particles and count survivors over time.

    Each particle draws an initial charge, evolves an independent
    single-electron emission trajectory once the UV turns on, and dies the
    moment its stability parameter exits the trap band.  The curve is
    sampled at ``frame_rate``.  ``background_rate`` adds a UV-independent
    exponential loss channel (the no-UV control rate); UV emission acts on
    negatively charged particles only.
    """
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    if duration <= 0 or frame_rate <= 0:
        raise ValueError("duration and frame_rate must be positive")
    if charge_sampler is None:
        sign = -1 if particle_template.charge_count <= 0 else 1
        charge_sampler = envelope_charge_sampler(sign=sign)

    # everything that does not depend on the drawn charge is fixed by the template
    s_lo, s_hi = stable_charge_range(particle_template, trap)
    rate = emission_rate(model, source, particle_template)
    draw_charge = charge_sampler(particle_template, trap)
    deaths = np.empty(n0)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    seqs = root.spawn(n0)
    for i in range(n0):
        rng = np.random.default_rng(seqs[i])
        charge = draw_charge(rng)
        if not s_lo <= abs(charge) <= s_hi:
            raise ValueError(f"initial charge {charge} is outside the stable band "
                             f"({s_lo} to {s_hi} e)")
        deaths[i] = _death_time(rng, particle_template, charge, rate, 1 - s_lo,
                                duration, uv_on_time, background_rate)
    return _survival_curve(deaths, duration, frame_rate, uv_on_time)


def exponential_survival_curve(n0: int, tau: float, duration: float, seed: int,
                               frame_rate: float = DEFAULT_FRAME_RATE,
                               uv_on_time: float = 0.0) -> SurvivalCurve:
    """Survival curve with i.i.d. exponential(tau) loss times injected directly.

    Bypasses the trap physics entirely; validates the lifetime estimator
    against a known ground truth.
    """
    if n0 < 1 or tau <= 0 or duration <= 0:
        raise ValueError("n0, tau and duration must be positive")
    rng = np.random.default_rng(seed)
    deaths = uv_on_time + rng.exponential(tau, n0)
    return _survival_curve(deaths, duration, frame_rate, uv_on_time)


SweepPoint = namedtuple("SweepPoint", "x lifetime lifetime_error flags")


def _sweep_lifetime(curve) -> SweepPoint:
    try:
        result = fit_exponential(curve)
    except FitError as exc:
        return SweepPoint(math.nan, math.nan, math.nan, ("fit_failed", str(exc)))
    flags = result.flags
    tau = result.parameters["tau"]
    err = result.errors["tau"]
    if not result.converged:
        flags = flags + ("not_converged",)
    return SweepPoint(math.nan, tau, err, flags)


# axis -> (fewest values, how one value sets the particle and the source)
SWEEP_AXES = {
    "wavelength": (3, lambda particle, source, nm: (particle, replace(source, wavelength=nm))),
    "diameter": (1, lambda particle, source, m: (replace(particle, radius=m / 2.0), source)),
}


def lifetime_sweep(axis: str, values, n0: int, particle_template: Particle,
                   trap: TrapConfig, model: EmissionModel, source: UVSource,
                   duration: float, seed: int, **run_kwargs) -> list:
    """Simulate and fit a trap lifetime at each value along one sweep axis.

    ``axis`` is ``"wavelength"`` (values in nm set the source wavelength; at
    least 3 values) or ``"diameter"`` (values in m set the particle size, so
    mass, typical-charge envelope and emission rate co-vary while the trap
    and source stay fixed; at least 1 value).  Each point draws from its own
    spawn of ``seed``.  A failed fit flags its entry and the sweep continues.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {tuple(SWEEP_AXES)}")
    fewest, set_value = SWEEP_AXES[axis]
    values = [float(v) for v in values]
    if len(values) < fewest:
        raise ValueError(f"{axis} sweep needs at least {fewest} values")
    out = []
    for x, seq in zip(values, np.random.SeedSequence(seed).spawn(len(values))):
        particle, src = set_value(particle_template, source, x)
        curve = simulate_survival(n0, particle, trap, model, src, duration,
                                  seed=seq, **run_kwargs)
        out.append(_sweep_lifetime(curve)._replace(x=x))
    return out
