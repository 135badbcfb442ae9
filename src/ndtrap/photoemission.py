"""UV-driven charge changes: per-electron emission rate, stochastic jump
trajectories, and pulsed-laser timing including the single-pulse picker.

The per-electron rate is modelled as

    rate(lambda, d, I) = R0 * (I / I_ref) * (d / d_ref)^alpha * S(lambda) + floor

with S a decreasing logistic in wavelength (half-max at the center
wavelength, 10..90 width = 2 ln 9 / steepness) and alpha the size-scaling
exponent.  Rate is linear in intensity (one-photon regime).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Particle, UVSource

DEFAULT_WIDTH_10_90 = 10.0  # nm
TRAJECTORY_CHUNK = 65_536    # most exponential gaps drawn at once at a constant rate
PULSE_BLOCK = 2**20          # about the most candidate pulses count_pulses tests at once


def _logistic_decreasing(u: float) -> float:
    # 1 / (1 + e^u), overflow-safe
    if u >= 0:
        z = math.exp(-u)
        return z / (1.0 + z)
    return 1.0 / (1.0 + math.exp(u))


@dataclass(frozen=True)
class EmissionModel:
    """Wavelength/size/intensity response of the per-electron emission rate."""

    center_wavelength: float = 280.0                          # nm, S = 1/2 here
    steepness: float = 2.0 * math.log(9.0) / DEFAULT_WIDTH_10_90  # 1/nm, > 0
    rate_scale: float = 1.0      # 1/s at reference size/intensity, short wavelength
    size_exponent: float = 1.3
    floor_rate: float = 0.0      # 1/s residual rate far above the step
    reference_diameter: float = 1e-6       # m
    reference_intensity: float = 10.0      # W/m^2 (= 1 mW/cm^2)

    def __post_init__(self):
        if self.steepness <= 0:
            raise ValueError("steepness must be positive (rate decreases with wavelength)")
        if self.rate_scale < 0 or self.floor_rate < 0:
            raise ValueError("rates must be >= 0")
        if self.reference_diameter <= 0 or self.reference_intensity <= 0:
            raise ValueError("reference scales must be positive")

    @classmethod
    def from_width(cls, center_wavelength: float = 280.0,
                   width_10_90: float = DEFAULT_WIDTH_10_90, **kwargs) -> "EmissionModel":
        """Construct from the 10%..90% transition width in nm."""
        if width_10_90 <= 0:
            raise ValueError("width must be positive")
        steepness = 2.0 * math.log(9.0) / width_10_90
        return cls(center_wavelength=center_wavelength, steepness=steepness, **kwargs)

    @property
    def width_10_90(self) -> float:
        return 2.0 * math.log(9.0) / self.steepness

    def wavelength_response(self, wavelength_nm: float) -> float:
        """Decreasing logistic S(lambda), 1/2 at the center wavelength."""
        return _logistic_decreasing(self.steepness * (wavelength_nm - self.center_wavelength))


def emission_rate(model: EmissionModel, source: UVSource, particle: Particle) -> float:
    """Per-electron charge-change rate in 1/s for this source and particle."""
    if particle.radius <= 0:
        raise ValueError("particle radius must be positive")
    s = model.wavelength_response(source.wavelength)
    scale = ((source.average_intensity / model.reference_intensity)
             * (particle.diameter / model.reference_diameter) ** model.size_exponent)
    return model.rate_scale * scale * s + model.floor_rate


@dataclass(frozen=True)
class ChargeTrajectory:
    """Event record of single-electron charge steps on one particle."""

    times: np.ndarray          # s, strictly increasing event times
    charges: np.ndarray        # charge_count after each event
    initial_charge: int

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        c = np.asarray(self.charges, dtype=int)
        if len(t) != len(c):
            raise ValueError("times and charges must have equal length")
        if len(t):
            if not (t[1:] > t[:-1]).all():
                raise ValueError("event times must be strictly increasing")
            if abs(c[0] - self.initial_charge) != 1 or not (np.abs(c[1:] - c[:-1]) == 1).all():
                raise ValueError("each event must change the charge by exactly one e")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "charges", c)

    @property
    def n_events(self) -> int:
        return len(self.times)

    @property
    def final_charge(self) -> int:
        return int(self.charges[-1]) if len(self.charges) else self.initial_charge

    def charge_at(self, t) -> np.ndarray:
        """Charge count at time(s) t (initial charge before the first event)."""
        t = np.asarray(t, dtype=float)
        full = np.concatenate(([self.initial_charge], self.charges))
        idx = np.searchsorted(self.times, t, side="right")
        return full[idx]


def _constant_rate_jumps(rng, rate, duration, c0, step, floor_charge):
    """Jump times and charges at a constant rate, the exponential gaps drawn
    in arrays of up to TRAJECTORY_CHUNK, never more than the floor allows.

    Seeding each array's first gap with the running time makes cumsum add
    in the order one draw per event would, so the times are the same bits.
    """
    times, charges = [], []
    c, t = c0, 0.0
    while True:
        n = TRAJECTORY_CHUNK if floor_charge is None else min(TRAJECTORY_CHUNK,
                                                              abs(floor_charge - c))
        gaps = rng.exponential(1.0 / rate, n)
        gaps[0] += t
        chunk = gaps.cumsum()
        k = int(chunk.searchsorted(duration))         # first time >= duration
        times.append(chunk[:k])
        charges.append(c + step * np.arange(1, k + 1))
        c += step * k
        t = float(chunk[-1])
        if k < n or c == floor_charge:
            if len(times) == 1:
                return times[0], charges[0]
            return np.concatenate(times), np.concatenate(charges)


def simulate_charge_trajectory(particle: Particle, rate: float, duration: float,
                               direction: str = "emit", *, rng: np.random.Generator,
                               floor_charge: Optional[int] = 0) -> ChargeTrajectory:
    """Single-electron jump process at a constant per-electron rate (1/s).

    ``direction="emit"`` removes electrons (charge_count moves positive-ward),
    ``"capture"`` adds them (charge_count moves negative-ward).  The process
    stops at ``floor_charge`` (default 0 = neutrality) or at ``duration``.
    The exponential gaps are drawn as arrays (the same values, in the same
    order, as one draw per event), so ``rng`` may end up past the draws the
    trajectory used.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if direction not in ("emit", "capture"):
        raise ValueError(f"direction must be 'emit' or 'capture', got {direction!r}")
    if not rate >= 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    step = +1 if direction == "emit" else -1
    c0 = particle.charge_count
    if floor_charge is not None and (floor_charge - c0) * step < 0:
        raise ValueError(
            f"floor_charge {floor_charge} is unreachable from {c0} in direction {direction}")
    times = charges = ()
    if rate > 0 and c0 != floor_charge:
        times, charges = _constant_rate_jumps(rng, rate, duration, c0, step, floor_charge)
    return ChargeTrajectory(times=times, charges=charges, initial_charge=c0)


@dataclass(frozen=True)
class PulseTrain:
    """Laser pulse train gated by a mechanical shutter and an optical chopper.

    Phases are fractions in [0, 1): the shutter opening time relative to the
    chopper period, the chopper window offset within its period, and the
    laser pulse offset within its repetition period.
    """

    repetition_rate: float      # Hz
    pulse_duration: float       # s
    shutter_open: float         # s, exposure window length
    chopper_frequency: float    # Hz
    chopper_duty: float         # fraction of the chopper period that is open
    phases: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.repetition_rate <= 0 or self.chopper_frequency <= 0:
            raise ValueError("rates must be positive")
        if self.shutter_open <= 0 or self.pulse_duration <= 0:
            raise ValueError("durations must be positive")
        if not (0.0 < self.chopper_duty < 1.0):
            raise ValueError("chopper duty must be in (0, 1)")
        if len(self.phases) != 3 or any(not (0.0 <= p < 1.0) for p in self.phases):
            raise ValueError("phases must be three fractions in [0, 1)")
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))


def mean_pulses_analytic(train: PulseTrain) -> float:
    """Expected transmitted pulses per shutter exposure over random phases."""
    return train.shutter_open * train.repetition_rate * train.chopper_duty


def _pulse_windows(train: PulseTrain, phases: np.ndarray):
    """Candidate pulse times of each row of an (n, 3) phase array, and which
    of them pass shutter and chopper.

    Row i's candidates are ``n_lo_i + arange(width)``, ``width`` the widest
    row's count; a row's candidates past its own ``n_hi`` never pass.  Pulse
    centers are tested against the windows; at sub-ns pulse lengths the
    distinction from full containment is negligible.
    """
    shutter_phase, chopper_phase, laser_phase = (phases[:, k, None] for k in range(3))
    t_chop = 1.0 / train.chopper_frequency
    t_rep = 1.0 / train.repetition_rate
    t0 = shutter_phase * t_chop
    t1 = t0 + train.shutter_open
    n_lo = np.ceil((t0 - laser_phase * t_rep) / t_rep)
    last = np.floor((t1 - laser_phase * t_rep) / t_rep) - n_lo
    j = np.arange(int(last.max(initial=-1.0)) + 1)
    t = (n_lo + j + laser_phase) * t_rep
    # x - floor(x) rounds the same exact value once, as x % 1.0 does (whose
    # result takes the divisor's sign, like Python's float %), but cheaper
    x = t / t_chop - chopper_phase
    passed = (j <= last) & (t0 <= t) & (t < t1) & (x - np.floor(x) < train.chopper_duty)
    return t, passed


def pick_pulses(train: PulseTrain, phases: Optional[tuple] = None) -> np.ndarray:
    """Times of laser pulses transmitted through shutter and chopper.

    Deterministic for given phases (``phases`` argument, else the train's
    own); ``count_pulses`` counts them for many phase triples at once.
    """
    phases = np.array([train.phases if phases is None else phases], dtype=float)
    t, passed = _pulse_windows(train, phases)
    return t[passed]


def count_pulses(train: PulseTrain, phases: np.ndarray) -> np.ndarray:
    """Transmitted-pulse count of each row of an (n, 3) array of phases
    (shutter, chopper, laser), equal to ``len(pick_pulses(train, row))``.

    Rows go in blocks of about PULSE_BLOCK candidate pulses.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 2 or phases.shape[1] != 3:
        raise ValueError(f"phases must be an (n, 3) array, got shape {phases.shape}")
    rows = max(1, PULSE_BLOCK // (int(train.shutter_open * train.repetition_rate) + 2))
    counts = np.empty(len(phases), dtype=np.int64)
    for i in range(0, len(phases), rows):
        counts[i:i + rows] = _pulse_windows(train, phases[i:i + rows])[1].sum(axis=1)
    return counts


def required_intensity_scaling(target_time: float, measured_time: float) -> float:
    """Intensity factor needed to compress a neutralization to target_time.

    Assumes the one-photon linear rate-intensity relation, so the factor is
    simply measured_time / target_time.
    """
    if target_time <= 0 or measured_time <= 0:
        raise ValueError("times must be positive")
    return measured_time / target_time


def spot_for_power(power: float, target_intensity: float) -> float:
    """Beam spot diameter (m) that turns a power (W) into an intensity (W/m^2)."""
    if power <= 0 or target_intensity <= 0:
        raise ValueError("power and intensity must be positive")
    return 2.0 * math.sqrt(power / (math.pi * target_intensity))
