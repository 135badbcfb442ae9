"""Paul-trap physics: stability parameter, secular frequency, gas damping and
time-domain integration of the driven, damped radial equation of motion.

The dimensionless stability parameter is

    q = 2 |Q| V eta / (m Omega^2 r0^2)

with Q the particle charge, V the zero-to-peak drive amplitude, eta the trap
geometry factor, m the particle mass, Omega the angular drive frequency and
r0 the characteristic electrode distance.  With no DC term, particles are
practically trapped for q inside the configured band, default (0.1, 0.9).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .constants import (AIR_MOLECULE_MASS, BOLTZMANN, ELEMENTARY_CHARGE,
                        ROOM_TEMPERATURE)
from .core import Particle, TrapConfig
from .units import torr_to_pa

# first-order pseudopotential formula f_sec = q f_drive / (2 sqrt(2)) holds
# well below this q
FIRST_ORDER_Q_LIMIT = 0.4

MIN_STEPS_PER_PERIOD = 200

# find_mathieu_boundary: bisection bracket and tolerance on q, and a probe's
# length in drive periods and the growth of |x| that counts as unstable
BOUNDARY_BRACKET = (0.5, 1.5)
BOUNDARY_TOLERANCE = 1e-3
BOUNDARY_PERIODS = 600
BOUNDARY_GROWTH = 1e4

# noise-free motion goes in blocks of whole drive periods whose per-step
# positions fill about this many float64 values (128 KB)
BLOCK_STEPS = 16_384


def stability_parameter(particle: Particle, trap: TrapConfig) -> float:
    """Dimensionless q for this particle in this trap (sign of charge ignored)."""
    m = particle.mass
    if m <= 0:
        raise ValueError("particle mass must be positive")
    q_coulomb = abs(particle.charge_count) * ELEMENTARY_CHARGE
    omega = trap.angular_frequency
    return (2.0 * q_coulomb * trap.voltage_amplitude * trap.geometry_factor
            / (m * omega**2 * trap.characteristic_radius**2))


def is_stable(q: float, band: tuple) -> bool:
    """True iff q_min <= q <= q_max; boundary values count as stable."""
    q_min, q_max = band
    if not (0 < q_min < q_max):
        raise ValueError(f"invalid stability band {band}")
    return q_min <= q <= q_max


def secular_frequency(particle: Particle, trap: TrapConfig) -> float:
    """First-order secular frequency f = (q / (2 sqrt(2))) f_drive, in Hz.

    Strictly proportional to |charge_count|, which is what makes the
    frequency-lattice charge readout work.  Only approximate above
    q = 0.4; see stability_report for the validity flag.
    """
    q = stability_parameter(particle, trap)
    return q / (2.0 * math.sqrt(2.0)) * trap.drive_frequency


@dataclass(frozen=True)
class StabilityReport:
    q: float
    stable: bool
    secular_frequency: float      # Hz, first-order formula
    first_order_valid: bool       # False when q >= 0.4


def stability_report(particle: Particle, trap: TrapConfig) -> StabilityReport:
    q = stability_parameter(particle, trap)
    return StabilityReport(
        q=q,
        stable=is_stable(q, trap.stability_band),
        secular_frequency=q / (2.0 * math.sqrt(2.0)) * trap.drive_frequency,
        first_order_valid=q < FIRST_ORDER_Q_LIMIT,
    )


def damping_rate(particle: Particle, pressure_torr: float) -> float:
    """Free-molecular (Epstein) velocity damping rate gamma in 1/s.

    gamma = delta * P * sqrt(8 m_gas / (pi kB T)) / (radius * density)
    for air at room temperature, linear in pressure, with delta = 1 + pi/8
    for diffuse reflection (Epstein's accommodated case).
    """
    if pressure_torr < 0:
        raise ValueError("pressure must be >= 0")
    if pressure_torr == 0:
        return 0.0
    delta = 1.0 + math.pi / 8.0
    pressure_pa = torr_to_pa(pressure_torr)
    speed_factor = math.sqrt(8.0 * AIR_MOLECULE_MASS / (math.pi * BOLTZMANN * ROOM_TEMPERATURE))
    return delta * pressure_pa * speed_factor / (particle.radius * particle.material_density)


@dataclass(frozen=True)
class MotionTrace:
    """Uniformly sampled radial position trace from the integrator."""

    sample_rate: float            # Hz
    times: np.ndarray             # s
    positions: np.ndarray         # m
    q: float                      # stability parameter of the traced particle

    def __post_init__(self):
        if len(self.times) != len(self.positions):
            raise ValueError("times and positions must have equal length")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("motion trace contains non-finite positions")

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0]) if len(self.times) else 0.0


@dataclass(frozen=True)
class ParticleLost:
    """Returned instead of a trace when the integrated motion diverges."""

    escape_time: float
    q: float


def _integrate_linear_oscillator(stiffness_table, dt, n_steps, damping,
                                 x0, v0, kick_sigma=0.0, rng=None,
                                 escape_radius=None, sample_stride=1):
    """Fixed-step RK4 for x'' + damping x' + k(t) x = noise.

    ``stiffness_table`` holds k(t) sampled on the half-step grid of one
    period of the stiffness, 2 * steps_per_period entries, and repeats with
    that period (a constant stiffness is passed as one period of constant
    entries).  With thermal kicks (``kick_sigma > 0``) the motion is stepped
    one RK4 step at a time.  Without them RK4 on this linear equation is a
    fixed 2x2 matrix per step, repeating every period, so the motion is
    advanced by the period map; see ``_advance_by_period_map``.  Either way
    every step is tested for escape: |x| beyond ``escape_radius``, or not
    finite, which is where an unbounded motion overflows when no radius is
    given.  Returns (positions, lost, escape_step, final_state); positions
    includes t = 0 and is sampled every ``sample_stride`` steps.
    """
    if len(stiffness_table) % 2:
        raise ValueError("stiffness table must cover one period of half-steps")
    if escape_radius is None:
        escape_radius = sys.float_info.max
    if kick_sigma <= 0.0:
        return _advance_by_period_map(stiffness_table, dt, n_steps, damping,
                                      x0, v0, escape_radius, sample_stride)
    if rng is None:
        raise ValueError("thermal kicks need an rng")
    tab = [float(s) for s in stiffness_table]
    m = len(tab)
    g = float(damping)
    x = float(x0)
    v = float(v0)
    half = 0.5 * dt
    sixth = dt / 6.0
    out = [x]
    normals = rng.standard_normal(n_steps)
    for step in range(n_steps):
        j = (2 * step) % m
        s0 = tab[j]
        s1 = tab[(j + 1) % m]
        s2 = tab[(j + 2) % m]
        k1x = v
        k1v = -s0 * x - g * v
        x2 = x + half * k1x
        v2 = v + half * k1v
        k2x = v2
        k2v = -s1 * x2 - g * v2
        x3 = x + half * k2x
        v3 = v + half * k2v
        k3x = v3
        k3v = -s1 * x3 - g * v3
        x4 = x + dt * k3x
        v4 = v + dt * k3v
        k4x = v4
        k4v = -s2 * x4 - g * v4
        x += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        v += sixth * (k1v + 2.0 * (k2v + k3v) + k4v)
        v += kick_sigma * normals[step]
        if not abs(x) <= escape_radius:
            return np.asarray(out), True, step + 1, (x, v)
        if (step + 1) % sample_stride == 0:
            out.append(x)
    return np.asarray(out), False, -1, (x, v)


def _period_products(stiffness_table, dt, damping):
    """Running products Phi_j = S_j ... S_1 (j = 1 .. steps_per_period) of
    the RK4 step matrices over one period of the table, as four arrays of
    entries (p00, p01, p10, p11); the last Phi is the period map M.

    Column c of S_j is one RK4 step from the unit state e_c.  Everything is
    elementwise arithmetic, so the result does not depend on a BLAS build.
    """
    k = np.asarray(stiffness_table, dtype=float)
    s0, s1 = k[0::2], k[1::2]
    s2 = np.roll(s0, -1)
    g = float(damping)
    cols = []
    for x, v in ((1.0, 0.0), (0.0, 1.0)):
        k1x, k1v = v, -s0 * x - g * v
        x2, v2 = x + 0.5 * dt * k1x, v + 0.5 * dt * k1v
        k2x, k2v = v2, -s1 * x2 - g * v2
        x3, v3 = x + 0.5 * dt * k2x, v + 0.5 * dt * k2v
        k3x, k3v = v3, -s1 * x3 - g * v3
        x4, v4 = x + dt * k3x, v + dt * k3v
        k4x, k4v = v4, -s2 * x4 - g * v4
        cols.append((x + dt / 6.0 * (k1x + 2.0 * (k2x + k3x) + k4x),
                     v + dt / 6.0 * (k1v + 2.0 * (k2v + k3v) + k4v)))
    (p00, p10), (p01, p11) = cols
    # inclusive prefix product, later steps on the left, in log2(n) rounds
    n = len(s0)
    shift = 1
    while shift < n:
        a00, a01, a10, a11 = p00[shift:], p01[shift:], p10[shift:], p11[shift:]
        b00, b01, b10, b11 = p00[:-shift], p01[:-shift], p10[:-shift], p11[:-shift]
        p00[shift:], p01[shift:], p10[shift:], p11[shift:] = (
            a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)
        shift *= 2
    return p00, p01, p10, p11


@np.errstate(over="ignore", invalid="ignore")
def _advance_by_period_map(stiffness_table, dt, n_steps, damping, x0, v0,
                           escape_radius, sample_stride):
    """Noise-free RK4 by whole periods: y <- M y once per period, and the
    position after step j of a period as row 0 of Phi_j applied to the state
    at the period's start.  Periods go in blocks of about BLOCK_STEPS steps,
    so temporaries stay small and only the strided samples are kept.  A
    position that overflows is not finite and counts as escaped."""
    p00, p01, p10, p11 = _period_products(stiffness_table, dt, damping)
    n = len(p00)
    m00, m01, m10, m11 = (float(p[-1]) for p in (p00, p01, p10, p11))
    x, v = float(x0), float(v0)
    chunks = [np.array([x])]
    final = (x, v)
    block = max(1, BLOCK_STEPS // n)
    done = 0                          # steps before the current block
    while done < n_steps:
        starts = []
        for _ in range(min(block, -(-(n_steps - done) // n))):
            starts.append((x, v))
            x, v = m00 * x + m01 * v, m10 * x + m11 * v
            if not abs(x) <= escape_radius:
                break                 # the escape lies in this block
        y = np.array(starts)
        # positions after steps done + 1, done + 2, ... of this block
        pos = (y[:, :1] * p00 + y[:, 1:] * p01).ravel()[:n_steps - done]
        first = (-done - 1) % sample_stride
        inside = np.abs(pos) <= escape_radius
        escaped = not inside.all()
        last = int(np.argmin(inside)) if escaped else len(pos) - 1
        period, j = divmod(last, n)
        xk, vk = starts[period]
        final = (float(p00[j] * xk + p01[j] * vk), float(p10[j] * xk + p11[j] * vk))
        if escaped:
            chunks.append(pos[first:last:sample_stride])
            return np.concatenate(chunks), True, done + last + 1, final
        chunks.append(pos[first::sample_stride])
        done += len(pos)
    return np.concatenate(chunks), False, -1, final


def _mathieu_stiffness_table(q, omega, steps_per_period):
    """k(t) = (q Omega^2 / 2) cos(Omega t) on the half-step grid of one period."""
    amp = 0.5 * q * omega * omega
    n = steps_per_period
    return [amp * math.cos(math.pi * j / n) for j in range(2 * n)]


def integrate_mathieu(q, drive_frequency, duration, damping=0.0,
                      x0=1.0, v0=0.0, steps_per_period=256,
                      kick_sigma=0.0, rng=None, escape_radius=None,
                      sample_stride=1):
    """Integrate x'' + gamma x' + (q Omega^2 / 2) cos(Omega t) x = noise.

    Dimensionless-friendly core used by integrate_motion and by the
    stability-boundary search.  Returns (times, positions, lost, escape_time).
    Without ``escape_radius`` an unbounded motion is lost at the step where
    |x| overflows.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if steps_per_period < MIN_STEPS_PER_PERIOD:
        raise ValueError(
            f"steps_per_period must be >= {MIN_STEPS_PER_PERIOD} "
            "(integrator step <= drive period / 200)")
    omega = 2.0 * math.pi * drive_frequency
    dt = 1.0 / (drive_frequency * steps_per_period)
    n_steps = int(round(duration * drive_frequency * steps_per_period))
    tab = _mathieu_stiffness_table(q, omega, steps_per_period)
    xs, lost, esc_step, _ = _integrate_linear_oscillator(
        tab, dt, n_steps, damping, x0, v0, kick_sigma=kick_sigma, rng=rng,
        escape_radius=escape_radius, sample_stride=sample_stride)
    if lost:
        return None, None, True, esc_step * dt
    times = np.arange(len(xs)) * (dt * sample_stride)
    return times, xs, False, None


def integrate_motion(particle: Particle, trap: TrapConfig, duration: float,
                     damping: float = 0.0, rng_seed: int = 0,
                     thermal_noise: bool = False,
                     x0: Optional[float] = None, v0: float = 0.0,
                     steps_per_period: int = 256,
                     sample_rate: Optional[float] = None
                     ) -> Union[MotionTrace, ParticleLost]:
    """Time-domain radial motion of a particle in the driven trap.

    Fixed-step RK4 at >= 200 steps per drive period, bit-reproducible for a
    given seed.  With thermal_noise on, a white force with variance set by
    the fluctuation-dissipation theorem at room temperature is applied.
    Divergence beyond 100 r0 reports ParticleLost with the escape time
    instead of emitting a trace.
    """
    q = stability_parameter(particle, trap)
    if x0 is None:
        x0 = 0.01 * trap.characteristic_radius
    step_rate = trap.drive_frequency * steps_per_period
    if sample_rate is None:
        stride = 1
    else:
        stride = max(1, int(round(step_rate / sample_rate)))
    dt = 1.0 / step_rate
    kick_sigma = 0.0
    rng = None
    if thermal_noise and damping > 0.0:
        kick_sigma = math.sqrt(2.0 * damping * BOLTZMANN * ROOM_TEMPERATURE
                               / particle.mass * dt)
        rng = np.random.default_rng(rng_seed)
    times, xs, lost, escape_time = integrate_mathieu(
        q, trap.drive_frequency, duration, damping=damping, x0=x0, v0=v0,
        steps_per_period=steps_per_period, kick_sigma=kick_sigma, rng=rng,
        escape_radius=100.0 * trap.characteristic_radius, sample_stride=stride)
    if lost:
        return ParticleLost(escape_time=escape_time, q=q)
    return MotionTrace(sample_rate=step_rate / stride, times=times, positions=xs, q=q)


def find_mathieu_boundary() -> float:
    """Locate the a = 0 Mathieu stability boundary by bisection on q.

    A probe counts as unstable when |x| grows by BOUNDARY_GROWTH over
    BOUNDARY_PERIODS drive periods starting from x0 = 1, v0 = 0, no damping;
    the bisection runs over BOUNDARY_BRACKET to BOUNDARY_TOLERANCE in q.
    The known boundary is q ~ 0.908.
    """
    def unstable(q):
        _, _, lost, _ = integrate_mathieu(
            q, 1.0, BOUNDARY_PERIODS, damping=0.0, x0=1.0, v0=0.0,
            escape_radius=BOUNDARY_GROWTH, sample_stride=256)
        return lost

    lo, hi = BOUNDARY_BRACKET
    if unstable(lo) or not unstable(hi):
        raise ValueError("bracket does not straddle the stability boundary")
    while hi - lo > BOUNDARY_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if unstable(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
