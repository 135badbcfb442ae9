"""Multi-particle lifetime experiments: N trapped particles under UV, each
losing electrons at a constant per-electron rate, dying when its stability
parameter leaves the trap band.  Produces survival curves and the
lifetime-vs-wavelength / lifetime-vs-size sweep tables.

Determinism contract: a curve draws from one generator, ``default_rng(seed)``,
one array at a time; a sweep spawns one seed per point with numpy
SeedSequence.  Results are bit-identical for a given seed.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .core import Particle, TrapConfig, UVSource, charge_envelope
from .fitters import FitError, _time_steps, fit_exponential
# unused here; perfbench/tracer.py wraps this module's simulate_charge_trajectory
from .photoemission import EmissionModel, emission_rate, simulate_charge_trajectory  # noqa: F401
from .trap import period_map_radius, stability_parameter

DEFAULT_FRAME_RATE = 10.0  # Hz, CCD-video style sampling


@dataclass(frozen=True)
class SurvivalCurve:
    """Number of still-trapped particles vs time.

    Curves built by ``_survival_curve`` carry their runs in ``runs``:
    (run-start frames, run values, ``fitters._time_steps`` of the frame
    grid), the runs strictly decreasing by construction.  Such a curve skips
    the frame-length non-increasing scan here, and ``fit_exponential`` reads
    its runs in place of scanning the frames.  A curve given from outside
    leaves ``runs`` None and gets every check; a ``dataclasses.replace`` of
    its times or counts must pass ``runs=None`` too.
    """

    times: np.ndarray
    n_alive: np.ndarray
    n0: int
    uv_on_time: float
    runs: Optional[tuple] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        n = np.asarray(self.n_alive)
        if n.dtype.kind not in "biu":
            # a count that is not a whole, finite number does not survive the cast
            with np.errstate(invalid="ignore"):
                whole = n.astype(int)
            if not np.array_equal(whole, n):
                raise ValueError("counts must be whole, finite numbers")
        n = np.asarray(n, dtype=int)
        if len(t) != len(n):
            raise ValueError("times and n_alive must have equal length")
        if len(n):
            if n[0] != self.n0:
                raise ValueError("curve must start at n0")
            if self.runs is None and (n[1:] > n[:-1]).any():
                raise ValueError("n_alive must be non-increasing")
            if n[-1] < 0:
                raise ValueError("counts must be non-negative")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "n_alive", n)


def stable_charge_range(particle_template: Particle, trap: TrapConfig) -> tuple:
    """(min, max) |charge_count| keeping this particle inside the trap band."""
    q_per_e = stability_parameter(particle_template.with_charge(1), trap)
    q_min, q_max = trap.stability_band
    lo = math.ceil(q_min / q_per_e - 1e-9)
    hi = math.floor(q_max / q_per_e + 1e-9)
    if lo > hi:
        raise ValueError("no integer charge is stable in this trap for this particle")
    return max(lo, 1), hi


ChargeSampler = Callable[[Particle, TrapConfig], Callable[[np.random.Generator, int], np.ndarray]]
"""Initial-charge sampler: ``sampler(particle, trap)`` does the work that depends
only on the template and the trap, raising there if they admit no charge, and
returns ``draw(rng, n)``, the charges of n particles as one integer array.
"""


def _log_uniform_counts(rng, n, log_lo, log_hi, c_lo, c_hi):
    """n integer counts, rounded from a log-uniform draw and clipped to [c_lo, c_hi]."""
    return np.clip(np.rint(np.exp(rng.uniform(log_lo, log_hi, n))).astype(int), c_lo, c_hi)


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
        return lambda rng, n: sign * _log_uniform_counts(rng, n, log_lo, log_hi, c_lo, c_hi)
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

        def draw(rng, n):
            counts = s_lo + _log_uniform_counts(rng, n, log_lo, log_hi, margin_lo, margin_hi)
            if (counts > s_hi).any():
                raise ValueError("margin sampler exceeds the stable band ceiling")
            return sign * counts
        return draw
    return sampler


def fixed_charge_sampler(charge_count: int) -> ChargeSampler:
    def sampler(particle, trap):
        return lambda rng, n: np.full(n, charge_count)
    return sampler


def integrated_escape_check(particle: Particle, trap: TrapConfig) -> bool:
    """Opt-in dynamical loss check: True when the undamped driven motion at
    the particle's q grows without bound, i.e. the spectral radius of the
    RK4 period map exceeds 1 (trap.period_map_radius).  It confirms the
    algebraic band check at the upper edge only: the lower edge (q ~ 0.1)
    models confinement limits that the ideal single-axis motion lacks.
    """
    return not period_map_radius(stability_parameter(particle, trap)) <= 1.0


@functools.lru_cache(maxsize=8)
def _frame_times(duration, frame_rate) -> np.ndarray:
    """Frame times of a run, one read-only array shared by its curves.

    A fresh frame-sized array per curve, with the fit's, lands on freshly
    mapped pages whenever the allocator has trimmed its heap in between.
    """
    product = duration * frame_rate
    # a product a few ulps below a whole number is that number: 0.29 s at 100 Hz
    # is 28.999999999999996 frame periods, and its last frame lies at 0.29 s
    last = round(product)
    if abs(product - last) > 4 * math.ulp(product):
        last = math.floor(product)
    times = np.arange(last + 1, dtype=float)
    times /= frame_rate
    times.flags.writeable = False
    return times


@functools.lru_cache(maxsize=8)
def _frame_steps(duration, frame_rate) -> tuple:
    """``fitters._time_steps`` of ``_frame_times(duration, frame_rate)``: three scalars."""
    return _time_steps(_frame_times(duration, frame_rate))


def _survival_curve(deaths, duration, frame_rate, uv_on_time) -> SurvivalCurve:
    """Survivors at each frame of ``duration`` from one death time per particle
    (at least one)."""
    n0 = len(deaths)
    times = _frame_times(duration, frame_rate)[:]   # a view no caller can make writeable
    # a death counts from the first frame at or after it; one after the last frame
    # never counts.  Each count holds from its frame to the next: at most n0 + 1
    # runs, written out once and carried to the fit, less the empty last run
    # of deaths past the last frame.  Among the sorted frame indices, the death
    # at i is the last at its frame where index i + 1 differs: the i + 1 deaths
    # up to it leave n0 - 1 - i, and the final frame's leave none.
    frames = np.searchsorted(times, deaths)
    frames.sort()
    last = np.flatnonzero(frames[:-1] != frames[1:])
    values = np.concatenate(([n0], n0 - 1 - last, [0]))
    edges = np.concatenate(([0], frames[last], frames[-1:], [len(times)]))
    lengths = np.diff(edges)
    alive = np.repeat(values, lengths)
    held = lengths > 0
    runs = (edges[:-1][held], values[held], _frame_steps(duration, frame_rate))
    return SurvivalCurve(times=times, n_alive=alive, n0=n0, uv_on_time=uv_on_time, runs=runs)


def simulate_survival(n0: int, particle_template: Particle, trap: TrapConfig,
                      model: EmissionModel, source: UVSource, duration: float,
                      seed: int, charge_sampler: Optional[ChargeSampler] = None,
                      uv_on_time: float = 0.0,
                      frame_rate: float = DEFAULT_FRAME_RATE,
                      background_rate: float = 0.0) -> SurvivalCurve:
    """Simulate n0 independent particles and count survivors over time.

    Each particle draws an initial charge and dies the moment its stability
    parameter exits the trap band: once the UV turns on, a negative particle
    k electrons above the exit charge leaves at a Gamma(k, 1/rate) time, the
    k-th event of its constant-rate emission.  The curve is sampled at
    ``frame_rate``.  ``background_rate`` adds a UV-independent exponential
    loss channel (the no-UV control rate).
    """
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    if duration <= 0 or frame_rate <= 0:
        raise ValueError("duration and frame_rate must be positive")
    if charge_sampler is None:
        charge_sampler = envelope_charge_sampler(-1 if particle_template.charge_count <= 0 else 1)

    # everything that does not depend on the drawn charge is fixed by the template
    s_lo, s_hi = stable_charge_range(particle_template, trap)
    rate = emission_rate(model, source, particle_template)
    rng = np.random.default_rng(seed)
    charges = np.asarray(charge_sampler(particle_template, trap)(rng, n0))
    size = np.abs(charges)
    outside = (size < s_lo) | (size > s_hi)
    if outside.any():
        raise ValueError(f"initial charge {charges[outside.argmax()]} is outside the "
                         f"stable band ({s_lo} to {s_hi} e)")
    t_bg = rng.exponential(1.0 / background_rate, n0) if background_rate > 0 else math.inf
    deaths = np.full(n0, math.inf)
    if rate > 0 and uv_on_time < duration:
        # emission moves charge_count up through the band floor to 1 - s_lo; only negatives emit
        negative = charges < 0
        g = rng.gamma(1 - s_lo - charges[negative], 1.0 / rate)
        deaths[negative] = np.where(g < duration - uv_on_time, uv_on_time + g, math.inf)
    return _survival_curve(np.minimum(deaths, t_bg), duration, frame_rate, uv_on_time)


def exponential_survival_curve(n0: int, tau: float, duration: float, seed: int,
                               frame_rate: float = DEFAULT_FRAME_RATE,
                               uv_on_time: float = 0.0) -> SurvivalCurve:
    """Survival curve with i.i.d. exponential(tau) loss times injected directly.

    Bypasses the trap physics entirely; validates the lifetime estimator
    against a known ground truth.
    """
    if n0 < 1 or tau <= 0 or duration <= 0:
        raise ValueError("n0, tau and duration must be positive")
    deaths = uv_on_time + np.random.default_rng(seed).exponential(tau, n0)
    return _survival_curve(deaths, duration, frame_rate, uv_on_time)


SweepPoint = namedtuple("SweepPoint", "x lifetime lifetime_error flags")


def _sweep_lifetime(curve) -> SweepPoint:
    try:
        result = fit_exponential(curve)
    except FitError as exc:
        return SweepPoint(math.nan, math.nan, math.nan, ("fit_failed", str(exc)))
    flags = result.flags + (() if result.converged else ("not_converged",))
    return SweepPoint(math.nan, result["tau"], result.errors["tau"], flags)


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
