"""The four benchmark workloads.

Each workload is built from a bundled scenario and drives the public
functions of ``ndtrap.runner`` and of the layers directly, always through the
module attribute (``fitters.fit_charge_lattice(...)``), so the outside tracer
sees every call.  Item inputs come only from ``Scenario.with_seed(...)`` with
scenario seeds spawned from the workload seed by ``SeedSequence``.

A workload object parses its scenarios when it is built, offers ``warmup()``
(one untimed item) and ``run(recorder)``, which does items until the
recorder's budget is spent, and ``checks()``, the aggregate checks of the
pass.  See README.md for why each workload exists and what it stresses.
"""

from __future__ import annotations

import math
import traceback
from collections import Counter
from dataclasses import replace
from time import perf_counter

import numpy as np

from ndtrap import ensemble, fitters, runner, signal, trap
from ndtrap.reproduce import (FIG7_CENTER, FIG7_THRESHOLD, FIG7_WIDTH,
                              FIG8_EXPONENT, FIG9_DELTA_F, FIG9_MIN_SUCCESS)

# Mathieu a = 0 stability boundary and the tolerance the tests pin it to.
MATHIEU_BOUNDARY = 0.908
BOUNDARY_TOLERANCE = 0.01
# stability_scan probes stay this far in q from the boundary, so the
# integrated check has a definite answer.
STABILITY_MARGIN = 0.015
STABLE_Q = (0.65, MATHIEU_BOUNDARY - STABILITY_MARGIN)
UNSTABLE_Q = (MATHIEU_BOUNDARY + STABILITY_MARGIN, 1.15)
# motion_spectrum: low pressure keeps the peak sharp (gamma ~ 23 /s); charge
# states keep q below the first-order limit trap.FIRST_ORDER_Q_LIMIT = 0.4.
MOTION_PRESSURE_TORR = 1e-2
# The first-order frequency runs low by about q^2/4, so q stays at or below
# 0.3, where that is about half a periodogram bin.
MOTION_Q = (0.2, 0.3)
MOTION_CYCLES = 30.0      # secular cycles at the lowest q
MOTION_BAND = (0.7, 1.4)  # search band over f1; 0.7 * 30 cycles clears the estimator's 20
LATTICE_TOLERANCE = 0.02  # relative delta_f error allowed for an item
# The capture success rate is judged by a one-sided binomial test against
# FIG9_MIN_SUCCESS: the run fails when a rate of FIG9_MIN_SUCCESS would give
# this few successes with probability below CONSISTENCY_ALPHA.
CONSISTENCY_ALPHA = 1e-3


class SeedStream:
    """Scenario seeds spawned from one workload seed."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def item(self, i: int) -> int:
        seq = np.random.SeedSequence(self.seed, spawn_key=(0, i))
        return int(seq.generate_state(1)[0])

    def warmup(self) -> int:
        return int(np.random.SeedSequence(self.seed, spawn_key=(1,)).generate_state(1)[0])


# The host-speed reference: a fixed kernel of this benchmark's own, an
# interpreter loop and numpy array arithmetic, which runs no ndtrap code, so a
# change to the program cannot move it.  REFERENCE_NOMINAL_S is about its time
# in the fast state of a shared 2-core Xeon VM (Python 3.11, numpy 2.4); a
# timed run scales each item by REFERENCE_NOMINAL_S over the reference's time
# around it.
REFERENCE_NOMINAL_S = 2.2e-3
_REFERENCE_GRID = np.linspace(0.0, 10.0, 4000)


def reference_kernel() -> float:
    s = 0.0
    for i in range(3000):
        s += i * 0.5
    for _ in range(20):
        s += float(np.sin(_REFERENCE_GRID * s % 3.0).sum())
    return s


def time_reference() -> float:
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


class Recorder:
    """Times the items of one pass and tallies their outcomes.

    The budget is either wall seconds (timed runs) or an item count (traced
    runs, so that two traced runs at one seed do identical work).  With
    ``reference=True`` the reference kernel is timed before every item and
    per-run step and once more by ``finish()``, so that ``scaled()`` can put
    each on the reference's nominal speed.
    """

    def __init__(self, seconds=None, max_items=None, tracer=None, reference=False):
        self.deadline = None if seconds is None else perf_counter() + seconds
        self.max_items = max_items
        self.tracer = tracer
        self.reference = reference
        self.latencies = []
        self.kinds = []
        self.outcomes = Counter()       # (kind, "pass" | "miss" | "raised")
        self.errors = []
        self.timed = []                 # ("item" | "step", seconds), in run order
        self.ref_times = []             # reference time before each entry of timed

    def more(self) -> bool:
        """Whether to start another item; a pass always does at least one."""
        if self.max_items is not None:
            return len(self.latencies) < self.max_items
        return not self.latencies or perf_counter() < self.deadline

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def count(self, outcome: str) -> int:
        return sum(n for (_, o), n in self.outcomes.items() if o == outcome)

    def _time(self, what, fn, *args):
        if self.reference:
            self.ref_times.append(time_reference())
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.timed.append((what, perf_counter() - t0))

    def item(self, kind: str, fn, *args):
        """Run one item; ``fn`` returns whether the item passed its check."""
        if self.tracer is not None:
            self.tracer.item = len(self.latencies)
        try:
            ok = bool(self._time("item", fn, *args))
        except Exception:            # an item that raises is counted, not fatal
            ok = None
            self.errors.append(traceback.format_exc(limit=3))
        self.latencies.append(self.timed[-1][1])
        self.kinds.append(kind)
        self.outcomes[kind, "raised" if ok is None else ("pass" if ok else "miss")] += 1
        if self.tracer is not None:
            self.tracer.item = -1
        return ok

    def step(self, fn, *args):
        """Run one per-run step (a boundary search, a closing fit), timed."""
        return self._time("step", fn, *args)

    def finish(self):
        if self.reference:
            self.ref_times.append(time_reference())

    def scaled(self):
        """(items, steps): each time scaled by REFERENCE_NOMINAL_S over the
        mean of the reference times just before and just after it."""
        items, steps = [], []
        for k, (what, seconds) in enumerate(self.timed):
            speed = REFERENCE_NOMINAL_S / (0.5 * (self.ref_times[k] + self.ref_times[k + 1]))
            (items if what == "item" else steps).append(seconds * speed)
        return items, steps


def binomial_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p)."""
    if k >= n:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for j in range(k + 1):
        total += math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                          + j * log_p + (n - j) * log_q)
    return min(total, 1.0)


def _every_item_passes(rec, kinds):
    out = []
    for kind in kinds:
        n = sum(rec.outcomes[kind, o] for o in ("pass", "miss", "raised"))
        passed = rec.outcomes[kind, "pass"]
        out.append((f"{kind}_items_pass", passed == n, f"{passed}/{n} pass"))
    return out


def _no_item_raised(rec):
    raised = rec.count("raised")
    return ("no_item_raised", raised == 0, f"{raised} raised")


class LatticeReadout:
    """fig9 capture traces and fig12 pulsed traces, each read by a lattice fit."""

    name = "lattice_readout"

    def __init__(self, seed: int):
        self.seeds = SeedStream(seed)
        self.fig9 = runner.load_bundled_scenario("fig9_steps")
        self.fig12 = runner.load_bundled_scenario("fig12_picker")
        self.fits = 0
        self.exact = 0

    def _judge(self, trace, band, truth):
        self.fits += 1
        try:
            fit = fitters.fit_charge_lattice(trace, band)
        except fitters.LatticeNotDetectedError:
            return False          # a statistical miss, judged in aggregate
        exact = fit.derived["charge_sequence"] == truth
        self.exact += exact
        close = abs(fit.parameters["delta_f"] - FIG9_DELTA_F) / FIG9_DELTA_F <= LATTICE_TOLERANCE
        return close and exact

    def capture(self, seed: int) -> bool:
        sc = self.fig9.with_seed(seed)
        traj, trace = runner.run_frequency_trace_scenario(sc)
        truth = tuple(int(abs(c)) for c in traj.charge_at(trace.exposures))
        band = (sc.require("run", "delta_f_min"), sc.require("run", "delta_f_max"))
        return self._judge(trace, band, truth)

    def pulsed(self, seed: int) -> bool:
        sc = self.fig12.with_seed(seed)
        _, _, charges, trace = runner.run_picker_scenario(sc)
        band = (sc.require("run", "delta_f_min"), sc.require("run", "delta_f_max"))
        return self._judge(trace, band, tuple(int(c) for c in charges))

    def warmup(self):
        self.capture(self.seeds.warmup())

    def run(self, rec: Recorder):
        i = 0
        while rec.more():
            if i % 2 == 0:
                rec.item("capture", self.capture, self.seeds.item(i))
            else:
                rec.item("pulsed", self.pulsed, self.seeds.item(i))
            i += 1

    def checks(self, rec: Recorder) -> list:
        out = [_no_item_raised(rec)]
        for kind in ("capture", "pulsed"):
            n = sum(rec.outcomes[kind, o] for o in ("pass", "miss", "raised"))
            k = rec.outcomes[kind, "pass"]
            if n == 0:
                continue
            p_value = binomial_cdf(k, n, FIG9_MIN_SUCCESS)
            out.append((f"{kind}_success_consistent_with_FIG9_MIN_SUCCESS",
                        p_value >= CONSISTENCY_ALPHA,
                        f"{k}/{n} = {k / n:.3f} vs {FIG9_MIN_SUCCESS}, "
                        f"P(X <= {k}) = {p_value:.2g}, alpha {CONSISTENCY_ALPHA}"))
        return out

    def notes(self, rec: Recorder) -> dict:
        n = rec.attempted
        return {"capture_items": rec.kinds.count("capture"),
                "pulsed_items": rec.kinds.count("pulsed"),
                "capture_success": _frac(rec.outcomes["capture", "pass"],
                                         rec.kinds.count("capture")),
                "lattice_exact_frac": _frac(self.exact, self.fits),
                "failed_frac": _frac(n - rec.count("pass"), n)}


def _frac(a, b):
    return a / b if b else 0.0


class SurvivalSweep:
    """fig7 wavelength sweeps alternating with fig8 size sweeps.

    An item is one sweep point: ``ensemble.simulate_survival`` plus
    ``fitters.fit_exponential``, with the per-point seeds spawned exactly as
    ``ensemble.lifetime_vs_*_sweep`` spawns them (the self-test checks the
    points equal the runner's sweep).  Each sweep closes with its fit.
    """

    name = "survival_sweep"

    def __init__(self, seed: int):
        self.seeds = SeedStream(seed)
        self.fig7 = runner.load_bundled_scenario("fig7_sweep")
        self.fig8 = runner.load_bundled_scenario("fig8_sweep")
        self.sweep_results = []   # (figure, value) per closing fit

    @staticmethod
    def _run_kwargs(sc):
        sign = -1 if sc.get("particle", "charge_sign", "negative") == "negative" else 1
        return dict(
            n0=sc.require("run", "n_particles"), trap=sc.trap(),
            model=sc.emission_model(), duration=sc.require("run", "duration"),
            charge_sampler=runner.build_charge_sampler(
                sc.get("run", "charge_sampler", "envelope"), sign),
            uv_on_time=sc.get("run", "uv_on_time", 0.0),
            frame_rate=sc.get("run", "frame_rate", 10.0),
            background_rate=sc.get("run", "background_rate", 0.0))

    @staticmethod
    def point(particle, source, seq, kwargs, out) -> bool:
        curve = ensemble.simulate_survival(particle_template=particle, source=source,
                                           seed=seq, **kwargs)
        fit = fitters.fit_exponential(curve)
        tau = fit.parameters["tau"]
        ok = fit.converged and not fit.flags and math.isfinite(tau) and tau > 0
        out.append((tau, fit.errors["tau"], ok))
        return ok

    def points(self, sc, rec=None) -> list:
        """(x, tau, tau_error, ok) for each point of one fig7 or fig8 sweep."""
        kwargs = self._run_kwargs(sc)
        particle, source = sc.particle(), sc.uv_source()
        if sc.kind == "sweep_wavelength":
            xs = sc.require("run", "wavelengths")
            inputs = [(particle, replace(source, wavelength=float(x))) for x in xs]
        else:
            xs = sc.require("run", "diameters")
            inputs = [(replace(particle, radius=float(x) / 2.0), source) for x in xs]
        seqs = np.random.SeedSequence(sc.seed).spawn(len(xs))
        out = []
        for (p, s), seq in zip(inputs, seqs):
            args = (p, s, seq, kwargs, out)
            if rec is None:
                self.point(*args)
            elif rec.item(sc.name, self.point, *args) is None:
                out.append((math.nan, math.nan, False))
        return [(float(x),) + r for x, r in zip(xs, out)]

    def close_sweep(self, sc, pts):
        good = [p for p in pts if p[3]]
        if sc.kind == "sweep_wavelength":
            fit = fitters.fit_sigmoid([p[0] for p in good], [p[1] for p in good],
                                      [p[2] for p in good], fit_space="inverse")
            d = fit.derived
            value = (d["center_wavelength"], d["width_10_90"], d["threshold_wavelength"])
        else:
            fit = fitters.fit_powerlaw([p[0] for p in good], [p[1] for p in good],
                                       [p[2] for p in good])
            value = (fit.parameters["exponent"],)
        self.sweep_results.append((sc.kind, value))

    def warmup(self):
        sc = self.fig7.with_seed(self.seeds.warmup())
        kwargs = self._run_kwargs(sc)
        seq = np.random.SeedSequence(sc.seed).spawn(1)[0]
        self.point(sc.particle(), sc.uv_source(), seq, kwargs, [])

    def run(self, rec: Recorder):
        i = 0
        while rec.more():
            for base in (self.fig7, self.fig8):
                sc = base.with_seed(self.seeds.item(i))
                rec.step(self.close_sweep, sc, self.points(sc, rec))
                i += 1

    def checks(self, rec: Recorder) -> list:
        out = [_no_item_raised(rec)] + _every_item_passes(rec, ("fig7_sweep", "fig8_sweep"))
        bad7 = bad8 = n7 = n8 = 0
        worst = []
        for kind, value in self.sweep_results:
            if kind == "sweep_wavelength":
                n7 += 1
                c, w, t = value
                ok = (abs(c - FIG7_CENTER[0]) <= FIG7_CENTER[1]
                      and abs(w - FIG7_WIDTH[0]) <= FIG7_WIDTH[1]
                      and abs(t - FIG7_THRESHOLD[0]) <= FIG7_THRESHOLD[1])
                bad7 += not ok
            else:
                n8 += 1
                ok = abs(value[0] - FIG8_EXPONENT[0]) <= FIG8_EXPONENT[1]
                bad8 += not ok
            if not ok:
                worst.append(f"{kind} {tuple(round(v, 3) for v in value)}")
        out.append(("fig7_sweeps_within_FIG7_CENTER_WIDTH_THRESHOLD", bad7 == 0,
                    f"{n7 - bad7}/{n7} sweeps pass {'; '.join(worst)}".strip()))
        out.append(("fig8_sweeps_within_FIG8_EXPONENT", bad8 == 0,
                    f"{n8 - bad8}/{n8} sweeps pass"))
        return out

    def notes(self, rec: Recorder) -> dict:
        n = rec.attempted
        return {"sweeps": len(self.sweep_results),
                "fig7_points": rec.kinds.count("fig7_sweep"),
                "fig8_points": rec.kinds.count("fig8_sweep"),
                "failed_frac": _frac(n - rec.count("pass"), n)}


class StabilityScan:
    """Integrated escape checks of the fig9 particle on both sides of q = 0.908.

    Items follow a fixed stable, stable, unstable pattern, so the median item
    is always a stable probe (400 full drive periods) and the share of stable
    probes does not depend on the seed; the seed picks each probe's charge.
    """

    name = "stability_scan"
    PATTERN = (True, True, False)    # stable?

    def __init__(self, seed: int):
        self.seeds = SeedStream(seed)
        self.fig9 = runner.load_bundled_scenario("fig9_steps")
        self.boundaries = []

    def _charge_range(self, sc, q_range):
        q_per_e = trap.stability_parameter(sc.particle().with_charge(1), sc.trap())
        return math.ceil(q_range[0] / q_per_e), math.floor(q_range[1] / q_per_e)

    def probe(self, seed: int, stable: bool) -> bool:
        sc = self.fig9.with_seed(seed)
        lo, hi = self._charge_range(sc, STABLE_Q if stable else UNSTABLE_Q)
        charge = int(np.random.default_rng(sc.seed).integers(lo, hi + 1))
        particle, trp = sc.particle().with_charge(charge), sc.trap()
        q = trap.stability_parameter(particle, trp)
        lost = ensemble.integrated_escape_check(particle, trp)
        return lost == (q > MATHIEU_BOUNDARY)

    def warmup(self):
        self.probe(self.seeds.warmup(), True)

    def run(self, rec: Recorder):
        self.boundaries.append(rec.step(trap.find_mathieu_boundary))
        i = 0
        while rec.more():
            stable = self.PATTERN[i % len(self.PATTERN)]
            rec.item("stable" if stable else "unstable", self.probe,
                     self.seeds.item(i), stable)
            i += 1

    def checks(self, rec: Recorder) -> list:
        out = [_no_item_raised(rec)] + _every_item_passes(rec, ("stable", "unstable"))
        b = self.boundaries[-1]
        out.append(("find_mathieu_boundary_at_0.908", abs(b - MATHIEU_BOUNDARY) <= BOUNDARY_TOLERANCE,
                    f"q* = {b:.5f}, expected {MATHIEU_BOUNDARY} +- {BOUNDARY_TOLERANCE}"))
        return out

    def notes(self, rec: Recorder) -> dict:
        n = rec.attempted
        return {"stable_share": _frac(rec.kinds.count("stable"), n),
                "boundary_q": self.boundaries[-1] if self.boundaries else None,
                "failed_frac": _frac(n - rec.count("pass"), n)}


class MotionSpectrum:
    """Thermally driven motion at low pressure, read back by the periodogram."""

    name = "motion_spectrum"

    def __init__(self, seed: int):
        self.seeds = SeedStream(seed)
        self.fig9 = runner.load_bundled_scenario("fig9_steps")
        self.trap = replace(self.fig9.trap(), pressure_torr=MOTION_PRESSURE_TORR)
        particle = self.fig9.particle()
        self.damping = trap.damping_rate(particle, MOTION_PRESSURE_TORR)
        q_per_e = trap.stability_parameter(particle.with_charge(1), self.trap)
        self.charges = (math.ceil(MOTION_Q[0] / q_per_e), math.floor(MOTION_Q[1] / q_per_e))
        # one duration for every item, so items cost the same whatever the charge
        f_lowest = trap.secular_frequency(particle.with_charge(self.charges[0]), self.trap)
        self.duration = MOTION_CYCLES / f_lowest

    def spectrum(self, seed: int) -> bool:
        sc = self.fig9.with_seed(seed)
        pick, noise = np.random.SeedSequence(sc.seed).spawn(2)
        lo, hi = self.charges
        particle = sc.particle().with_charge(int(np.random.default_rng(pick).integers(lo, hi + 1)))
        f1 = trap.secular_frequency(particle, self.trap)
        motion = trap.integrate_motion(particle, self.trap, duration=self.duration,
                                       damping=self.damping,
                                       rng_seed=int(noise.generate_state(1)[0]),
                                       thermal_noise=True)
        if isinstance(motion, trap.ParticleLost):
            return False
        est = signal.estimate_secular_frequency(
            motion, (MOTION_BAND[0] * f1, MOTION_BAND[1] * f1))
        return est is not None and abs(est.frequency - f1) <= est.bin_width

    def warmup(self):
        self.spectrum(self.seeds.warmup())

    def run(self, rec: Recorder):
        i = 0
        while rec.more():
            rec.item("spectrum", self.spectrum, self.seeds.item(i))
            i += 1

    def checks(self, rec: Recorder) -> list:
        return [_no_item_raised(rec)] + _every_item_passes(rec, ("spectrum",))

    def notes(self, rec: Recorder) -> dict:
        n = rec.attempted
        return {"charges": self.charges, "damping_per_s": self.damping,
                "duration_s": self.duration,
                "failed_frac": _frac(n - rec.count("pass"), n)}


WORKLOADS = {w.name: w for w in (LatticeReadout, SurvivalSweep, StabilityScan, MotionSpectrum)}
