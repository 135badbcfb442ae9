"""Survival ensembles and the lifetime sweeps."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_fitters import frame_units

from ndtrap import ensemble
from ndtrap.core import Particle, TrapConfig, UVSource
from ndtrap.ensemble import (SurvivalCurve, envelope_charge_sampler,
                             exponential_survival_curve, fixed_charge_sampler,
                             lifetime_sweep, margin_charge_sampler, simulate_survival,
                             stable_charge_range)
from ndtrap.fitters import DegenerateFitError, fit_exponential, fit_powerlaw, fit_sigmoid
from ndtrap.photoemission import EmissionModel, emission_rate, simulate_charge_trajectory

PARTICLE = Particle(radius=0.5e-6, charge_count=-1)
RING = TrapConfig(voltage_amplitude=2250.0, drive_frequency=140.0,
                  characteristic_radius=3e-3, geometry_factor=0.05,
                  pressure_torr=760.0)
LED = UVSource(mode="continuous", wavelength=264.0, intensity=10.0)
MODEL = EmissionModel.from_width(rate_scale=2.565101805649302)


def test_stable_charge_range():
    lo, hi = stable_charge_range(PARTICLE, RING)
    assert (lo, hi) == (36, 320)
    from ndtrap.trap import is_stable, stability_parameter
    assert is_stable(stability_parameter(PARTICLE.with_charge(lo), RING),
                     RING.stability_band)
    assert not is_stable(stability_parameter(PARTICLE.with_charge(lo - 1), RING),
                         RING.stability_band)
    assert not is_stable(stability_parameter(PARTICLE.with_charge(hi + 1), RING),
                         RING.stability_band)


def test_samplers_respect_bounds():
    rng = np.random.default_rng(0)
    draw = envelope_charge_sampler(sign=-1)(PARTICLE, RING)
    lo, hi = stable_charge_range(PARTICLE, RING)
    c = draw(rng, 200)
    assert c.shape == (200,) and np.all((c < 0) & (lo <= -c) & (-c <= hi))
    draw = margin_charge_sampler(8, 32, sign=-1)(PARTICLE, RING)
    c = draw(rng, 200)
    assert c.shape == (200,) and np.all((lo + 8 <= -c) & (-c <= lo + 32))
    assert np.array_equal(fixed_charge_sampler(-69)(PARTICLE, RING)(rng, 3), [-69] * 3)


def counting_sampler(inner, calls):
    """Wrap a sampler so that ``calls`` counts its binds, its draws and the
    charges drawn."""
    def sampler(particle, trap):
        calls["bind"] += 1
        draw = inner(particle, trap)

        def counted(rng, n):
            calls["draw"] += 1
            calls["charges"] += n
            return draw(rng, n)
        return counted
    return sampler


def test_envelope_overlap_error_at_bind():
    # at geometry factor 1 the band (2 to 16 e) lies below the 1 um envelope
    steep = TrapConfig(voltage_amplitude=2250.0, drive_frequency=140.0,
                       characteristic_radius=3e-3, geometry_factor=1.0)
    with pytest.raises(ValueError, match="does not overlap"):
        envelope_charge_sampler(sign=-1)(PARTICLE, steep)
    calls = {"bind": 0, "draw": 0, "charges": 0}
    with pytest.raises(ValueError, match="does not overlap"):
        simulate_survival(5, PARTICLE, steep, MODEL, LED, duration=10.0, seed=1,
                          charge_sampler=counting_sampler(envelope_charge_sampler(-1), calls))
    assert calls == {"bind": 1, "draw": 0, "charges": 0}


def test_margin_ceiling_raises_per_draw():
    lo, hi = stable_charge_range(PARTICLE, RING)
    draw = margin_charge_sampler(hi - lo + 1, hi - lo + 50, sign=-1)(PARTICLE, RING)
    with pytest.raises(ValueError, match="ceiling"):
        draw(np.random.default_rng(0), 1)
    # a draw fails as a whole when any of its charges is over the ceiling
    draw = margin_charge_sampler(hi - lo - 10, hi - lo + 1, sign=-1)(PARTICLE, RING)
    with pytest.raises(ValueError, match="ceiling"):
        draw(np.random.default_rng(0), 100)


def test_survival_binds_sampler_once():
    calls = {"bind": 0, "draw": 0, "charges": 0}
    counted = simulate_survival(37, PARTICLE, RING, MODEL, LED, duration=50.0, seed=8,
                                charge_sampler=counting_sampler(envelope_charge_sampler(-1),
                                                                calls))
    assert calls == {"bind": 1, "draw": 1, "charges": 37}
    plain = simulate_survival(37, PARTICLE, RING, MODEL, LED, duration=50.0, seed=8)
    assert np.array_equal(counted.n_alive, plain.n_alive)


def test_gamma_exit_times_match_trajectory_exit_times():
    # at a constant per-electron rate the k-th emission comes at a
    # Gamma(k, 1/rate) time, which simulate_survival draws in place of the
    # trajectory; a two-sample KS test on a seed fixed before the first run
    from scipy.stats import ks_2samp
    k, rate, n = 12, 0.3, 2000
    rng = np.random.default_rng(1414)
    trajectories = [simulate_charge_trajectory(PARTICLE.with_charge(-k), rate, 1e4, rng=rng)
                    for _ in range(n)]
    assert all(traj.final_charge == 0 for traj in trajectories)
    exits = [traj.times[-1] for traj in trajectories]
    assert ks_2samp(exits, rng.gamma(k, 1.0 / rate, n)).pvalue > 1e-3


def test_uv_deaths_censored_at_run_end():
    # a fixed charge 5 e above the exit charge: every particle exits within
    # 100 mean emission times, none when the UV comes on at the run's end
    lo, _ = stable_charge_range(PARTICLE, RING)
    rate = emission_rate(MODEL, LED, PARTICLE)
    kwargs = dict(duration=100.0 / rate, seed=3, frame_rate=rate,
                  charge_sampler=fixed_charge_sampler(-(lo + 4)))
    assert simulate_survival(50, PARTICLE, RING, MODEL, LED, **kwargs).n_alive[-1] == 0
    late = simulate_survival(50, PARTICLE, RING, MODEL, LED, uv_on_time=100.0 / rate, **kwargs)
    assert np.all(late.n_alive == 50)


def test_zero_intensity_keeps_all_particles():
    dark = UVSource(mode="continuous", wavelength=264.0, intensity=0.0)
    curve = simulate_survival(40, PARTICLE, RING, MODEL, dark, duration=8000.0,
                              seed=1, frame_rate=0.5)
    assert np.all(curve.n_alive == 40)


def test_survival_reproducible_bit_for_bit():
    a = simulate_survival(60, PARTICLE, RING, MODEL, LED, duration=100.0, seed=9)
    b = simulate_survival(60, PARTICLE, RING, MODEL, LED, duration=100.0, seed=9)
    assert np.array_equal(a.n_alive, b.n_alive)
    c = simulate_survival(60, PARTICLE, RING, MODEL, LED, duration=100.0, seed=10)
    assert not np.array_equal(a.n_alive, c.n_alive)


def test_survival_monotone_and_starts_full():
    curve = simulate_survival(80, PARTICLE, RING, MODEL, LED, duration=150.0,
                              seed=2, uv_on_time=10.0)
    assert curve.n_alive[0] == 80
    assert np.all(np.diff(curve.n_alive) <= 0)
    # no UV losses before turn-on (no background channel configured)
    pre = curve.n_alive[curve.times < 10.0]
    assert np.all(pre == 80)


def test_injected_exponential_estimator_converges():
    curve = exponential_survival_curve(10_000, 40.7, 250.0, seed=3)
    fit = fit_exponential(curve)
    assert abs(fit.parameters["tau"] - 40.7) / 40.7 < 0.05


def test_calibrated_decay_lifetime_band():
    # calibrated 1 um / 264 nm scenario: fitted tau within +-20% of 40.7 s
    # over 10 seeded runs
    for seed in range(1, 11):
        curve = simulate_survival(120, PARTICLE, RING, MODEL, LED,
                                  duration=240.0, seed=seed, uv_on_time=20.0)
        fit = fit_exponential(curve)
        assert abs(fit.parameters["tau"] - 40.7) / 40.7 <= 0.20


def test_positive_particles_outlive_negative():
    positive = Particle(radius=0.5e-6, charge_count=1)
    neg = simulate_survival(50, PARTICLE, RING, MODEL, LED, duration=200.0, seed=4)
    pos = simulate_survival(50, positive, RING, MODEL, LED, duration=200.0, seed=4)
    assert np.all(pos.n_alive >= neg.n_alive)
    assert pos.n_alive[-1] > neg.n_alive[-1]


def test_wavelength_sweep_spans_two_decades_monotone():
    points = lifetime_sweep(
        "wavelength", [264.0, 271.0, 279.0, 315.0], n0=200, particle_template=PARTICLE,
        trap=RING, model=MODEL, source=LED, duration=25000.0,
        seed=42, frame_rate=2.0, background_rate=1.25e-4)
    taus = [p.lifetime for p in points]
    assert all(not p.flags for p in points)
    assert all(a < b for a, b in zip(taus, taus[1:]))
    assert taus[-1] / taus[0] >= 100.0


def test_wavelength_sweep_flat_below_threshold():
    points = lifetime_sweep(
        "wavelength", [250.0, 255.0, 260.0], n0=150, particle_template=PARTICLE, trap=RING,
        model=MODEL, source=LED, duration=300.0, seed=6)
    taus = np.array([p.lifetime for p in points])
    errs = np.array([p.lifetime_error for p in points])
    assert np.ptp(taus) <= 3 * errs.max()


def test_wavelength_sweep_recovers_center():
    lams = [255, 262, 268, 272, 276, 279, 282, 285, 288, 292, 297, 304, 312, 320]
    points = lifetime_sweep(
        "wavelength", lams, n0=150, particle_template=PARTICLE, trap=RING, model=MODEL,
        source=LED, duration=25000.0, seed=77, frame_rate=2.0,
        background_rate=1.25e-4)
    good = [p for p in points if not p.flags]
    fit = fit_sigmoid([p.x for p in good], [p.lifetime for p in good],
                      [p.lifetime_error for p in good], fit_space="inverse")
    assert abs(fit.derived["center_wavelength"] - 280.0) <= 5.0


SIZE_TRAP = TrapConfig(voltage_amplitude=48.0, drive_frequency=1e4,
                       characteristic_radius=0.5e-3, geometry_factor=1.0,
                       pressure_torr=760.0)
DIAMETERS = [75e-9, 150e-9, 300e-9, 600e-9, 1200e-9]


def run_size_sweep(alpha, seed):
    model = EmissionModel.from_width(rate_scale=0.8629, size_exponent=alpha)
    return lifetime_sweep(
        "diameter", DIAMETERS, n0=150, particle_template=PARTICLE, trap=SIZE_TRAP,
        model=model, source=LED, duration=6000.0, seed=seed, frame_rate=2.0,
        charge_sampler=margin_charge_sampler(8, 32))


@pytest.mark.parametrize("alpha,expected", [(1.3, -1.3), (1.0, -1.0), (2.0, -2.0)])
def test_size_sweep_recovers_exponent(alpha, expected):
    points = run_size_sweep(alpha, seed=88)
    good = [p for p in points if not p.flags]
    fit = fit_powerlaw([p.x for p in good], [p.lifetime for p in good],
                       [p.lifetime_error for p in good])
    assert fit.parameters["exponent"] == pytest.approx(expected, abs=0.15)


def test_size_sweep_single_diameter_underdetermined():
    points = lifetime_sweep(
        "diameter", [300e-9], n0=60, particle_template=PARTICLE, trap=SIZE_TRAP,
        model=EmissionModel.from_width(rate_scale=0.8629), source=LED,
        duration=500.0, seed=3, charge_sampler=margin_charge_sampler(8, 32))
    assert len(points) == 1
    with pytest.raises(DegenerateFitError):
        fit_powerlaw([points[0].x], [points[0].lifetime])


def test_sweep_axis_table_checks():
    common = dict(n0=10, particle_template=PARTICLE, trap=RING, model=MODEL,
                  source=LED, duration=10.0, seed=1)
    with pytest.raises(ValueError, match="unknown sweep axis"):
        lifetime_sweep("size", [300e-9], **common)
    with pytest.raises(ValueError, match="at least 3"):
        lifetime_sweep("wavelength", [264.0, 280.0], **common)
    with pytest.raises(ValueError, match="at least 1"):
        lifetime_sweep("diameter", [], **common)


def test_sweep_flags_failed_fit_and_continues():
    dark = UVSource(mode="continuous", wavelength=264.0, intensity=0.0)
    points = lifetime_sweep(
        "wavelength", [264.0, 280.0, 300.0], n0=30, particle_template=PARTICLE, trap=RING,
        model=MODEL, source=dark, duration=50.0, seed=5)
    assert len(points) == 3
    assert all("no_decay" in p.flags for p in points)


def test_integrated_escape_spot_check():
    # high-fidelity opt-in: a particle beyond the parametric instability
    # escapes under full integration, a banded one does not
    from ndtrap.ensemble import integrated_escape_check
    eta1 = TrapConfig(voltage_amplitude=2250.0, drive_frequency=140.0,
                      characteristic_radius=3e-3, geometry_factor=1.0)
    assert integrated_escape_check(Particle(radius=0.5e-6, charge_count=100), eta1)
    assert not integrated_escape_check(PARTICLE.with_charge(-100), RING)


def test_escape_check_matches_400_period_growth_criterion():
    # the period-map test agrees with the growth criterion it replaced
    # (integrate 400 drive periods from 0.01 r0; lost when |x| passes
    # 1e4 x 0.01 r0) for every fig9 charge with q in [0.6, 1.2].  The two
    # differ only for q between about 0.90805 and 0.9082, where the growth
    # takes more than 400 periods; no fig9 charge lies there
    from ndtrap.ensemble import integrated_escape_check
    from ndtrap.runner import load_bundled_scenario
    from ndtrap.trap import integrate_mathieu, stability_parameter
    sc = load_bundled_scenario("fig9_steps")
    particle, trap = sc.particle(), sc.trap()
    x0 = 0.01 * trap.characteristic_radius
    charges = [c for c in range(1, 400)
               if 0.6 <= stability_parameter(particle.with_charge(c), trap) <= 1.2]
    assert len(charges) == 106
    for c in charges:
        q = stability_parameter(particle.with_charge(c), trap)
        assert not 0.90805 < q < 0.9082
        _, _, lost, _ = integrate_mathieu(
            q, trap.drive_frequency, 400.0 / trap.drive_frequency, x0=x0,
            escape_radius=1e4 * x0, sample_stride=10_000)
        assert integrated_escape_check(particle.with_charge(c), trap) == lost


def test_qualitative_timeline_shape():
    # a 19-particle load in the calibrated decay scenario passes near the
    # reference count timeline 19 -> 12 -> 5 -> 1 over 100 s (shape only)
    curve = simulate_survival(19, PARTICLE, RING, MODEL, LED, duration=110.0,
                              seed=23)
    def count_at(t):
        return curve.n_alive[np.searchsorted(curve.times, t)]
    assert count_at(0.0) == 19
    assert abs(count_at(18.0) - 12) <= 4
    assert abs(count_at(60.0) - 5) <= 4
    assert count_at(100.0) <= 5


def test_survival_curve_counts_match_sorted_deaths():
    # a death on a frame counts at that frame; deaths past the end never count
    from ndtrap.ensemble import _survival_curve
    rng = np.random.default_rng(4)
    deaths = np.concatenate([rng.exponential(20.0, 200), np.arange(0.5, 60.0, 0.5),
                             [50.0, 50.05, np.inf, 1e9]])
    curve = _survival_curve(deaths, 50.0, 10.0, 0.0)
    expected = len(deaths) - np.searchsorted(np.sort(deaths), curve.times, side="right")
    assert curve.n_alive.tolist() == expected.tolist()


def runs_by_unique_counts(deaths, times):
    """_survival_curve's counts and carried runs from np.unique with counts,
    the formulation it had before it took its runs from one sort."""
    n0 = len(deaths)
    frames, deaths_at = np.unique(np.searchsorted(times, deaths), return_counts=True)
    values = np.concatenate(([n0], n0 - np.cumsum(deaths_at)))
    edges = np.concatenate(([0], frames, [len(times)]))
    lengths = np.diff(edges)
    held = lengths > 0
    return np.repeat(values, lengths), edges[:-1][held], values[held]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(frame_rate=st.sampled_from([0.5, 2.0, 10.0, 100.0]),
       frames=st.integers(1, 400),
       part=st.sampled_from([0.0, 0.25]),
       deaths=st.lists(st.tuples(st.sampled_from(["on", "between", "after", "inf"]),
                                 st.integers(0, 400)), min_size=1, max_size=60))
@example(frame_rate=10.0, frames=5, part=0.0, deaths=[("on", 4)])            # n0 = 1
@example(frame_rate=10.0, frames=5, part=0.0, deaths=[("after", 0)])
@example(frame_rate=2.0, frames=6, part=0.25,
         deaths=[("on", 2), ("between", 2), ("on", 2), ("on", 6), ("inf", 0), ("after", 0),
                 ("between", 5), ("between", 5), ("after", 0)])
def test_survival_curve_runs_match_unique_counts(frame_rate, frames, part, deaths):
    # deaths on frame times (the last one too), between frames, past the last
    # frame and never, with ties: the counts and carried runs are bit for bit,
    # dtypes included, those np.unique with counts gives
    times = np.array([math.inf if kind == "inf" else
                      frame_units(kind, 1 + k % frames, frames) / frame_rate
                      for kind, k in deaths])
    curve = ensemble._survival_curve(times, (frames + part) / frame_rate, frame_rate, 0.0)
    expected = runs_by_unique_counts(times, curve.times)
    for got, want in zip((curve.n_alive,) + curve.runs[:2], expected):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_curves_of_one_run_length_share_read_only_times():
    from ndtrap.ensemble import _survival_curve
    a = _survival_curve(np.array([1.0, 2.0]), 50.0, 10.0, 0.0)
    b = _survival_curve(np.array([3.0]), 50.0, 10.0, 0.0)
    assert np.shares_memory(a.times, b.times)
    assert a.times.tolist() == (np.arange(501) / 10.0).tolist()
    with pytest.raises(ValueError):
        a.times[0] = 1.0
    with pytest.raises(ValueError):
        a.times.flags.writeable = True


def test_frame_times_keep_the_last_frame():
    # a run's frames reach its duration even where duration * frame_rate
    # rounds a few ulps below a whole number; every bundled grid is whole
    from ndtrap.ensemble import _frame_times
    for duration, rate, frames in ((0.29, 100.0, 30), (0.57, 100.0, 58), (0.295, 100.0, 30),
                                   (0.1, 30.0, 4), (25000.0, 2.0, 50001), (4000.0, 2.0, 8001),
                                   (240.0, 10.0, 2401), (8000.0, 0.5, 4001)):
        times = _frame_times(duration, rate)
        assert len(times) == frames, (duration, rate)
        assert times.tolist() == (np.arange(frames) / rate).tolist()
    assert _frame_times(0.29, 100.0)[-1] == 0.29
    assert _frame_times(0.57, 100.0)[-1] == 0.57


def test_internal_curves_fail_loudly():
    # curves that carry their runs keep the O(1) checks: a loss on frame 0
    # leaves the curve short of n0 at t = 0
    from dataclasses import replace

    from ndtrap.ensemble import _survival_curve
    with pytest.raises(ValueError, match="curve must start at n0"):
        _survival_curve(np.array([0.0, 2.0]), 50.0, 10.0, 0.0)
    with pytest.raises(ValueError, match="curve must start at n0"):
        _survival_curve(np.array([-1.0]), 50.0, 10.0, 0.0)
    curve = _survival_curve(np.array([1.0, 2.0]), 5.0, 10.0, 0.0)
    assert curve.runs is not None
    # new counts from outside drop the runs and get every check again
    rising = curve.n_alive.copy()
    rising[-1] = 2
    with pytest.raises(ValueError, match="non-increasing"):
        replace(curve, n_alive=rising, runs=None)


def test_survival_curve_validation():
    with pytest.raises(ValueError):
        SurvivalCurve(times=np.arange(3.0), n_alive=np.array([5, 6, 4]),
                      n0=5, uv_on_time=0.0)
    with pytest.raises(ValueError):
        SurvivalCurve(times=np.arange(3.0), n_alive=np.array([4, 3, 2]),
                      n0=5, uv_on_time=0.0)
    # counts must be whole, finite numbers: no silent truncation, and a NaN
    # is a ValueError, not a cast warning
    for counts, n0 in (([5, 4.5, 4.0], 5), ([5.7, 5.2, 5.0], 5), ([5.0, np.nan, 4.0], 5),
                       ([5.0, np.inf, 4.0], 5), ([5.0, 4.0, 1e300], 5), ([5, 4, -1], 5)):
        with pytest.raises(ValueError):
            SurvivalCurve(times=np.arange(3.0), n_alive=np.array(counts), n0=n0,
                          uv_on_time=0.0)
    whole = SurvivalCurve(times=np.arange(3.0), n_alive=np.array([5.0, 4.0, 4.0]), n0=5,
                          uv_on_time=0.0)
    assert whole.n_alive.dtype.kind == "i" and whole.n_alive.tolist() == [5, 4, 4]
    assert whole.runs is None
