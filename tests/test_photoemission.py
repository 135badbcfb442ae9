"""Emission-rate model, jump-process trajectories, pulse picking."""

import math

import numpy as np
import pytest
from scipy import stats

from ndtrap.core import Particle, UVSource
from ndtrap.photoemission import (ChargeTrajectory, EmissionModel, PulseTrain,
                                  emission_rate, mean_pulses_analytic,
                                  pick_pulses, required_intensity_scaling,
                                  simulate_charge_trajectory, spot_for_power)

LED = UVSource(mode="continuous", wavelength=264.0, intensity=10.0)
REF_PARTICLE = Particle(radius=0.5e-6, charge_count=-50)


def test_rate_at_center_is_half_plateau():
    model = EmissionModel()
    src = UVSource(mode="continuous", wavelength=280.0, intensity=10.0)
    assert emission_rate(model, src, REF_PARTICLE) == pytest.approx(0.5 * model.rate_scale)


def test_rate_ratio_across_step():
    # 264 nm vs 315 nm must differ by far more than the x100 lifetime span
    model = EmissionModel()
    short = emission_rate(model, LED, REF_PARTICLE)
    long = emission_rate(
        model, UVSource(mode="continuous", wavelength=315.0, intensity=10.0),
        REF_PARTICLE)
    assert short / long >= 100.0


def test_rate_size_scaling():
    model = EmissionModel()
    double = Particle(radius=1e-6, charge_count=-50)
    ratio = emission_rate(model, LED, double) / emission_rate(model, LED, REF_PARTICLE)
    assert ratio == pytest.approx(2 ** 1.3, rel=1e-12)


def test_width_parameterization():
    model = EmissionModel.from_width(width_10_90=10.0)
    assert model.width_10_90 == pytest.approx(10.0, rel=1e-12)
    s = model.wavelength_response
    # 10% and 90% response points sit one width apart
    assert s(280.0 - 5.0) == pytest.approx(0.9, rel=1e-9)
    assert s(280.0 + 5.0) == pytest.approx(0.1, rel=1e-9)


def test_rate_monotonicity_grids():
    rng = np.random.default_rng(5)
    model = EmissionModel()
    lams = np.sort(rng.uniform(200, 400, 30))
    rates = [emission_rate(
        model, UVSource(mode="continuous", wavelength=lam, intensity=10.0),
        REF_PARTICLE) for lam in lams]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    intensities = np.sort(rng.uniform(0.1, 100.0, 20))
    r_i = [emission_rate(
        model, UVSource(mode="continuous", wavelength=270.0, intensity=i),
        REF_PARTICLE) for i in intensities]
    assert all(a <= b for a, b in zip(r_i, r_i[1:]))
    diameters = np.sort(rng.uniform(50e-9, 5e-6, 20))
    r_d = [emission_rate(model, LED, Particle(radius=d / 2, charge_count=-5))
           for d in diameters]
    assert all(a <= b for a, b in zip(r_d, r_d[1:]))


def test_trajectory_single_steps_and_count():
    traj = simulate_charge_trajectory(REF_PARTICLE, 5.0, 30.0, "emit", seed=3)
    assert traj.final_charge == 0
    assert traj.n_events == 50
    full = np.concatenate(([traj.initial_charge], traj.charges))
    assert np.all(np.diff(full) == 1)
    assert np.all(np.diff(traj.times) > 0)
    # event count equals |final - initial| for a fixed direction
    assert traj.n_events == abs(traj.final_charge - traj.initial_charge)


def test_trajectory_zero_rate():
    traj = simulate_charge_trajectory(REF_PARTICLE, 0.0, 10.0, "emit", seed=1)
    assert traj.n_events == 0


def test_trajectory_capture_direction():
    p = Particle(radius=125e-9, charge_count=31)
    traj = simulate_charge_trajectory(p, 2.0, 100.0, "capture", seed=7)
    assert traj.final_charge == 0
    assert np.all(np.diff(np.concatenate(([31], traj.charges))) == -1)


def test_trajectory_floor_unreachable():
    with pytest.raises(ValueError):
        simulate_charge_trajectory(Particle(radius=1e-7, charge_count=5),
                                   1.0, 1.0, "emit", floor_charge=0)


def test_trajectory_negative_rate_rejected():
    with pytest.raises(ValueError):
        simulate_charge_trajectory(REF_PARTICLE, -1.0, 1.0, "emit")
    with pytest.raises(ValueError):
        simulate_charge_trajectory(REF_PARTICLE, lambda t: -0.1, 1.0, "emit",
                                   rate_max=1.0, floor_charge=None, seed=0)


def test_callable_rate_requires_bound():
    # a 0.1 ms pulse in 1 s: a sampled maximum sees it only by luck, so the
    # bound must be stated
    pulse = lambda t: 1e5 if 0.50005 <= t < 0.50015 else 0.0
    with pytest.raises(ValueError, match="rate_max"):
        simulate_charge_trajectory(REF_PARTICLE, pulse, 1.0, "emit", floor_charge=None)
    traj = simulate_charge_trajectory(REF_PARTICLE, pulse, 1.0, "emit", rate_max=1e5,
                                      floor_charge=None, seed=0)
    assert traj.n_events > 0
    assert np.all((traj.times >= 0.50005) & (traj.times < 0.50015))


def test_poisson_statistics():
    # constant rate, no floor: event counts are Poisson(rate * duration)
    rate, duration, n = 3.0, 10.0, 1000
    counts = np.array([
        simulate_charge_trajectory(Particle(radius=1e-7, charge_count=-10**5),
                                   rate, duration, "emit", seed=s,
                                   floor_charge=None).n_events
        for s in range(n)])
    mean_expected = rate * duration
    se_mean = math.sqrt(mean_expected / n)
    assert abs(counts.mean() - mean_expected) < 3 * se_mean
    # variance of the sample variance for Poisson ~ 2 mu^2 / n (+1/n terms)
    se_var = math.sqrt((2 * mean_expected**2 + mean_expected) / n)
    assert abs(counts.var() - mean_expected) < 3 * se_var


def test_thinning_matches_bernoulli_grid():
    # ramp rate: thinning vs brute-force fine-grid Bernoulli simulation
    duration = 4.0
    ramp = lambda t: 2.0 + 3.0 * t / duration
    n = 2000
    thin = np.array([
        simulate_charge_trajectory(Particle(radius=1e-7, charge_count=-10**5),
                                   ramp, duration, "emit", seed=s,
                                   rate_max=5.0, floor_charge=None).n_events
        for s in range(n)])
    rng = np.random.default_rng(999)
    dt = duration / 20000
    grid_t = (np.arange(20000) + 0.5) * dt
    p = np.array([ramp(t) for t in grid_t]) * dt
    bern = (rng.random((n, 20000)) < p[None, :]).sum(axis=1)
    edges = np.arange(min(thin.min(), bern.min()), max(thin.max(), bern.max()) + 2)
    h1, _ = np.histogram(thin, bins=edges)
    h2, _ = np.histogram(bern, bins=edges)
    keep = (h1 + h2) >= 10
    chi2 = float(np.sum((h1[keep] - h2[keep]) ** 2 / (h1[keep] + h2[keep])))
    p_value = stats.chi2.sf(chi2, df=int(keep.sum()) - 1)
    assert p_value > 0.01


def test_pick_pulses_deterministic_and_windowed():
    train = PulseTrain(repetition_rate=9200.0, pulse_duration=0.5e-9,
                       shutter_open=4e-3, chopper_frequency=250.0,
                       chopper_duty=0.013)
    a = pick_pulses(train)
    b = pick_pulses(train)
    assert np.array_equal(a, b)  # bit-identical run to run
    rng = np.random.default_rng(0)
    for _ in range(200):
        phases = tuple(rng.random(3))
        times = pick_pulses(train, phases=phases)
        t_chop = 1.0 / train.chopper_frequency
        t0 = phases[0] * t_chop
        for t in times:
            assert t0 <= t < t0 + train.shutter_open
            assert ((t / t_chop - phases[1]) % 1.0) < train.chopper_duty


def test_pick_pulses_ungated_limit():
    # duty -> 1, shutter >> laser period: every pulse passes
    train = PulseTrain(repetition_rate=9200.0, pulse_duration=0.5e-9,
                       shutter_open=10e-3, chopper_frequency=250.0,
                       chopper_duty=0.999)
    count = len(pick_pulses(train))
    assert abs(count - 10e-3 * 9200.0) <= 1


def test_picker_monte_carlo_mean():
    train = PulseTrain(repetition_rate=9200.0, pulse_duration=0.5e-9,
                       shutter_open=4e-3, chopper_frequency=250.0,
                       chopper_duty=0.013)
    analytic = mean_pulses_analytic(train)
    assert analytic == pytest.approx(0.4784, rel=1e-12)
    rng = np.random.default_rng(11)
    counts = [len(pick_pulses(train, rng=rng)) for _ in range(10_000)]
    assert np.mean(counts) == pytest.approx(analytic, rel=0.05)


def test_intensity_scaling_factor():
    assert required_intensity_scaling(10e-3, 500.0) == 50_000.0
    assert required_intensity_scaling(7.0, 7.0) == 1.0
    with pytest.raises(ValueError):
        required_intensity_scaling(0.0, 1.0)


def test_spot_for_power():
    # 10 mW at 5e4 mW/cm^2 = 5e5 W/m^2 needs a ~160 um spot
    d = spot_for_power(10e-3, 5e5)
    assert d == pytest.approx(159.58e-6, rel=1e-3)
    assert 130e-6 <= d <= 170e-6
    with pytest.raises(ValueError):
        spot_for_power(-1.0, 1.0)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        ChargeTrajectory(times=np.array([1.0, 0.5]), charges=np.array([-49, -48]),
                         initial_charge=-50, duration=2.0)
    with pytest.raises(ValueError):
        ChargeTrajectory(times=np.array([0.5, 1.0]), charges=np.array([-48, -47]),
                         initial_charge=-50, duration=2.0)
