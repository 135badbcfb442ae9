"""Emission-rate model, jump-process trajectories, pulse picking."""

import math

import numpy as np
import pytest

from ndtrap import photoemission
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
    traj = simulate_charge_trajectory(REF_PARTICLE, 5.0, 30.0, "emit",
                                      rng=np.random.default_rng(3))
    assert traj.final_charge == 0
    assert traj.n_events == 50
    full = np.concatenate(([traj.initial_charge], traj.charges))
    assert np.all(np.diff(full) == 1)
    assert np.all(np.diff(traj.times) > 0)
    # event count equals |final - initial| for a fixed direction
    assert traj.n_events == abs(traj.final_charge - traj.initial_charge)


def stepwise_trajectory(charge, rate, duration, direction, seed, floor_charge):
    """One exponential draw per event at a constant rate: the reference for
    the array-drawn path of ``simulate_charge_trajectory``."""
    rng = np.random.default_rng(seed)
    step = 1 if direction == "emit" else -1
    c, t = charge, 0.0
    times, charges = [], []
    while rate > 0 and c != floor_charge:
        t += rng.exponential(1.0 / rate)
        if t >= duration:
            break
        c += step
        times.append(t)
        charges.append(c)
    return np.asarray(times, dtype=float), np.asarray(charges, dtype=int)


@pytest.mark.parametrize("chunk", [3, photoemission.TRAJECTORY_CHUNK])
@pytest.mark.parametrize("charge, rate, duration, direction, floor, cut", [
    (-40, 2.0, 100.0, "emit", -20, "floor"),
    (-40, 0.5, 10.0, "emit", 0, "duration"),
    (-40, 50.0, 30.0, "emit", None, "duration"),
    (5, 2.0, 100.0, "capture", -3, "floor"),
    (7, 0.8, 10.0, "capture", None, "duration"),
])
def test_constant_rate_matches_stepwise_draws(monkeypatch, chunk, charge, rate, duration,
                                              direction, floor, cut):
    # the same times to the bit, the same charges and event count, whether
    # the floor or the duration ends the run; chunk 3 crosses array edges
    monkeypatch.setattr(photoemission, "TRAJECTORY_CHUNK", chunk)
    for seed in range(5):
        times, charges = stepwise_trajectory(charge, rate, duration, direction, seed, floor)
        traj = simulate_charge_trajectory(Particle(radius=0.5e-6, charge_count=charge),
                                          rate, duration, direction,
                                          rng=np.random.default_rng(seed), floor_charge=floor)
        assert traj.times.dtype == times.dtype and traj.charges.dtype == charges.dtype
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.charges, charges)
        assert traj.n_events == len(times) > 0
        assert (traj.final_charge == floor) == (cut == "floor")


def test_trajectory_zero_rate():
    traj = simulate_charge_trajectory(REF_PARTICLE, 0.0, 10.0, "emit",
                                      rng=np.random.default_rng(1))
    assert traj.n_events == 0


def test_trajectory_capture_direction():
    p = Particle(radius=125e-9, charge_count=31)
    traj = simulate_charge_trajectory(p, 2.0, 100.0, "capture",
                                      rng=np.random.default_rng(7))
    assert traj.final_charge == 0
    assert np.all(np.diff(np.concatenate(([31], traj.charges))) == -1)


def test_trajectory_floor_unreachable():
    with pytest.raises(ValueError):
        simulate_charge_trajectory(Particle(radius=1e-7, charge_count=5),
                                   1.0, 1.0, "emit", rng=np.random.default_rng(0),
                                   floor_charge=0)


def test_trajectory_negative_rate_rejected():
    for rate in (-1.0, math.nan):
        with pytest.raises(ValueError, match="rate must be >= 0"):
            simulate_charge_trajectory(REF_PARTICLE, rate, 1.0, "emit",
                                       rng=np.random.default_rng(0))


def test_poisson_statistics():
    # constant rate, no floor: event counts are Poisson(rate * duration)
    rate, duration, n = 3.0, 10.0, 1000
    counts = np.array([
        simulate_charge_trajectory(Particle(radius=1e-7, charge_count=-10**5),
                                   rate, duration, "emit", rng=np.random.default_rng(s),
                                   floor_charge=None).n_events
        for s in range(n)])
    mean_expected = rate * duration
    se_mean = math.sqrt(mean_expected / n)
    assert abs(counts.mean() - mean_expected) < 3 * se_mean
    # variance of the sample variance for Poisson ~ 2 mu^2 / n (+1/n terms)
    se_var = math.sqrt((2 * mean_expected**2 + mean_expected) / n)
    assert abs(counts.var() - mean_expected) < 3 * se_var


def scalar_pick_pulses(train, phases):
    """One pulse at a time, the loop the vectorized picker must reproduce."""
    shutter_phase, chopper_phase, laser_phase = phases
    t_chop = 1.0 / train.chopper_frequency
    t_rep = 1.0 / train.repetition_rate
    t0 = shutter_phase * t_chop
    t1 = t0 + train.shutter_open
    n_lo = math.ceil((t0 - laser_phase * t_rep) / t_rep)
    n_hi = math.floor((t1 - laser_phase * t_rep) / t_rep)
    out = []
    for n in range(n_lo, n_hi + 1):
        t = (n + laser_phase) * t_rep
        if not (t0 <= t < t1):
            continue
        if (t / t_chop - chopper_phase) % 1.0 < train.chopper_duty:
            out.append(t)
    return np.asarray(out, dtype=float)


# at 1 kHz and all-zero phases, pulses fall exactly on both shutter edges
@pytest.mark.parametrize("rep,duty,shutter", [(9200.0, 0.013, 4e-3), (9200.0, 0.5, 10e-3),
                                              (1000.0, 0.999, 4e-3)])
def test_pick_pulses_matches_scalar_loop(rep, duty, shutter):
    train = PulseTrain(repetition_rate=rep, pulse_duration=0.5e-9,
                       shutter_open=shutter, chopper_frequency=250.0,
                       chopper_duty=duty, phases=(0.3, 0.7, 0.1))
    rng = np.random.default_rng(5)
    cases = [tuple(rng.random(3)) for _ in range(2000)]
    cases += [train.phases, (0.0, 0.0, 0.0)]
    for phases in cases:
        got = pick_pulses(train, phases=phases)
        want = scalar_pick_pulses(train, phases)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), phases
    assert pick_pulses(train).tobytes() == scalar_pick_pulses(train, train.phases).tobytes()


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
                         initial_charge=-50)
    with pytest.raises(ValueError, match="strictly increasing"):
        ChargeTrajectory(times=np.array([0.5, 0.5]), charges=np.array([-49, -48]),
                         initial_charge=-50)
    with pytest.raises(ValueError, match="exactly one e"):
        ChargeTrajectory(times=np.array([0.5, 1.0]), charges=np.array([-48, -47]),
                         initial_charge=-50)
    with pytest.raises(ValueError, match="exactly one e"):
        ChargeTrajectory(times=np.array([0.5, 1.0, 1.5]), charges=np.array([-49, -47, -46]),
                         initial_charge=-50)
    with pytest.raises(ValueError, match="equal length"):
        ChargeTrajectory(times=np.array([0.5, 1.0]), charges=np.array([-49]),
                         initial_charge=-50)
    empty = ChargeTrajectory(times=np.array([]), charges=np.array([]),
                             initial_charge=-50)
    assert empty.n_events == 0 and empty.final_charge == -50
