"""Trap physics: stability parameter, secular frequency, damping, integrator."""

import hashlib
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndtrap.core import Particle, TrapConfig
from ndtrap.signal import estimate_secular_frequency
from ndtrap.trap import (MotionTrace, ParticleLost, _integrate_linear_oscillator,
                         _mathieu_stiffness_table, _period_map,
                         _period_products, _step_matrices,
                         damping_rate, find_mathieu_boundary,
                         integrate_mathieu, integrate_motion, is_stable,
                         period_map_radius, secular_frequency,
                         stability_parameter)

RING_TRAP = TrapConfig(voltage_amplitude=2250.0, drive_frequency=140.0,
                       characteristic_radius=3e-3, geometry_factor=1.0)


def micron_particle(charge):
    return Particle(radius=0.5e-6, charge_count=charge)


def rk4_reference(stiffness_table, dt, n_steps, damping, x0, v0,
                  escape_radius=None):
    """Plain stepwise RK4 for x'' + damping x' + k(t) x = 0, the reference
    for the integrator's noise-free path.

    Same table convention and escape test as
    ``trap._integrate_linear_oscillator`` (|x| beyond the radius or not
    finite); returns (positions at every step before any escape, lost,
    escape_step, final_state).
    """
    tab = [float(s) for s in stiffness_table]
    m = len(tab)
    g = float(damping)
    x, v = float(x0), float(v0)
    out = [x]
    for step in range(n_steps):
        j = (2 * step) % m
        s0, s1, s2 = tab[j], tab[(j + 1) % m], tab[(j + 2) % m]
        k1x, k1v = v, -s0 * x - g * v
        x2, v2 = x + 0.5 * dt * k1x, v + 0.5 * dt * k1v
        k2x, k2v = v2, -s1 * x2 - g * v2
        x3, v3 = x + 0.5 * dt * k2x, v + 0.5 * dt * k2v
        k3x, k3v = v3, -s1 * x3 - g * v3
        x4, v4 = x + dt * k3x, v + dt * k3v
        k4x, k4v = v4, -s2 * x4 - g * v4
        x += dt / 6.0 * (k1x + 2.0 * (k2x + k3x) + k4x)
        v += dt / 6.0 * (k1v + 2.0 * (k2v + k3v) + k4v)
        if escape_radius is not None and not abs(x) <= escape_radius:
            return np.asarray(out), True, step + 1, (x, v)
        out.append(x)
    return np.asarray(out), False, -1, (x, v)


def integrate_harmonic(omega, cycles, x0=1.0, v0=0.0, steps_per_cycle=450):
    """RK4 on x'' + omega^2 x = 0 through the trap integrator; the constant
    stiffness is passed as a one-cycle table.  Returns the final (x, v)
    after ``cycles`` full periods."""
    dt = 2.0 * math.pi / (omega * steps_per_cycle)
    n_steps = int(round(cycles)) * steps_per_cycle
    _, _, _, final = _integrate_linear_oscillator(
        [omega * omega] * (2 * steps_per_cycle), dt, n_steps, 0.0, x0, v0,
        sample_stride=n_steps)
    return final


def test_stability_parameter_pinned():
    # 100 e on a 1 um particle at 2250 V, 140 Hz, eta 1, r0 3 mm;
    # independent arithmetic gives 5.6172
    q = stability_parameter(micron_particle(100), RING_TRAP)
    e = 1.602176634e-19
    m = 3.52e3 * (4 / 3) * math.pi * (0.5e-6) ** 3
    expected = 2 * 100 * e * 2250.0 / (m * (2 * math.pi * 140.0) ** 2 * (3e-3) ** 2)
    assert q == pytest.approx(expected, rel=1e-12)
    assert q == pytest.approx(5.62, rel=0.01)


def test_stability_parameter_zero_charge():
    assert stability_parameter(micron_particle(0), RING_TRAP) == 0.0


def test_stability_parameter_sign_independent():
    q_pos = stability_parameter(micron_particle(40), RING_TRAP)
    q_neg = stability_parameter(micron_particle(-40), RING_TRAP)
    assert q_pos == q_neg


def test_stability_homogeneity_exact():
    p = micron_particle(50)
    q1 = stability_parameter(p, RING_TRAP)
    assert stability_parameter(micron_particle(100), RING_TRAP) == 2.0 * q1
    double_v = TrapConfig(voltage_amplitude=4500.0, drive_frequency=140.0,
                          characteristic_radius=3e-3)
    assert stability_parameter(p, double_v) == 2.0 * q1
    double_f = TrapConfig(voltage_amplitude=2250.0, drive_frequency=280.0,
                          characteristic_radius=3e-3)
    assert stability_parameter(p, double_f) == q1 / 4.0
    # mass scales cubically with radius, exactly
    big = Particle(radius=1e-6, charge_count=50)
    assert stability_parameter(big, RING_TRAP) == q1 / 8.0


def test_is_stable_band():
    band = (0.1, 0.9)
    assert is_stable(0.5, band)
    assert not is_stable(0.05, band)
    assert is_stable(0.9, band)   # boundary counts as stable
    assert is_stable(0.1, band)
    assert not is_stable(0.91, band)
    with pytest.raises(ValueError):
        is_stable(0.5, (0.9, 0.1))


def test_secular_frequency_linear_in_charge():
    f1 = secular_frequency(micron_particle(7), RING_TRAP)
    f2 = secular_frequency(micron_particle(14), RING_TRAP)
    assert f2 == pytest.approx(2 * f1, rel=1e-12)
    assert secular_frequency(micron_particle(0), RING_TRAP) == 0.0


def test_secular_frequency_lattice_consistency():
    # a per-electron step of 76.4 Hz puts 69 electrons at 5271.6 Hz
    f1 = secular_frequency(micron_particle(1), RING_TRAP)
    scale = 76.4 / f1
    f69 = secular_frequency(micron_particle(69), RING_TRAP) * scale
    assert f69 == pytest.approx(5271.6, rel=1e-12)


def test_secular_invariant_under_q_preserving_scaling():
    p = micron_particle(30)
    f_base = secular_frequency(p, RING_TRAP)
    half_v = TrapConfig(voltage_amplitude=1125.0, drive_frequency=140.0,
                        characteristic_radius=3e-3)
    assert secular_frequency(micron_particle(60), half_v) == pytest.approx(f_base, rel=1e-12)


def test_damping_rate_pinned_and_linear():
    p = Particle(radius=125e-9, charge_count=1)
    g = damping_rate(p, 0.5)
    # Epstein drag, diffuse reflection, air at 295 K; regression pin
    assert g == pytest.approx(1157.055, rel=1e-4)
    assert damping_rate(p, 1.0) == pytest.approx(2 * g, rel=1e-12)
    assert damping_rate(p, 0.0) == 0.0


def test_harmonic_energy_conservation():
    # undriven, undamped limit: energy conserved to 1e-6 relative over 1e4
    # periods (the RK4 amplitude error per step is theta^6/72)
    omega = 2 * math.pi
    x, v = integrate_harmonic(omega, cycles=10_000, x0=1.0, v0=0.0,
                              steps_per_cycle=450)
    e0 = 0.5 * omega**2
    e1 = 0.5 * v * v + 0.5 * omega**2 * x * x
    assert abs(e1 - e0) / e0 < 1e-6
    # a table that is not one period of half-steps is refused
    with pytest.raises(ValueError):
        _integrate_linear_oscillator([omega * omega], 0.01, 100, 0.0, 1.0, 0.0)


@pytest.mark.parametrize("damping", [0.0, 0.05])
@pytest.mark.parametrize("q", [0.1, 0.3, 0.7, 0.95])
def test_noise_free_path_matches_stepwise_rk4(q, damping):
    # 120 drive periods plus a partial one at Omega = 2 pi; q = 0.95 grows
    # ~1.8x per period and escapes in the second block of periods
    n = 256
    tab = _mathieu_stiffness_table(q, 2.0 * math.pi, n)
    n_steps = 120 * n + 37
    radius = 1e20
    ref, ref_lost, ref_step, ref_final = rk4_reference(
        tab, 1.0 / n, n_steps, damping, 1.0, 0.3, escape_radius=radius)
    assert ref_lost == (q > 0.908)
    scale = np.max(np.abs(ref))
    for stride in (1, 64, 256):
        xs, lost, step, final = _integrate_linear_oscillator(
            tab, 1.0 / n, n_steps, damping, 1.0, 0.3, escape_radius=radius,
            sample_stride=stride)
        assert (lost, step) == (ref_lost, ref_step)
        expected = ref[::stride]
        assert xs.shape == expected.shape
        assert np.max(np.abs(xs - expected)) <= 1e-12 * scale
        assert (np.max(np.abs(np.subtract(final, ref_final)))
                <= 1e-12 * np.max(np.abs(ref_final)))


def test_noise_free_grid_digest_pinned():
    # every output of the noise-free path over a grid on both sides of the
    # boundary (q 0.908), pinned byte for byte: samples, lost flag, escape
    # step and final state, with durations that end mid-period
    h = hashlib.sha256()
    n = 256
    for q in (0.3, 0.7, 0.9, 0.91, 0.92, 1.2, 3.0):
        tab = _mathieu_stiffness_table(q, 2.0 * math.pi, n)
        h.update(np.asarray(tab, dtype="<f8").tobytes())
        for periods in (37.3, 90.61, 400.5):
            for damping in (0.0, 0.05):
                for radius in (None, 50.0, 1e4):
                    for stride in (1, 7, 256, 10_000):
                        times, xs, lost, t_esc = integrate_mathieu(
                            q, 1.0, periods, damping=damping, x0=1.0, v0=0.3,
                            escape_radius=radius, sample_stride=stride)
                        _, _, step, final = _integrate_linear_oscillator(
                            tab, 1.0 / n, int(round(periods * n)), damping,
                            1.0, 0.3, escape_radius=radius,
                            sample_stride=stride)
                        h.update(repr((lost, t_esc, step, final)).encode())
                        if not lost:
                            h.update(times.astype("<f8").tobytes())
                            h.update(xs.astype("<f8").tobytes())
    assert h.hexdigest() == ("3ddeac6a3de6dc32dc18f3822d643557"
                             "04ecaa9d94f357e5131d0019afa6abf0")


def test_escape_radius_between_true_maximum_and_period_bound():
    # a radius above the run's largest |x| but below the loose estimate
    # max|p00| |x0| + max|p01| |v0| is never reached, so the run is not
    # lost, at any stride; a radius just below the largest |x| is passed,
    # at the reference's step
    n = 256
    tab = _mathieu_stiffness_table(0.3, 2.0 * math.pi, n)
    n_steps = 20 * n + 100
    x0, v0 = 1.0, 0.3
    ref, _, _, ref_final = rk4_reference(tab, 1.0 / n, n_steps, 0.0, x0, v0)
    top = np.max(np.abs(ref))
    p00, p01, _, _ = _period_products(tab, 1.0 / n, 0.0)
    bound = np.max(np.abs(p00)) * abs(x0) + np.max(np.abs(p01)) * abs(v0)
    assert bound > 1.1 * top
    between, below = 0.5 * (top + bound), top * (1.0 - 1e-6)
    _, ref_lost, ref_step, _ = rk4_reference(tab, 1.0 / n, n_steps, 0.0, x0, v0,
                                             escape_radius=below)
    assert ref_lost
    for stride in (1, 300):
        xs, lost, step, final = _integrate_linear_oscillator(
            tab, 1.0 / n, n_steps, 0.0, x0, v0, escape_radius=between,
            sample_stride=stride)
        assert (lost, step) == (False, -1)
        assert np.max(np.abs(xs - ref[::stride])) <= 1e-12 * top
        assert np.max(np.abs(np.subtract(final, ref_final))) <= 1e-12 * top
        _, lost, step, _ = _integrate_linear_oscillator(
            tab, 1.0 / n, n_steps, 0.0, x0, v0, escape_radius=below,
            sample_stride=stride)
        assert (lost, step) == (True, ref_step)


def test_escape_bound_tight_from_rest():
    # from x0 = 1, v0 = 0 the first period's positions are p00 itself, so
    # a radius a hair below their largest |x| is passed within that
    # period, and the escape must be reported at the reference's step
    n = 256
    tab = _mathieu_stiffness_table(0.5, 2.0 * math.pi, n)
    p00, _, _, _ = _period_products(tab, 1.0 / n, 0.0)
    radius = np.max(np.abs(p00)) * (1.0 - 1e-9)
    _, ref_lost, ref_step, _ = rk4_reference(tab, 1.0 / n, 10 * n, 0.0, 1.0,
                                             0.0, escape_radius=radius)
    assert ref_lost and ref_step <= n
    for stride in (1, 300):
        _, lost, step, _ = _integrate_linear_oscillator(
            tab, 1.0 / n, 10 * n, 0.0, 1.0, 0.0, escape_radius=radius,
            sample_stride=stride)
        assert (lost, step) == (True, ref_step)


@pytest.mark.parametrize("stride", [1, 7, 256, 10_000])
def test_escape_in_last_partial_period(stride):
    # q = 1.2 escapes 1e6 in a few periods; the run ends 4 steps after the
    # escape, which lies inside its last, partial period
    n = 256
    tab = _mathieu_stiffness_table(1.2, 2.0 * math.pi, n)
    _, lost, esc, _ = rk4_reference(tab, 1.0 / n, 40 * n, 0.0, 1.0, 0.3,
                                    escape_radius=1e6)
    assert lost and (esc - 1) % n < n - 5
    n_steps = esc + 4
    ref, ref_lost, ref_step, ref_final = rk4_reference(
        tab, 1.0 / n, n_steps, 0.0, 1.0, 0.3, escape_radius=1e6)
    assert (ref_lost, ref_step) == (True, esc) and n_steps % n
    xs, lost, step, final = _integrate_linear_oscillator(
        tab, 1.0 / n, n_steps, 0.0, 1.0, 0.3, escape_radius=1e6,
        sample_stride=stride)
    assert (lost, step) == (True, esc)
    expected = ref[::stride]
    assert xs.shape == expected.shape
    assert np.max(np.abs(xs - expected)) <= 1e-12 * np.max(np.abs(ref))
    assert (np.max(np.abs(np.subtract(final, ref_final)))
            <= 1e-12 * np.max(np.abs(ref_final)))


def test_mathieu_boundary_location():
    q_star = find_mathieu_boundary()
    assert q_star == pytest.approx(0.908, abs=0.01)
    # the bisection's exact end point at its 1e-3 tolerance in q
    assert q_star == 0.90771484375


@pytest.mark.parametrize("q", [0.923, 1.0, 1.15])
def test_period_map_radius_matches_stepwise_growth(q):
    # beyond the boundary the fastest mode dominates by period 40, so the
    # stepwise reference grows by the radius per period from there on
    n = 256
    tab = _mathieu_stiffness_table(q, 2.0 * math.pi, n)
    xs, lost, _, _ = rk4_reference(tab, 1.0 / n, 60 * n, 0.0, 1.0, 0.0)
    assert not lost
    growth = (abs(xs[60 * n]) / abs(xs[40 * n])) ** (1.0 / 20.0)
    assert growth == pytest.approx(period_map_radius(q), rel=1e-9)


def bits(values):
    """The IEEE-754 bit patterns of float values, so -0.0 != 0.0."""
    return np.asarray(values, dtype="<f8").view("<u8").tolist()


@pytest.mark.parametrize("damping", [0.0, 23.0])
def test_step_matrices_are_one_reference_step(damping):
    # column c of S_j is one stepwise RK4 step from e_c, started at step j
    # of the table, bit for bit
    n = 256
    tab = _mathieu_stiffness_table(0.7, 2.0 * math.pi, n)
    s = _step_matrices(tab, 1.0 / n, damping)
    assert s.shape == (2, 2, n)
    for j in range(n):
        rolled = np.roll(tab, -2 * j)
        for c, (x0, v0) in enumerate(((1.0, 0.0), (0.0, 1.0))):
            _, _, _, final = rk4_reference(rolled, 1.0 / n, 1, damping, x0, v0)
            assert bits(s[:, c, j]) == bits(final)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.0, 1.3), damping=st.sampled_from([0.0, 23.0]))
def test_pairwise_period_map_is_last_prefix(q, damping):
    # for a power-of-two step count the pairwise products group the steps
    # exactly as the prefix scan's last element does
    n = 256
    tab = _mathieu_stiffness_table(q, 2.0 * math.pi, n)
    last = [p[-1] for p in _period_products(tab, 1.0 / n, damping)]
    assert bits(_period_map(tab, 1.0 / n, damping)) == bits(last)


def test_pairwise_period_map_needs_power_of_two():
    tab = _mathieu_stiffness_table(0.5, 2.0 * math.pi, 200)
    with pytest.raises(ValueError, match="power-of-two"):
        _period_map(tab, 1.0 / 200, 0.0)


@pytest.mark.parametrize("q, radius_hex", [
    (0.3, "0x1.fffffffff8cb0p-1"),
    (0.7, "0x1.ffffffffd8bebp-1"),
    (0.9, "0x1.ffffffffbf1cfp-1"),
    (0.923, "0x1.6ea9e1bfa7db0p+0"),
    (1.15, "0x1.06c060f6390f8p+2"),
])
def test_period_map_radius_pinned(q, radius_hex):
    # the radii of the per-step prefix scan, kept bit for bit
    assert period_map_radius(q).hex() == radius_hex


def test_period_map_radius_stable_and_overflow():
    for q in (0.3, 0.7, 0.9):
        assert period_map_radius(q) <= 1.0
    # the undriven map is a free drift [[1, T], [0, 1]]
    assert period_map_radius(0.0) == 1.0
    # a map that overflows reads as unstable, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radius = period_map_radius(1e8)
    assert math.isnan(radius) and not radius <= 1.0


def test_integrate_mathieu_overflow_reports_lost():
    # q = 3.0 is far outside the first stability region: without an escape
    # radius |x| overflows after ~200 drive periods, which must read as lost,
    # with no warning.  The motion is linear, so the stepwise reference run
    # at 2^-400 scale (exact in binary, and no RK4 stage overflows) finds
    # the step where |x| first exceeds the largest float
    n = 256
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        times, xs, lost, escape_time = integrate_mathieu(3.0, 1.0, 400.0)
    scale = 2.0 ** -400
    _, ref_lost, ref_step, _ = rk4_reference(
        _mathieu_stiffness_table(3.0, 2.0 * math.pi, n), 1.0 / n, 400 * n, 0.0,
        scale, 0.0, escape_radius=sys.float_info.max * scale)
    assert lost and ref_lost
    assert times is None and xs is None
    assert escape_time == ref_step / n


def test_integrate_motion_unstable_q_reports_lost():
    # q ~ 5.6 (first example) is deep in the unstable Mathieu region
    result = integrate_motion(micron_particle(100), RING_TRAP, duration=1.0)
    assert isinstance(result, ParticleLost)
    assert result.escape_time > 0
    # |x| first exceeds 100 r0 after step 607 at 256 steps per 140 Hz period
    assert result.escape_time == 0.016936383928571427
    assert result.q == pytest.approx(5.617, rel=1e-3)


def test_integrate_motion_zero_charge_zero_init_is_flat():
    result = integrate_motion(micron_particle(0), RING_TRAP, duration=0.1,
                              x0=0.0, v0=0.0)
    assert isinstance(result, MotionTrace)
    assert np.all(result.positions == 0.0)


@pytest.mark.parametrize("name, value", [
    ("sample_stride", -3), ("sample_stride", 0), ("sample_rate", -5.0),
    ("sample_rate", 0.0), ("sample_rate", math.inf), ("sample_rate", math.nan),
    ("sample_rate", 1e-320)])
def test_integrator_rejects_bad_sampling(name, value):
    # a negative stride read the trace backwards, a zero stride or rate
    # divided by zero, a negative or infinite rate sampled every step, a
    # NaN rate failed inside int(), and a subnormal rate overflowed the
    # step ratio to inf before int()
    with pytest.raises(ValueError, match=name):
        if name == "sample_stride":
            integrate_mathieu(0.3, 1.0, 1.0, sample_stride=value)
        else:
            integrate_motion(micron_particle(1), RING_TRAP, 0.01,
                             sample_rate=value)


def test_integrate_motion_minimum_resolution_enforced():
    with pytest.raises(ValueError):
        integrate_motion(micron_particle(0), RING_TRAP, duration=0.1,
                         steps_per_period=64)


def test_integrator_secular_peak_matches_formula():
    # spectrum peak at (q / (2 sqrt 2)) f_drive within one FFT bin
    f_drive = 1000.0
    for q, duration, band in ((0.1, 1.0, (25.0, 60.0)),
                              (0.2, 0.4, (58.0, 90.0)),
                              (0.3, 0.25, (85.0, 135.0))):
        times, xs, lost, _ = integrate_mathieu(q, f_drive, duration, x0=1.0,
                                               steps_per_period=256,
                                               sample_stride=64)
        assert not lost
        trace = MotionTrace(sample_rate=f_drive * 256 / 64, times=times,
                            positions=xs, q=q)
        est = estimate_secular_frequency(trace, band)
        assert est is not None
        analytic = q / (2 * math.sqrt(2)) * f_drive
        assert abs(est.frequency - analytic) <= est.bin_width


def test_integrate_motion_thermal_noise_reproducible():
    p = Particle(radius=0.5e-6, charge_count=100)
    trap = TrapConfig(voltage_amplitude=2250.0, drive_frequency=140.0,
                      characteristic_radius=3e-3, geometry_factor=0.005)
    kwargs = dict(duration=0.5, damping=20.0, thermal_noise=True, rng_seed=42)
    a = integrate_motion(p, trap, **kwargs)
    b = integrate_motion(p, trap, **kwargs)
    assert isinstance(a, MotionTrace)
    assert np.array_equal(a.positions, b.positions)
    c = integrate_motion(p, trap, duration=0.5, damping=20.0,
                         thermal_noise=True, rng_seed=43)
    assert not np.array_equal(a.positions, c.positions)


def test_integrate_motion_thermal_trace_pinned():
    # the thermal-noise path is the stepwise RK4 loop; its trace at a fixed
    # seed is pinned byte for byte
    p = Particle(radius=0.5e-6, charge_count=100)
    trap = TrapConfig(voltage_amplitude=2250.0, drive_frequency=140.0,
                      characteristic_radius=3e-3, geometry_factor=0.005)
    trace = integrate_motion(p, trap, duration=0.2, damping=20.0,
                             thermal_noise=True, rng_seed=42)
    assert len(trace.positions) == 7169
    digest = hashlib.sha256(trace.positions.astype("<f8").tobytes()).hexdigest()
    assert digest == ("e4e705d75f30b6c636f36bf90fb4586c"
                      "10b1f53b694a2bd855875091d62dc20c")


def test_motion_trace_rejects_nonfinite():
    with pytest.raises(ValueError):
        MotionTrace(sample_rate=1.0, times=np.arange(3.0),
                    positions=np.array([0.0, math.nan, 1.0]), q=0.0)
