"""Survival ensembles and the lifetime sweeps."""

import numpy as np
import pytest

from ndtrap.core import Particle, TrapConfig, UVSource
from ndtrap.ensemble import (SurvivalCurve, envelope_charge_sampler,
                             exponential_survival_curve, fixed_charge_sampler,
                             lifetime_sweep, margin_charge_sampler, simulate_survival,
                             stable_charge_range)
from ndtrap.fitters import DegenerateFitError, fit_exponential, fit_powerlaw, fit_sigmoid
from ndtrap.photoemission import EmissionModel

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
    for _ in range(200):
        c = draw(rng)
        assert c < 0 and lo <= -c <= hi
    draw = margin_charge_sampler(8, 32, sign=-1)(PARTICLE, RING)
    for _ in range(200):
        c = draw(rng)
        assert lo + 8 <= -c <= lo + 32
    assert fixed_charge_sampler(-69)(PARTICLE, RING)(rng) == -69


def counting_sampler(inner, calls):
    """Wrap a sampler so that ``calls`` counts its binds and its draws."""
    def sampler(particle, trap):
        calls["bind"] += 1
        draw = inner(particle, trap)

        def counted(rng):
            calls["draw"] += 1
            return draw(rng)
        return counted
    return sampler


def test_envelope_overlap_error_at_bind():
    # at geometry factor 1 the band (2 to 16 e) lies below the 1 um envelope
    steep = TrapConfig(voltage_amplitude=2250.0, drive_frequency=140.0,
                       characteristic_radius=3e-3, geometry_factor=1.0)
    with pytest.raises(ValueError, match="does not overlap"):
        envelope_charge_sampler(sign=-1)(PARTICLE, steep)
    calls = {"bind": 0, "draw": 0}
    with pytest.raises(ValueError, match="does not overlap"):
        simulate_survival(5, PARTICLE, steep, MODEL, LED, duration=10.0, seed=1,
                          charge_sampler=counting_sampler(envelope_charge_sampler(-1), calls))
    assert calls == {"bind": 1, "draw": 0}


def test_margin_ceiling_raises_per_draw():
    lo, hi = stable_charge_range(PARTICLE, RING)
    draw = margin_charge_sampler(hi - lo + 1, hi - lo + 50, sign=-1)(PARTICLE, RING)
    with pytest.raises(ValueError, match="ceiling"):
        draw(np.random.default_rng(0))


def test_survival_binds_sampler_once():
    calls = {"bind": 0, "draw": 0}
    counted = simulate_survival(37, PARTICLE, RING, MODEL, LED, duration=50.0, seed=8,
                                charge_sampler=counting_sampler(envelope_charge_sampler(-1),
                                                                calls))
    assert calls == {"bind": 1, "draw": 37}
    plain = simulate_survival(37, PARTICLE, RING, MODEL, LED, duration=50.0, seed=8)
    assert np.array_equal(counted.n_alive, plain.n_alive)


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


def test_survival_curve_validation():
    with pytest.raises(ValueError):
        SurvivalCurve(times=np.arange(3.0), n_alive=np.array([5, 6, 4]),
                      n0=5, uv_on_time=0.0)
    with pytest.raises(ValueError):
        SurvivalCurve(times=np.arange(3.0), n_alive=np.array([4, 3, 2]),
                      n0=5, uv_on_time=0.0)
