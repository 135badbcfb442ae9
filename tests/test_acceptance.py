"""Acceptance suite: every criterion at its stated tolerance, one printed
pass line per criterion.  Run with `pytest -v -s tests/test_acceptance.py`.
"""

import math
import os

import pytest

from ndtrap.core import Particle, TrapConfig
from ndtrap.ensemble import exponential_survival_curve
from ndtrap.fitters import fit_exponential
from ndtrap.photoemission import required_intensity_scaling, spot_for_power
from ndtrap.reproduce import FIGURES, reproduce
from ndtrap.signal import estimate_secular_frequency
from ndtrap.trap import (MotionTrace, find_mathieu_boundary, integrate_mathieu,
                         stability_parameter)
from ndtrap.units import photon_energy_ev


def report(line):
    print(f"\nACCEPTANCE {line}")


def checks_by_name(rep):
    return {c.name: c for c in rep.checks}


def test_criterion_01_stability_parameter_pin():
    """Eq-of-motion stability parameter arithmetic pin: q = 5.62 +- 1%."""
    particle = Particle(radius=0.5e-6, charge_count=100)
    trap = TrapConfig(voltage_amplitude=2250.0, drive_frequency=140.0,
                      characteristic_radius=3e-3, geometry_factor=1.0)
    q = stability_parameter(particle, trap)
    # independent hand calculation
    e = 1.602176634e-19
    mass = 3.52e3 * (4.0 / 3.0) * math.pi * (0.5e-6) ** 3
    q_hand = 2 * 100 * e * 2250.0 / (mass * (2 * math.pi * 140.0) ** 2 * 9e-6)
    assert q == pytest.approx(q_hand, rel=1e-12)
    assert abs(q - 5.62) / 5.62 <= 0.01
    report(f"1 PASS: stability parameter q = {q:.4f} (5.62 +- 1%)")


@pytest.mark.parametrize("tau_true", [5.0, 40.7, 1000.0])
def test_criterion_02_exponential_round_trip(tau_true):
    """Survival-decay round trip: tau within 3 SE in >= 95% of 200 runs."""
    hits = 0
    n_runs = 200
    frame_rate = 10.0 / tau_true
    for seed in range(n_runs):
        curve = exponential_survival_curve(100, tau_true, 6.0 * tau_true,
                                           seed=seed, frame_rate=frame_rate)
        fit = fit_exponential(curve)
        if abs(fit.parameters["tau"] - tau_true) <= 3 * fit.errors["tau"]:
            hits += 1
    frac = hits / n_runs
    assert frac >= 0.95
    report(f"2 PASS: tau = {tau_true} s recovered within 3 SE in {frac:.1%} of {n_runs} runs")


def test_criterion_03_wavelength_round_trip(tmp_path):
    """Rate sigmoid -> ensemble sweep -> sigmoid fit: center/width/threshold."""
    rep = reproduce("fig7", str(tmp_path))
    c = checks_by_name(rep)
    center = c["step_center_nm"]
    width = c["width_10_90_nm"]
    threshold = c["threshold_nm"]
    for chk in (center, width, threshold, c["threshold_photon_energy_ev"]):
        assert chk.status == "PASS", chk.line()
    assert photon_energy_ev(270.0) == pytest.approx(4.59, abs=0.01)
    report(f"3 PASS: center {center.value} nm, width {width.value} nm, "
           f"threshold {threshold.value} nm, 4.59 eV")


def test_criterion_04_size_round_trip(tmp_path):
    """Size sweep re-fits exponent -1.3 +- 0.15; beats d^-1 and d^-2."""
    rep = reproduce("fig8", str(tmp_path))
    c = checks_by_name(rep)
    for name in ("size_exponent", "free_beats_d-1", "free_beats_d-2"):
        assert c[name].status == "PASS", c[name].line()
    report(f"4 PASS: size exponent {c['size_exponent'].value} "
           f"(-1.3 +- 0.15), strictly better than both fixed exponents")


def test_criterion_05_lattice_monte_carlo(tmp_path):
    """Charge-lattice fit: delta_f within 2%, charges exact, >= 95/100 seeds."""
    rep = reproduce("fig9", str(tmp_path))
    c = checks_by_name(rep)
    assert c["mc_success_fraction"].status == "PASS", c["mc_success_fraction"].line()
    assert c["delta_f_hz"].status == "PASS"
    assert c["charge_sequence_exact"].status == "PASS"
    report(f"5 PASS: lattice MC success {c['mc_success_fraction'].value:.0%} "
           f"(>= 95%), demo delta_f = {c['delta_f_hz'].value} Hz")


def test_criterion_06_fast_neutralization_pins(tmp_path):
    """Step arithmetic: 1750/204.6 = 8.55 e, 1.40 ms/e; 23 e and 4 ms/e."""
    assert 1750.0 / 204.6 == pytest.approx(8.553, abs=5e-3)
    assert 12.0 / (1750.0 / 204.6) == pytest.approx(1.403, abs=5e-3)
    assert 1.0 <= 12.0 / (1750.0 / 204.6) <= 2.0
    assert round(69 * 204.6 / 613.8) == 23
    assert 12.0 / round(1750.0 / 613.8) == 4.0
    rep = reproduce("fig10", str(tmp_path))
    assert not rep.failed
    report("6 PASS: 8.553 electrons in the first 12 ms exposure, 1.403 ms/e; "
           "lower-bound reading 23 e at 4.0 ms/e")


def test_criterion_07_intensity_scaling_pins():
    """500 s -> 10 ms factor 50000; 10 mW focused spot 130..170 um."""
    factor = required_intensity_scaling(10e-3, 500.0)
    assert factor == 50_000.0
    spot = spot_for_power(10e-3, 5e5)  # 10 mW at 5e4 mW/cm^2
    assert 130e-6 <= spot <= 170e-6
    report(f"7 PASS: intensity factor {factor:.0f}, spot {spot*1e6:.1f} um")


def test_criterion_08_pulse_picker(tmp_path):
    """Picker MC mean within 5% of analytic; 0.7 within support, no pass/fail."""
    rep = reproduce("picker", str(tmp_path))
    c = checks_by_name(rep)
    assert c["mc_mean_pulses"].status == "PASS", c["mc_mean_pulses"].line()
    assert 0.46 <= rep.data["analytic_mean"] <= 0.48
    assert c["measured_in_support"].status == "INFO"   # reported, not judged
    assert "contained: True" in c["measured_in_support"].detail
    report(f"8 PASS: MC mean {rep.data['mc_mean']:.4f} vs analytic "
           f"{rep.data['analytic_mean']:.4f}; measured 0.7 in support (INFO)")


def test_criterion_09_integrator_validation():
    """Mathieu boundary at 0.908 +- 0.01; secular peak within one FFT bin."""
    q_star = find_mathieu_boundary()
    assert q_star == pytest.approx(0.908, abs=0.01)
    f_drive = 1000.0
    peaks = []
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
        analytic = q / (2 * math.sqrt(2)) * f_drive
        assert est is not None
        assert abs(est.frequency - analytic) <= est.bin_width
        peaks.append((q, est.frequency, analytic))
    detail = ", ".join(f"q={q}: {f:.1f}/{a:.1f} Hz" for q, f, a in peaks)
    report(f"9 PASS: boundary q = {q_star:.4f} (0.908 +- 0.01); peaks {detail}")


def _tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.mark.parametrize("figure", FIGURES)
def test_criterion_10_determinism(figure, tmp_path):
    """Same seed twice: byte-identical CSV/JSON outputs for every figure."""
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    reproduce(figure, str(dir_a))
    reproduce(figure, str(dir_b))
    a = _tree_bytes(dir_a)
    b = _tree_bytes(dir_b)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"{figure}/{name} differs between runs"
    report(f"10 PASS: reproduce {figure} is byte-identical across reruns")


@pytest.mark.parametrize("figure", ["fig5", "fig7", "fig8"])
def test_survival_figures_pass_at_other_seeds(figure, tmp_path):
    """Every pinned check of the survival figures holds at scenario seeds
    1-20 too, so a change cannot pass at the default seed alone."""
    failed = [(seed, c.line()) for seed in range(1, 21)
              for c in reproduce(figure, str(tmp_path / str(seed)), seed=seed).checks
              if c.status == "FAIL"]
    assert not failed
    report(f"{figure} PASS: every pinned check at scenario seeds 1-20")
