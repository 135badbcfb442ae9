"""End-to-end reproduction runs: simulate a bundled scenario, fit it, and
compare the derived quantities against their pinned reference values with
stated tolerances.  Each run emits plot-ready CSVs plus a machine-readable
report.json, and prints one PASS/FAIL/INFO line per check.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import io
from .fitters import (LatticeNotDetectedError, fit_charge_lattice,
                      fit_exponential, fit_powerlaw, fit_sigmoid)
from .photoemission import count_pulses, mean_pulses_analytic
from .runner import (SWEEP_KINDS, load_bundled_scenario,
                     run_frequency_trace_scenario, run_picker_scenario,
                     run_survival_scenario, run_sweep_scenario)
from .units import photon_energy_ev

# pinned reference values and tolerances
FIG5_TAU_RANGE = (32.0, 49.0)            # s, 40.7 +- 20% calibration band
FIG7_CENTER = (280.0, 2.0)               # nm
FIG7_WIDTH = (10.0, 2.0)                 # nm
FIG7_THRESHOLD = (270.0, 3.0)            # nm
FIG8_EXPONENT = (-1.3, 0.15)
FIG9_DELTA_F = 76.4                      # Hz
FIG9_MIN_SUCCESS = 0.95                  # over 100 seeds
FIG10_DELTA_F = 204.6                    # Hz
FIG10_FIRST_SHIFT = 1750.0               # Hz (reported as kHz, an evident typo)
FIG10_EXPOSURE_MS = 12.0
FIG10_RATE_RANGE = (1.0, 2.0)            # ms per electron
PICKER_MEASURED = 0.7                    # pulses per exposure, measured
PICKER_MC_SAMPLES = 10_000
PICKER_TOLERANCE = 0.05                  # relative, MC mean vs analytic


@dataclass
class Check:
    name: str
    status: str            # PASS | FAIL | INFO
    value: object
    expected: str
    detail: str = ""

    def line(self) -> str:
        txt = f"{self.status} {self.name}: {self.value} (expected {self.expected})"
        if self.detail:
            txt += f" -- {self.detail}"
        return txt


@dataclass
class Report:
    figure: str
    seed: int
    out_dir: str
    checks: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def add(self, name, ok, value, expected, detail="", informational=False):
        status = "INFO" if informational else ("PASS" if ok else "FAIL")
        self.checks.append(Check(name, status, value, expected, detail))

    def write(self, name, writer, *args):
        """Write one output file into out_dir with an io writer and list it."""
        path = os.path.join(self.out_dir, name)
        writer(path, *args)
        self.outputs.append(path)

    @property
    def failed(self) -> bool:
        return any(c.status == "FAIL" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "figure": self.figure,
            "seed": self.seed,
            "checks": [{"name": c.name, "status": c.status, "value": c.value,
                        "expected": c.expected, "detail": c.detail}
                       for c in self.checks],
            "outputs": [os.path.basename(p) for p in self.outputs],
            "data": self.data,
        }


def _within(value, center, tol):
    return abs(value - center) <= tol


def _scenario(name, seed):
    sc = load_bundled_scenario(name)
    return sc if seed is None else sc.with_seed(seed)


def reproduce_fig5(out_dir, seed=None) -> Report:
    sc = _scenario("fig5_decay", seed)
    report = Report("fig5", sc.seed, out_dir)
    curve = run_survival_scenario(sc)
    fit = fit_exponential(curve)
    tau = fit.parameters["tau"]
    lo, hi = FIG5_TAU_RANGE
    report.add("decay_lifetime_s", lo <= tau <= hi, round(tau, 2), f"[{lo}, {hi}]",
               detail=f"fit error {fit.errors['tau']:.2f} s")

    control = _scenario("control_no_uv", seed)
    ctrl_curve = run_survival_scenario(control)
    losses = int(ctrl_curve.n0 - ctrl_curve.n_alive[-1])
    report.add("control_losses", losses == 0, losses,
               "0 over 8000 s without UV")

    report.write("fig5_survival.csv", io.write_survival_csv, curve)
    report.write("fig5_control.csv", io.write_survival_csv, ctrl_curve)
    report.write("fig5_fit.json", io.write_json, io.fit_result_to_dict(fit, model="exponential"))
    report.data["tau_s"] = tau
    return report


def reproduce_fig7(out_dir, seed=None) -> Report:
    sc = _scenario("fig7_sweep", seed)
    report = Report("fig7", sc.seed, out_dir)
    points = run_sweep_scenario(sc)
    good = [p for p in points if not p.flags]
    fit = fit_sigmoid([p.x for p in good], [p.lifetime for p in good],
                      [p.lifetime_error for p in good], fit_space="inverse")
    center = fit.derived["center_wavelength"]
    width = fit.derived["width_10_90"]
    threshold = fit.derived["threshold_wavelength"]
    report.add("step_center_nm", _within(center, *FIG7_CENTER), round(center, 2),
               f"{FIG7_CENTER[0]} +- {FIG7_CENTER[1]}")
    report.add("width_10_90_nm", _within(width, *FIG7_WIDTH), round(width, 2),
               f"{FIG7_WIDTH[0]} +- {FIG7_WIDTH[1]}")
    report.add("threshold_nm", _within(threshold, *FIG7_THRESHOLD), round(threshold, 2),
               f"{FIG7_THRESHOLD[0]} +- {FIG7_THRESHOLD[1]}")
    energy_ref = photon_energy_ev(FIG7_THRESHOLD[0])
    report.add("threshold_photon_energy_ev", _within(energy_ref, 4.59, 0.01),
               round(energy_ref, 3), "4.59 (about 4.6)",
               detail=f"fitted threshold gives {fit.derived['threshold_photon_energy_ev']:.3f} eV")

    report.write("fig7_sweep.csv", io.write_sweep_csv, points, SWEEP_KINDS[sc.kind][2])
    report.write("fig7_fit.json", io.write_json, io.fit_result_to_dict(fit, model="sigmoid"))
    report.data.update({"center_nm": center, "width_nm": width, "threshold_nm": threshold})
    return report


def reproduce_fig8(out_dir, seed=None) -> Report:
    sc = _scenario("fig8_sweep", seed)
    report = Report("fig8", sc.seed, out_dir)
    points = run_sweep_scenario(sc)
    good = [p for p in points if not p.flags]
    d = [p.x for p in good]
    tau = [p.lifetime for p in good]
    err = [p.lifetime_error for p in good]
    free = fit_powerlaw(d, tau, err)
    fixed1 = fit_powerlaw(d, tau, err, fixed_exponent=-1.0)
    fixed2 = fit_powerlaw(d, tau, err, fixed_exponent=-2.0)
    exponent = free.parameters["exponent"]
    report.add("size_exponent", _within(exponent, *FIG8_EXPONENT), round(exponent, 3),
               f"{FIG8_EXPONENT[0]} +- {FIG8_EXPONENT[1]}",
               detail=f"fit error {free.errors['exponent']:.3f}")
    report.add("free_beats_d-1", free.residual_norm < fixed1.residual_norm,
               round(free.residual_norm, 4),
               f"< {fixed1.residual_norm:.4g} (d^-1 residual)")
    report.add("free_beats_d-2", free.residual_norm < fixed2.residual_norm,
               round(free.residual_norm, 4),
               f"< {fixed2.residual_norm:.4g} (d^-2 residual)")

    report.write("fig8_sweep.csv", io.write_sweep_csv, points, SWEEP_KINDS[sc.kind][2])
    report.write("fig8_fit.json", io.write_json, {
        "free": io.fit_result_to_dict(free, model="powerlaw"),
        "fixed_d-1": io.fit_result_to_dict(fixed1, model="powerlaw"),
        "fixed_d-2": io.fit_result_to_dict(fixed2, model="powerlaw"),
    })
    report.data["exponent"] = exponent
    return report


def _fig9_single(sc):
    traj, trace = run_frequency_trace_scenario(sc)
    lo = sc.require("run", "delta_f_min")
    hi = sc.require("run", "delta_f_max")
    truth = tuple(int(abs(c)) for c in traj.charge_at(trace.exposures))
    try:
        fit = fit_charge_lattice(trace, (lo, hi))
    except LatticeNotDetectedError:
        return traj, trace, None, truth, False
    ok = (abs(fit.parameters["delta_f"] - FIG9_DELTA_F) / FIG9_DELTA_F <= 0.02
          and fit.derived["charge_sequence"] == truth)
    return traj, trace, fit, truth, ok


def reproduce_fig9(out_dir, seed=None) -> Report:
    sc = _scenario("fig9_steps", seed)
    report = Report("fig9", sc.seed, out_dir)

    traj, trace, fit, truth, ok = _fig9_single(sc)
    if fit is None:
        report.add("delta_f_hz", False, None, f"within 2% of {FIG9_DELTA_F}")
    else:
        report.add("delta_f_hz", abs(fit.parameters["delta_f"] - FIG9_DELTA_F) / FIG9_DELTA_F <= 0.02,
                   round(fit.parameters["delta_f"], 2), f"within 2% of {FIG9_DELTA_F}",
                   detail=f"+- {fit.errors['delta_f']:.2f} Hz")
        report.add("charge_sequence_exact", fit.derived["charge_sequence"] == truth,
                   f"{len(truth)} exposures, initial {truth[0]} e",
                   "integer sequence matches the simulated trajectory")

    successes = 0
    n_seeds = 100
    for sub in np.random.SeedSequence(sc.seed).spawn(n_seeds):
        sub_sc = sc.with_seed(int(sub.generate_state(1)[0]))
        *_, sub_ok = _fig9_single(sub_sc)
        successes += sub_ok
    frac = successes / n_seeds
    report.add("mc_success_fraction", frac >= FIG9_MIN_SUCCESS, frac,
               f">= {FIG9_MIN_SUCCESS} over {n_seeds} seeds",
               detail="delta_f within 2% and charge sequence exact")

    report.write("fig9_trace.csv", io.write_frequency_trace_csv, trace)
    report.write("fig9_trajectory.csv", io.write_trajectory_csv, traj)
    if fit is not None:
        report.write("fig9_fit.json", io.write_json,
                     io.fit_result_to_dict(fit, model="charge_lattice"))
    report.data["mc_success_fraction"] = frac
    return report


def reproduce_fig10(out_dir, seed=None) -> Report:
    sc = _scenario("fig10_fast", seed)
    report = Report("fig10", sc.seed, out_dir)

    # arithmetic pins on the reported step values
    electrons_first = FIG10_FIRST_SHIFT / FIG10_DELTA_F
    report.add("first_step_electrons", _within(electrons_first, 8.55, 0.01),
               round(electrons_first, 3), "8.55 = 1750 Hz / 204.6 Hz")
    ms_per_electron = FIG10_EXPOSURE_MS / electrons_first
    lo, hi = FIG10_RATE_RANGE
    report.add("ms_per_electron", lo <= ms_per_electron <= hi,
               round(ms_per_electron, 3), f"[{lo}, {hi}] (1.4 reported)")
    coarse = 3.0 * FIG10_DELTA_F                      # 613.8 Hz
    initial_coarse = round(69 * FIG10_DELTA_F / coarse)
    report.add("lower_bound_initial_charge", initial_coarse == 23, initial_coarse,
               "23 e when the smallest step is one electron")
    steps_coarse = round(FIG10_FIRST_SHIFT / coarse)  # ~3 electrons
    rate_coarse = FIG10_EXPOSURE_MS / steps_coarse
    report.add("lower_bound_ms_per_electron", rate_coarse == 4.0, rate_coarse,
               "4.0 = 12 ms / 3 e")

    # synthetic trace: both readings from one trace via shifted search ranges
    traj, trace = run_frequency_trace_scenario(sc)
    lo_a = sc.require("run", "delta_f_min")
    hi_a = sc.require("run", "delta_f_max")
    fit_a = fit_charge_lattice(trace, (lo_a, hi_a))
    df_a = fit_a.parameters["delta_f"]
    report.add("sim_reading_single_e", abs(df_a - FIG10_DELTA_F) / FIG10_DELTA_F <= 0.02,
               round(df_a, 2), f"delta_f within 2% of {FIG10_DELTA_F} Hz",
               detail=f"initial charge {fit_a.derived['initial_charge']} e")
    k1 = fit_a.derived["charge_sequence"][0] - fit_a.derived["charge_sequence"][1]
    sim_rate = FIG10_EXPOSURE_MS / k1 if k1 > 0 else math.inf
    report.add("sim_first_exposure_rate", lo <= sim_rate <= hi, round(sim_rate, 2),
               f"[{lo}, {hi}] ms per electron",
               detail=f"{k1} electrons in the first 12 ms exposure")
    fit_b = fit_charge_lattice(trace, (3 * lo_a, 3 * hi_a))
    report.add("sim_reading_coarse", None, round(fit_b.parameters["delta_f"], 2),
               f"~{coarse} Hz with initial charge "
               f"{fit_b.derived['initial_charge']} e",
               detail="same trace, shifted delta_f search range",
               informational=True)

    report.write("fig10_trace.csv", io.write_frequency_trace_csv, trace)
    report.write("fig10_fits.json", io.write_json, {
        "single_electron_reading": io.fit_result_to_dict(fit_a, model="charge_lattice"),
        "coarse_reading": io.fit_result_to_dict(fit_b, model="charge_lattice"),
    })
    return report


def reproduce_fig12(out_dir, seed=None) -> Report:
    sc = _scenario("fig12_picker", seed)
    report = Report("fig12", sc.seed, out_dir)
    fixed_pulses, counts, charges, trace = run_picker_scenario(sc)
    frac_pulsed = float(np.mean(counts > 0))
    report.add("exposures_with_pulse", None, round(frac_pulsed, 3),
               "fraction of shutter exposures transmitting >= 1 pulse",
               informational=True)
    delta_f = sc.require("run", "delta_f")
    fit = fit_charge_lattice(trace, (sc.require("run", "delta_f_min"),
                                     sc.require("run", "delta_f_max")))
    df = fit.parameters["delta_f"]
    report.add("lattice_delta_f_hz", abs(df - delta_f) / delta_f <= 0.05,
               round(df, 2), f"within 5% of configured {delta_f} Hz",
               detail="single-pulse steps keep the single-electron lattice")
    steps = np.diff(charges)
    report.add("single_electron_steps", None,
               int(np.sum(steps == -1)), "count of one-electron exposures",
               informational=True)

    report.write("fig12_trace.csv", io.write_frequency_trace_csv, trace)
    report.write("fig12_fit.json", io.write_json,
                 io.fit_result_to_dict(fit, model="charge_lattice"))
    return report


def reproduce_picker(out_dir, seed=None) -> Report:
    sc = _scenario("fig12_picker", seed)
    report = Report("picker", sc.seed, out_dir)
    train = sc.pulse_train()
    analytic = mean_pulses_analytic(train)
    rng = np.random.default_rng(np.random.SeedSequence(sc.seed).spawn(1)[0])
    counts = count_pulses(train, rng.random((PICKER_MC_SAMPLES, 3)))
    mc_mean = float(counts.mean())
    rel = abs(mc_mean - analytic) / analytic
    report.add("mc_mean_pulses", rel <= PICKER_TOLERANCE, round(mc_mean, 4),
               f"within 5% of analytic {analytic:.4f}")
    in_support = counts.min() <= PICKER_MEASURED <= counts.max()
    report.add("measured_in_support", None,
               f"measured {PICKER_MEASURED} vs simulated support "
               f"[{counts.min()}, {counts.max()}]",
               "reported without pass/fail; the measured mean exceeds the "
               f"analytic {analytic:.3f} and the gap is logged, not hidden",
               detail=f"contained: {bool(in_support)}",
               informational=True)

    report.write("picker_histogram.csv", io.write_csv, ["pulses_per_exposure", "occurrences"],
                 np.unique(counts, return_counts=True))
    report.data.update({"analytic_mean": analytic, "mc_mean": mc_mean,
                        "measured_reference": PICKER_MEASURED})
    return report


_RUNNERS = {
    "fig5": reproduce_fig5,
    "fig7": reproduce_fig7,
    "fig8": reproduce_fig8,
    "fig9": reproduce_fig9,
    "fig10": reproduce_fig10,
    "fig12": reproduce_fig12,
    "picker": reproduce_picker,
}
FIGURES = tuple(_RUNNERS)


def reproduce(figure: str, out_dir: str, seed=None) -> Report:
    """Run one figure reproduction; writes outputs + report.json into out_dir."""
    if figure not in _RUNNERS:
        raise ValueError(f"unknown figure {figure!r}; choose from {FIGURES}")
    io.ensure_dir(out_dir)
    report = _RUNNERS[figure](out_dir, seed)
    report.write("report.json", io.write_json, report.to_dict())
    return report
