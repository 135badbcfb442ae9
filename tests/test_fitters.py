"""Nonlinear least squares and the four measurement-model fits."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndtrap import ensemble
from ndtrap.ensemble import exponential_survival_curve
from ndtrap.fitters import (DegenerateFitError, LatticeNotDetectedError,
                            _fd_jacobian, _lattice_objective,
                            _lattice_minima, confidence_band,
                            exponential_model, fit_charge_lattice,
                            fit_exponential, fit_powerlaw, fit_sigmoid,
                            nls_fit, sigmoid_model)
from ndtrap.runner import (load_bundled_scenario, run_survival_scenario,
                           run_sweep_scenario)
from ndtrap.signal import FrequencyTrace


def powerlaw_model(x, amplitude, exponent):
    return amplitude * np.asarray(x, dtype=float) ** exponent


def lattice_model(n, delta_f):
    return delta_f * np.asarray(n, dtype=float)


class CurveStub:
    def __init__(self, times, n_alive, uv_on_time=0.0):
        self.times = np.asarray(times, dtype=float)
        self.n_alive = np.asarray(n_alive, dtype=float)
        self.uv_on_time = uv_on_time


# ---------------------------------------------------------------- nls_fit

def test_nls_exact_data_recovers_parameters():
    t = np.linspace(0.0, 100.0, 60)
    y = exponential_model(t, 19.0, 40.7)
    res = nls_fit(exponential_model, t, y, p0=(10.0, 20.0),
                  param_names=("n0", "tau"))
    assert res.converged
    assert res.parameters["n0"] == pytest.approx(19.0, rel=1e-8)
    assert res.parameters["tau"] == pytest.approx(40.7, rel=1e-8)


def test_nls_matches_closed_form_weighted_linear():
    rng = np.random.default_rng(8)
    x = np.linspace(1.0, 9.0, 25)
    y = 3.7 * x + 0.2 * rng.standard_normal(25)
    w = rng.uniform(0.5, 2.0, 25)
    slope_exact = float(np.sum(w * x * y) / np.sum(w * x * x))
    res = nls_fit(lambda xx, a: a * xx, x, y, p0=(1.0,), param_names=("a",),
                  weights=w)
    assert res.parameters["a"] == pytest.approx(slope_exact, abs=1e-10)


def test_nls_underdetermined_raises():
    with pytest.raises(DegenerateFitError):
        nls_fit(exponential_model, [1.0], [2.0], p0=(1.0, 1.0))


def test_nls_nonconvergence_returns_best_so_far():
    t = np.linspace(0, 10, 20)
    y = exponential_model(t, 10.0, 3.0)
    res = nls_fit(exponential_model, t, y, p0=(4.0, 1.0), max_iterations=1,
                  tolerance=1e-16)
    assert not res.converged
    assert math.isfinite(res.residual_norm)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(model=st.sampled_from(["exponential", "sigmoid", "line"]),
       data=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e6, 1e6)),
                     min_size=4, max_size=30),
       p0=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4))
def test_nls_never_converges_to_nan(model, data, p0):
    # whatever the data and start, a converged fit has finite parameters
    fn, n_par = {"exponential": (exponential_model, 2), "sigmoid": (sigmoid_model, 4),
                 "line": (lambda x, a, b: a * x + b, 2)}[model]
    x, y = np.array(data).T
    try:
        res = nls_fit(fn, x, y, p0[:n_par])
    except DegenerateFitError:
        return
    if res.converged:
        assert all(math.isfinite(v) for v in res.parameters.values())


def test_fd_jacobian_forward_vs_central():
    # forward differences (used by the solver) against central differences
    rng = np.random.default_rng(3)
    cases = [
        (exponential_model, np.linspace(0.1, 80, 40), [15.0, 35.0]),
        (sigmoid_model, np.linspace(250, 320, 30), [900.0, 280.0, 0.44, 3.0]),
        (powerlaw_model, np.geomspace(1e-7, 2e-6, 20), [2.5, -1.3]),
        (lattice_model, np.arange(1.0, 30.0), [76.4]),
    ]
    for model, x, theta0 in cases:
        for _ in range(4):
            theta = np.array(theta0) * (1 + 0.1 * rng.standard_normal(len(theta0)))
            fwd = _fd_jacobian(model, x, theta)
            h = 1e-6 * np.maximum(np.abs(theta), 1.0)
            ctr = np.empty_like(fwd)
            for j in range(len(theta)):
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h[j]
                tm[j] -= h[j]
                ctr[:, j] = (np.asarray(model(x, *tp)) - np.asarray(model(x, *tm))) / (2 * h[j])
            scale = np.max(np.abs(ctr))
            assert np.max(np.abs(fwd - ctr)) <= 1e-5 * scale


def test_covariance_symmetric_psd():
    rng = np.random.default_rng(12)
    t = np.linspace(0, 100, 50)
    y = exponential_model(t, 20.0, 30.0) + 0.3 * rng.standard_normal(50)
    res = nls_fit(exponential_model, t, y, p0=(15.0, 20.0))
    assert res.converged
    cov = res.covariance
    assert np.allclose(cov, cov.T)
    eig = np.linalg.eigvalsh(cov)
    assert np.all(eig >= -1e-12 * np.max(np.abs(eig)))


def test_confidence_band_covers_generating_curve():
    rng = np.random.default_rng(21)
    t = np.linspace(0, 120, 40)
    y_true = exponential_model(t, 25.0, 40.0)
    y = y_true + 0.5 * rng.standard_normal(40)
    res = nls_fit(exponential_model, t, y, p0=(20.0, 30.0))
    theta = [res.parameters[k] for k in res.param_names]
    band = confidence_band(res, exponential_model, t)
    fitted = exponential_model(t, *theta)
    covered = np.mean(np.abs(fitted - y_true) <= band)
    assert covered >= 0.6


# ------------------------------------------------------- fit_exponential

def test_fit_exponential_round_trip_n19():
    curve = exponential_survival_curve(19, 40.7, 200.0, seed=6, frame_rate=1.0)
    res = fit_exponential(curve)
    assert abs(res.parameters["tau"] - 40.7) <= 2 * res.errors["tau"]


def test_fit_exponential_constant_flags_no_decay():
    curve = CurveStub(np.linspace(0, 100, 30), np.full(30, 17.0))
    res = fit_exponential(curve)
    assert "no_decay" in res.flags
    assert res.converged


def test_fit_exponential_iid_noise_three_sigma_coverage():
    # Decay-law data with 5% multiplicative noise: tau within 3 SE in >= 95%
    # of 1000 seeded runs (independent noise, residual-based errors).  The
    # 2-tau span keeps the multiplicative heteroscedasticity mild enough for
    # the unweighted residual covariance to stay honest.
    hits = 0
    n_runs = 1000
    t = np.linspace(0.0, 2.0 * 40.7, 30)
    for seed in range(n_runs):
        rng = np.random.default_rng(seed)
        y = exponential_model(t, 20.0, 40.7) * (1 + 0.05 * rng.standard_normal(30))
        res = fit_exponential(CurveStub(t, y))
        if abs(res.parameters["tau"] - 40.7) <= 3 * res.errors["tau"]:
            hits += 1
    assert hits / n_runs >= 0.95


def test_fit_exponential_estimator_consistency():
    # against the injected-exponential oracle at large n0
    curve = exponential_survival_curve(10_000, 40.7, 250.0, seed=5)
    res = fit_exponential(curve)
    assert abs(res.parameters["tau"] - 40.7) / 40.7 < 0.05


def test_fit_exponential_needs_three_times():
    # distinct times count, sorted (counted from the steps) or not (np.unique)
    for t, y in (([0.0, 1.0], [5, 4]), ([0.0, 0.0, 1.0, 1.0], [5, 5, 4, 4]),
                 ([1.0, 0.0, 1.0, 0.0], [4, 5, 4, 5])):
        with pytest.raises(DegenerateFitError, match="3 distinct times"):
            fit_exponential(CurveStub(t, y))
    for t in ([0.0, 0.0, 1.0, 2.0], [2.0, 0.0, 1.0, 0.0]):
        fit_exponential(CurveStub(t, [5, 5, 4, 3]))


def lm_exponential_fit(t, y):
    """The reference for fit_exponential: Levenberg-Marquardt (nls_fit) from
    the log-linear start, on the frames after UV on with times from UV on."""
    t, y = np.asarray(t, dtype=float), np.asarray(y, dtype=float)
    pos = y > 0
    slope, intercept = np.polyfit(t[pos], np.log(y[pos]), 1)
    return nls_fit(exponential_model, t, y, (math.exp(intercept), -1.0 / slope),
                   param_names=("n0", "tau"))


def post_uv(curve):
    keep = curve.times >= curve.uv_on_time
    return curve.times[keep] - curve.uv_on_time, curve.n_alive[keep]


def test_fit_exponential_matches_lm_on_figure_curves(monkeypatch):
    # every survival curve reproduce fits for fig5, fig7 and fig8 at the
    # default seeds: the run-length fit is the least-squares minimum LM
    # approaches, so tau agrees and the residual is no larger
    curves = [run_survival_scenario(load_bundled_scenario("fig5_decay"))]

    def recording(curve):
        curves.append(curve)
        return fit_exponential(curve)
    monkeypatch.setattr(ensemble, "fit_exponential", recording)
    for name in ("fig7_sweep", "fig8_sweep"):
        run_sweep_scenario(load_bundled_scenario(name))
    assert len(curves) == 1 + 14 + 5
    for curve in curves:
        res = fit_exponential(curve)
        ref = lm_exponential_fit(*post_uv(curve))
        assert res.converged and ref.converged and not res.flags
        assert res["tau"] == pytest.approx(ref["tau"], rel=1e-6)
        assert res["n0"] == pytest.approx(ref["n0"], rel=1e-6)
        assert res.residual_norm <= ref.residual_norm * (1 + 1e-12)
        # least-squares n0 error from the analytic J^T J, as LM's from its
        # finite-difference one
        assert res.errors["n0"] == pytest.approx(ref.errors["n0"], rel=1e-4)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n0=st.integers(1, 300),
       drops=st.lists(st.integers(0, 8), min_size=2, max_size=80),
       spacing=st.sampled_from([0.1, 0.25, 1.0, 7.0]),
       start=st.sampled_from([0.0, 0.05, 3.0]))
# LM converged 5e-12 above the minimum, tau 4e-6 away (tau ~ 380 spans)
@example(n0=301, drops=[0] * 11 + [2], spacing=7.0, start=3.0)
# equal residuals to rounding, tau 1.2e-6 apart (tau ~ 330 spans)
@example(n0=191, drops=[1, 0, 0, 0, 0, 0, 0], spacing=7.0, start=0.05)
def test_fit_exponential_property_vs_lm(n0, drops, spacing, start):
    # integer survival curves on an even grid: the fit's residual is never
    # above LM's, and tau agrees wherever LM converged to the same minimum.
    # Each residual r_i is known to about eps |y_i| only, so near-exact fits
    # (three points on one slope) also get the rounding floor
    # 8 eps sqrt(ssr sum y^2) of the sum.  LM's convergence test (relative
    # step and drop below 1e-10) can stop short where the objective is flat
    # in tau: past NO_DECAY_SPAN_FACTOR spans (flagged no_decay) the data fix
    # tau to no better than 1e-6, and where LM's residual is above the fit's
    # LM is the one off the minimum
    y = np.maximum(n0 - np.cumsum([0] + drops), 0)
    t = start + spacing * np.arange(len(y))
    res = fit_exponential(CurveStub(t, y))
    pos = y > 0
    if pos.sum() < 2 or np.ptp(y[pos]) == 0:
        assert res.flags == ("no_decay",)      # no log-linear decay: no fit
        return
    ref = lm_exponential_fit(t, y)
    floor = 8 * np.finfo(float).eps * math.sqrt(ref.residual_norm * float(np.sum(y * y)))
    assert res.converged
    assert res.residual_norm <= ref.residual_norm * (1 + 1e-12) + floor
    if (ref.converged and "no_decay" not in res.flags
            and ref.residual_norm <= res.residual_norm + floor):
        assert res["tau"] == pytest.approx(ref["tau"], rel=1e-6)


def test_fit_exponential_uneven_times_fit_frame_by_frame():
    # unsorted, unevenly spaced, non-integer frames are runs of length one
    rng = np.random.default_rng(4)
    t = rng.uniform(0.0, 30.0, 40)
    y = exponential_model(t, 50.0, 9.0) * (1 + 0.03 * rng.standard_normal(40))
    res = fit_exponential(CurveStub(t, y))
    order = np.argsort(t)
    ref = lm_exponential_fit(t[order], y[order])
    assert res["tau"] == pytest.approx(ref["tau"], rel=1e-6)
    assert np.allclose(res.covariance, ref.covariance, rtol=1e-4)
    assert res.residual_norm <= ref.residual_norm * (1 + 1e-12)


# ----------------------------------------------------------- fit_sigmoid

def test_fit_sigmoid_round_trip_log_space():
    rng = np.random.default_rng(17)
    lam = np.linspace(252, 320, 16)
    k = 2 * math.log(9.0) / 10.0
    tau = sigmoid_model(lam, 5000.0, 280.0, k, 3.0)
    tau_noisy = tau * (1 + 0.04 * rng.standard_normal(len(lam)))
    res = fit_sigmoid(lam, tau_noisy, 0.04 * tau_noisy, fit_space="log")
    assert res.converged
    assert res.derived["center_wavelength"] == pytest.approx(280.0, abs=2.0)
    assert res.derived["width_10_90"] == pytest.approx(10.0, abs=2.0)
    assert res.derived["threshold_wavelength"] == pytest.approx(270.0, abs=3.0)
    # threshold photon energy lands at ~4.59 eV
    assert res.derived["threshold_photon_energy_ev"] == pytest.approx(4.59, abs=0.08)


def test_fit_sigmoid_inverse_space_unbiased_on_rate_logistic():
    # 1/tau = c * S(lambda) + floor is exactly logistic; inverse space
    # recovers the center with no reciprocal shift
    lam = np.linspace(255, 320, 14)
    k = 2 * math.log(9.0) / 10.0
    s = 1.0 / (1.0 + np.exp(k * (lam - 280.0)))
    tau = 1.0 / (0.025 * s + 1.25e-4)
    res = fit_sigmoid(lam, tau, fit_space="inverse")
    assert res.derived["center_wavelength"] == pytest.approx(280.0, abs=1e-6)
    assert res.derived["width_10_90"] == pytest.approx(10.0, abs=1e-6)


def test_fit_sigmoid_flat_data_degenerate():
    lam = np.linspace(255, 320, 10)
    res = fit_sigmoid(lam, np.full(10, 42.0))
    assert "degenerate" in res.flags
    assert not res.converged


def test_fit_sigmoid_one_sided_flagged():
    # no long-wavelength plateau in range: the center is poorly constrained
    lam = np.linspace(250, 278, 10)
    k = 2 * math.log(9.0) / 10.0
    tau = sigmoid_model(lam, 5000.0, 295.0, k, 3.0)
    res = fit_sigmoid(lam, tau, fit_space="log")
    assert (not res.converged) or ("poorly_constrained" in res.flags) \
        or res.errors["lambda0"] > 5.0


# ---------------------------------------------------------- fit_powerlaw

def test_fit_powerlaw_exact():
    d = np.array([75, 150, 300, 600, 1200.0]) * 1e-9
    tau = 2.3e-7 * d ** -1.3
    res = fit_powerlaw(d, tau)
    assert res.parameters["exponent"] == pytest.approx(-1.3, abs=1e-8)


def test_fit_powerlaw_fixed_exponent_residuals():
    rng = np.random.default_rng(30)
    d = np.array([75, 150, 300, 600, 1200.0]) * 1e-9
    tau = 2.3e-7 * d ** -1.3 * (1 + 0.05 * rng.standard_normal(5))
    free = fit_powerlaw(d, tau)
    r1 = fit_powerlaw(d, tau, fixed_exponent=-1.0)
    r2 = fit_powerlaw(d, tau, fixed_exponent=-2.0)
    assert free.residual_norm <= r1.residual_norm
    assert free.residual_norm <= r2.residual_norm


def test_fit_powerlaw_covariance_against_normal_equations():
    # slope/intercept covariance must equal inv(X^T W X) * sigma^2
    rng = np.random.default_rng(44)
    d = np.geomspace(5e-8, 2e-6, 8)
    tau = 1e-6 * d ** -1.3 * (1 + 0.08 * rng.standard_normal(8))
    res = fit_powerlaw(d, tau)
    x = np.log(d)
    design = np.column_stack([x, np.ones(8)])
    resid = np.log(tau) - design @ [res.parameters["exponent"],
                                    math.log(res.parameters["amplitude"])]
    sigma2 = float(resid @ resid) / (8 - 2)
    cov_oracle = np.linalg.inv(design.T @ design) * sigma2
    assert res.errors["exponent"] == pytest.approx(
        math.sqrt(cov_oracle[0, 0]), rel=1e-9)
    assert np.allclose(res.covariance, cov_oracle, rtol=1e-9)


def test_fit_powerlaw_two_points_exact_flagged():
    res = fit_powerlaw([1e-7, 2e-7], [5.0, 2.0])
    assert res.residual_norm == pytest.approx(0.0, abs=1e-20)
    assert "unreliable_covariance" in res.flags


def test_fit_powerlaw_domain_errors():
    with pytest.raises(ValueError):
        fit_powerlaw([1e-7, -2e-7], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_powerlaw([1e-7, 2e-7], [1.0, -2.0])
    with pytest.raises(DegenerateFitError):
        fit_powerlaw([1e-7], [1.0])


# ------------------------------------------------------ fit_charge_lattice

def lattice_trace(charges, delta_f, sigma, seed=0):
    charges = np.asarray(charges, dtype=float)
    rng = np.random.default_rng(seed)
    f = delta_f * charges
    if sigma > 0:
        f = np.maximum(f + sigma * rng.standard_normal(len(f)), 0.0)
    err = np.full(len(f), sigma if sigma > 0 else 1.0)
    return FrequencyTrace(exposures=np.arange(len(f), dtype=float),
                          frequencies=f, errors=err)


def test_lattice_noiseless_exact():
    charges = np.arange(69, 57, -1)
    trace = lattice_trace(charges, 76.4, 0.0)
    res = fit_charge_lattice(trace, (55.0, 250.0))
    assert res.parameters["delta_f"] == pytest.approx(76.4, rel=1e-9)
    assert res.derived["charge_sequence"] == tuple(int(c) for c in charges)


def test_lattice_subharmonic_guard():
    # the objective never worsens at delta_f / 2, so the reported delta_f
    # must be the largest within-tolerance candidate
    charges = np.arange(31, 4, -1)
    trace = lattice_trace(charges, 100.0, 0.0)
    f = trace.frequencies
    w = np.ones(len(f))
    for delta in (100.0, 77.3, 61.1):
        assert _lattice_objective(np.array([delta / 2]), f, w)[0] <= \
            _lattice_objective(np.array([delta]), f, w)[0] + 1e-9
    res = fit_charge_lattice(trace, (20.0, 260.0))
    assert res.parameters["delta_f"] == pytest.approx(100.0, rel=1e-9)


def test_lattice_monte_carlo_50_points():
    # 50-point trace at sigma = 0.15 delta_f: delta_f within 2% and charges
    # exact in >= 95% of 100 seeds (the per-point rounding-flip bound puts
    # the expected rate at ~95.8%)
    ok = 0
    for seed in range(100):
        charges = np.concatenate([np.arange(31, 0, -1), np.zeros(19)])
        trace = lattice_trace(charges, 76.4, 0.15 * 76.4, seed=seed + 100)
        try:
            res = fit_charge_lattice(trace, (55.0, 250.0))
        except LatticeNotDetectedError:
            continue
        if (abs(res.parameters["delta_f"] - 76.4) / 76.4 <= 0.02
                and res.derived["charge_sequence"] == tuple(int(c) for c in charges)):
            ok += 1
    assert ok >= 95


def test_lattice_scale_equivariance():
    charges = np.arange(25, 3, -1)
    trace = lattice_trace(charges, 76.4, 8.0, seed=5)
    res1 = fit_charge_lattice(trace, (55.0, 250.0))
    c = 3.7
    scaled = FrequencyTrace(exposures=trace.exposures,
                            frequencies=c * trace.frequencies,
                            errors=c * trace.errors)
    res2 = fit_charge_lattice(scaled, (55.0 * c, 250.0 * c))
    assert res2.parameters["delta_f"] == pytest.approx(
        c * res1.parameters["delta_f"], rel=1e-9)
    assert res2.derived["charge_sequence"] == res1.derived["charge_sequence"]


def test_lattice_white_noise_not_detected():
    rng = np.random.default_rng(3)
    f = rng.uniform(500.0, 2500.0, 30)
    trace = FrequencyTrace(exposures=np.arange(30.0), frequencies=f,
                           errors=np.full(30, 10.0))
    with pytest.raises(LatticeNotDetectedError):
        fit_charge_lattice(trace, (55.0, 250.0))


def test_lattice_insufficient_data():
    trace = lattice_trace([5, 4, 3], 76.4, 0.0)
    with pytest.raises(DegenerateFitError):
        fit_charge_lattice(trace, (55.0, 250.0))


def test_lattice_wide_band_exact():
    # (2, 250) Hz under 2.4 kHz: sampling it finely enough to resolve every
    # piece (step 2^2 / (4 * 2368) Hz) would take about 595,000 points.  The
    # scan returns the closed-form least-squares spacing of the true charges
    # and counts every breakpoint in the band.
    charges = np.arange(31, 0, -1)
    for sigma in (0.0, 0.5):
        trace = lattice_trace(charges, 76.4, sigma, seed=1)
        f, w = trace.frequencies, 1.0 / trace.errors**2
        exact = float(np.sum(w * f * charges) / np.sum(w * charges**2))
        res = fit_charge_lattice(trace, (2.0, 250.0))
        assert res.parameters["delta_f"] == pytest.approx(exact, rel=1e-9)
        assert res.derived["charge_sequence"] == tuple(int(c) for c in charges)
        assert res.iterations == int(np.sum(np.ceil(np.abs(f) / 2.0 - 0.5)
                                            - np.floor(np.abs(f) / 250.0 + 0.5)))


def test_lattice_neighbour_minimum_rule():
    # a narrow neighbour minimum just above the true spacing lies within the
    # chi-square tolerance and rounds one charge differently; the largest
    # tolerated minimum alone would report it
    charges = np.arange(30, 0, -1)
    trace = lattice_trace(charges, 76.4, 0.15 * 76.4, seed=6)
    f, w = trace.frequencies, 1.0 / trace.errors**2
    deltas, _ = _lattice_minima(f, w, 55.0, 250.0)
    obj = _lattice_objective(deltas, f, w)
    tol = obj.min() * (1.0 + 2.0 / math.sqrt(len(f) - 1)) + 1e-12 * np.sum(w * f * f)
    largest = deltas[obj <= tol].max()
    flipped = np.round(f / largest) != charges
    assert flipped.sum() == 1
    res = fit_charge_lattice(trace, (55.0, 250.0))
    assert res.derived["charge_sequence"] == tuple(int(c) for c in charges)
    assert res.parameters["delta_f"] < largest
    assert abs(res.parameters["delta_f"] - 76.4) / 76.4 <= 0.02


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(delta_f=st.floats(10.0, 500.0),
       charges=st.lists(st.integers(0, 60), min_size=10, max_size=60)
       .filter(lambda c: max(c) > 0),
       noise=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
       seed=st.integers(0, 2**32 - 1))
# five exposures, two neighbour steps from the largest tolerated minimum
# to the truth
@example(delta_f=10.0, charges=[0, 1, 38, 1, 1], noise=0.046875, seed=1)
def test_lattice_property_minimum(delta_f, charges, noise, seed):
    # traces of at least 10 exposures: at 5 the (1 + 2/sqrt(dof)) tolerance
    # is twice the minimum and can admit another lattice that fits worse
    # than the truth (charges 0, 25, 0, 1, 6 at 10 Hz read as 0, 21, 0, 1, 5
    # at 11.9 Hz).  The band keeps the subharmonic delta_f / 2 and the
    # harmonic 2 delta_f out.  The fit is no worse than the truth, and the
    # scanned minima hold one at or below a dense grid.
    trace = lattice_trace(charges, delta_f, noise * delta_f, seed=seed)
    f, w = trace.frequencies, 1.0 / trace.errors**2
    lo, hi = 0.55 * delta_f, 1.9 * delta_f
    slack = 1e-9 * float(np.sum(w * f * f))
    res = fit_charge_lattice(trace, (lo, hi))
    assert res.residual_norm <= _lattice_objective(np.array([delta_f]), f, w)[0] + slack
    deltas, _ = _lattice_minima(f, w, lo, hi)
    grid = _lattice_objective(np.linspace(lo, hi, 20_001), f, w)
    assert _lattice_objective(deltas, f, w).min() <= grid.min() + slack
