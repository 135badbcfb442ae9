"""Nonlinear least squares and the four measurement-model fits."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndtrap import ensemble, fitters
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


def central_jacobian(model, x, theta, rel=1e-6):
    """Central differences of model(x, *theta) wrt theta, steps rel max(|theta|, 1)."""
    h = rel * np.maximum(np.abs(theta), 1.0)
    ctr = np.empty((len(x), len(theta)))
    for j in range(len(theta)):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h[j]
        tm[j] -= h[j]
        ctr[:, j] = (np.asarray(model(x, *tp)) - np.asarray(model(x, *tm))) / (2 * h[j])
    return ctr


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
            ctr = central_jacobian(model, x, theta)
            scale = np.max(np.abs(ctr))
            assert np.max(np.abs(fwd - ctr)) <= 1e-5 * scale


def sigmoid_fit_functions(fit_space):
    """The (model, jacobian) pair fit_sigmoid hands nls_fit in one fit space."""
    seen = []

    def spy(model, *args, jacobian=None, **kwargs):
        seen.append((model, jacobian))
        return nls_fit(model, *args, jacobian=jacobian, **kwargs)
    lam = np.linspace(255.0, 320.0, 14)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitters, "nls_fit", spy)
        fit_sigmoid(lam, 1.0 / sigmoid_model(lam, 0.02, 280.0, -0.44, 1e-4), fit_space=fit_space)
    assert len(seen) == 1 and seen[0][1] is not None
    return seen[0]


@pytest.mark.parametrize("fit_space", fitters.FIT_SPACES)
def test_sigmoid_jacobian_vs_central(fit_space):
    # the analytic Jacobian fit_sigmoid passes (sigmoid_jacobian, and J / m
    # in log space) against central differences of the model it fits,
    # including slopes that push -k (lambda - lambda0) past the +-700 clip
    model, jacobian = sigmoid_fit_functions(fit_space)
    lam = np.linspace(250.0, 330.0, 41)
    rng = np.random.default_rng(5)
    cases = [(0.02, 280.0, -0.44, 1e-4), (5000.0, 280.0, 0.44, 3.0), (2.0, 290.0, -0.05, 0.3),
             (1.0, 285.0, 17.5, 0.5), (1.0, 292.0, -30.0, 0.5), (1.0, 281.0, 60.0, 0.5)]
    rel = 1e-8   # steps short enough that steep slopes keep their curvature error small
    for theta0 in cases:
        for _ in range(3):
            theta = np.array(theta0) * (1 + 0.01 * rng.standard_normal(4))
            jac = np.asarray(jacobian(lam, *theta))
            assert jac.shape == (len(lam), 4) and np.isfinite(jac).all()
            ctr = central_jacobian(model, lam, theta, rel)
            # central steps move -k (lambda - lambda0) by about rel (|k| |lambda0| + |d|):
            # rows that close to the clip are left out, rows past it must read 0
            u = -theta[2] * (lam - theta[1])
            step = rel * (abs(theta[2]) * abs(theta[1]) + np.abs(lam - theta[1]))
            near = np.abs(np.abs(u) - 700.0) <= 2.0 * step
            clipped = (np.abs(u) > 700.0) & ~near
            if abs(theta0[2]) > 10:
                assert clipped.any() and not clipped.all()
            assert (jac[clipped, 1:3] == 0.0).all()
            # each entry within 1e-6, plus the central differences' rounding eps |model| / step
            rounding = 8 * np.finfo(float).eps * np.max(np.abs(model(lam, *theta))) / (
                rel * np.maximum(np.abs(theta), 1.0))
            assert (np.abs(jac - ctr)[~near] <= (1e-6 * np.abs(ctr) + rounding)[~near]).all(), \
                theta


def test_log_space_jacobian_not_finite_where_the_model_is_not_positive():
    # log m is not defined where m <= 0: there the analytic rows are not
    # finite, as forward differences of the model's -inf are not
    model, jacobian = sigmoid_fit_functions("log")
    lam = np.linspace(250.0, 330.0, 41)
    theta = np.array([1.0, 290.0, 0.3, -0.5])
    m = sigmoid_model(lam, *theta)
    assert (m > 0).any() and (m <= 0).any()
    jac = np.asarray(jacobian(lam, *theta))
    assert not np.isfinite(jac[m <= 0]).any(axis=1).any()
    assert np.isfinite(jac[m > 0]).all()
    with np.errstate(invalid="ignore"):
        fwd = _fd_jacobian(model, lam, theta)
    assert not np.isfinite(fwd[m <= 0]).all(axis=1).any()


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


def least_squares(curve):
    """fit_exponential's least-squares path on any curve, count curves too."""
    scan = fitters._curve_runs(curve, curve.uv_on_time)
    return fitters._least_squares_exponential(scan, curve.uv_on_time)


def likelihood_tau(t, y):
    """Brute-force maximum of the censored-exponential likelihood of counts y
    at evenly spaced times t, given y[0]: frame by frame, each particle lost
    in an interval has probability 1 - r and each one kept r, with
    r = exp(-h/tau).  log tau is scanned on a grid, then refined by golden
    section.  Returns that tau and the error 1/sqrt(-d^2 log L/dtau^2) there."""
    t, y = np.asarray(t, dtype=float), np.asarray(y, dtype=float)
    h = (t[-1] - t[0]) / (len(t) - 1)
    lost, kept = y[:-1] - y[1:], y[1:]

    def loglik(tau):
        return float(np.sum(lost * np.log(-np.expm1(-h / tau)) - kept * h / tau))
    grid = np.linspace(math.log(h) - 12.0, math.log(h * len(t)) + 12.0, 401)
    best = int(np.argmax([loglik(math.exp(u)) for u in grid]))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-12:
        a, b = hi - golden * (hi - lo), lo + golden * (hi - lo)
        if loglik(math.exp(a)) < loglik(math.exp(b)):
            lo = a
        else:
            hi = b
    tau = math.exp(0.5 * (lo + hi))
    step = 1e-4 * tau
    curvature = (loglik(tau + step) - 2.0 * loglik(tau) + loglik(tau - step)) / step**2
    return tau, 1.0 / math.sqrt(-curvature)


def post_uv(curve):
    keep = curve.times >= curve.uv_on_time
    return curve.times[keep] - curve.uv_on_time, curve.n_alive[keep]


def sweep_curves(monkeypatch):
    """The survival curve of every point of the fig7 and fig8 sweeps at their
    default seeds, as the sweeps fit them."""
    curves = []

    def recording(curve):
        curves.append(curve)
        return fit_exponential(curve)
    with monkeypatch.context() as patch:
        patch.setattr(ensemble, "fit_exponential", recording)
        for name in ("fig7_sweep", "fig8_sweep"):
            run_sweep_scenario(load_bundled_scenario(name))
    assert len(curves) == 14 + 5
    return curves


def test_fit_exponential_matches_lm_on_figure_curves(monkeypatch):
    # every survival curve reproduce fits for fig5, fig7 and fig8 at the
    # default seeds, through the least-squares path: the run-length fit is
    # the least-squares minimum LM approaches, so tau agrees and the residual
    # is no larger
    curves = [run_survival_scenario(load_bundled_scenario("fig5_decay"))]
    curves += sweep_curves(monkeypatch)
    for curve in curves:
        res = least_squares(curve)
        ref = lm_exponential_fit(*post_uv(curve))
        assert res.converged and ref.converged and not res.flags
        assert res["tau"] == pytest.approx(ref["tau"], rel=1e-6)
        assert res["n0"] == pytest.approx(ref["n0"], rel=1e-6)
        assert res.residual_norm <= ref.residual_norm * (1 + 1e-12)
        # least-squares n0 error from the analytic J^T J, as LM's from its
        # finite-difference one
        assert res.errors["n0"] == pytest.approx(ref.errors["n0"], rel=1e-4)


def test_run_sums_match_polyfit_and_frame_residual(monkeypatch):
    # on the fig7 and fig8 sweep curves the least-squares path's per-run sums
    # give what the frames give: the log-linear start is np.polyfit's slope,
    # tau is where Newton lands from np.polyfit's own start, the residual is
    # the frame-wise sum, and so is each of the six decay sums, at, below and
    # above the fitted tau
    run_slope = fitters._log_linear_slope
    for curve in sweep_curves(monkeypatch):
        t, y = post_uv(curve)
        pos = y > 0
        slope = np.polyfit(t[pos], np.log(y[pos]), 1)[0]
        seen, fitted_runs = [], []

        def recorded_slope(runs):
            fitted_runs.append(runs)
            seen.append(run_slope(runs))
            return seen[-1]
        with monkeypatch.context() as patch:
            patch.setattr(fitters, "_log_linear_slope", recorded_slope)
            res = least_squares(curve)
            patch.setattr(fitters, "_log_linear_slope", lambda runs: slope)
            ref = least_squares(curve)
        assert seen == [pytest.approx(slope, rel=1e-12)]
        assert res["tau"] == pytest.approx(ref["tau"], rel=1e-12)
        frames = y - exponential_model(t, res["n0"], res["tau"])
        assert res.residual_norm == pytest.approx(float(np.sum(frames * frames)), rel=1e-9)
        assert res.residual_norm >= 0.0
        since_first = t - t[0]      # the runs measure time from the first frame
        for tau in res["tau"] * np.array([0.1, 1.0, 10.0]):
            m, s = np.exp(-since_first / tau), since_first / tau
            want = [np.sum(y * m), np.sum(y * m * s), np.sum(y * m * s * s),
                    np.sum(m * m), np.sum(m * m * s), np.sum(m * m * s * s)]
            got = fitters._decay_sums(fitted_runs[0], tau)
            assert got == pytest.approx(want, rel=1e-12)


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
    # integer survival curves on an even grid, through the least-squares path:
    # the fit's residual is never above LM's, and tau agrees wherever LM
    # converged to the same minimum.  Each residual r_i is known to about eps
    # |y_i| only, so near-exact fits (three points on one slope) also get the
    # rounding floor 8 eps sqrt(ssr sum y^2) of the sum.  LM's convergence test
    # (relative step and drop below 1e-10) can stop short where the objective is
    # flat in tau: past NO_DECAY_SPAN_FACTOR spans (flagged no_decay) the data
    # fix tau to no better than 1e-6, and where LM's residual is above the fit's
    # LM is the one off the minimum
    y = np.maximum(n0 - np.cumsum([0] + drops), 0)
    t = start + spacing * np.arange(len(y))
    res = least_squares(CurveStub(t, y))
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


def test_time_steps_match_one_diff(monkeypatch):
    # blocks of 5 steps: rows that end inside, on and one past a block edge,
    # repeated, decreasing and NaN times, fewer than two times, and one zero
    # step alone in the first or in the last, partial block (steps are
    # counted only when the smallest is not positive)
    monkeypatch.setattr(fitters, "STEP_BLOCK", 5)
    rng = np.random.default_rng(9)
    cases = [np.arange(n, dtype=float) * 0.5 for n in (0, 1, 2, 5, 6, 7, 11, 23)]
    cases += [np.repeat(np.arange(6.0), 3), rng.uniform(0.0, 1.0, 17),
              np.r_[np.arange(8.0), np.nan, np.arange(8.0, 14.0)],
              np.r_[0.0, np.arange(13.0)], np.r_[np.arange(13.0), 12.0]]
    for t in cases:
        dt = np.diff(t)
        want = (dt.min(), dt.max(), np.count_nonzero(dt)) if len(dt) else (0.0, 0.0, 0)
        got = fitters._time_steps(t)
        assert np.array_equal(got, want, equal_nan=True), t


def fit_bits(curve, fit=fit_exponential):
    """A fit's result field by field, floats as their bytes, or the
    DegenerateFitError it raised."""
    def bits(value):
        if isinstance(value, dict):
            return {k: bits(v) for k, v in value.items()}
        if isinstance(value, (float, np.ndarray)):
            return np.asarray(value, dtype=float).tobytes()
        return value
    try:
        res = fit(curve)
    except DegenerateFitError as exc:
        return ("DegenerateFitError", str(exc))
    return {f.name: bits(getattr(res, f.name)) for f in dataclasses.fields(res)}


def frame_units(kind, k, frames):
    """A time in frame periods: on frame k, between frames k and k + 1, or
    past the last frame."""
    return {"on": float(k), "between": k + 0.375, "after": frames + 1.5}[kind]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(frame_rate=st.sampled_from([0.5, 2.0, 10.0, 100.0]),
       frames=st.integers(1, 400),
       part=st.sampled_from([0.0, 0.25]),
       deaths=st.lists(st.tuples(st.sampled_from(["on", "between", "after", "inf"]),
                                 st.integers(1, 400)), min_size=1, max_size=60),
       uv=st.tuples(st.sampled_from(["on", "between", "after"]), st.integers(0, 400)))
# 0.29 s at 100 Hz: 28.999999999999996 periods, a death on its last frame
@example(frame_rate=100.0, frames=29, part=0.0, deaths=[("on", 29), ("between", 3)],
         uv=("on", 0))
@example(frame_rate=2.0, frames=300, part=0.0,
         deaths=[("on", 300), ("after", 0), ("inf", 0), ("between", 299)], uv=("on", 299))
def test_carried_runs_fit_as_the_frame_scan(frame_rate, frames, part, deaths, uv):
    # a curve from _survival_curve carries its runs to fit_exponential; its
    # fit, or the DegenerateFitError it raises, is bit for bit the fit of a
    # plain copy that takes the frame scan, and the carried runs and steps
    # are the ones that scan finds
    duration = (frames + part) / frame_rate
    kind, k = uv
    uv_on_time = frame_units(kind, min(k, frames), frames) / frame_rate
    times = [math.inf if kind == "inf" else frame_units(kind, k, frames) / frame_rate
             for kind, k in deaths]
    curve = ensemble._survival_curve(np.array(times), duration, frame_rate, uv_on_time)
    plain = ensemble.SurvivalCurve(times=np.array(curve.times), n_alive=curve.n_alive.copy(),
                                   n0=curve.n0, uv_on_time=curve.uv_on_time)
    assert curve.runs is not None and plain.runs is None
    assert fit_bits(curve) == fit_bits(plain)
    starts, values, steps = curve.runs
    y = curve.n_alive
    assert starts.tolist() == np.flatnonzero(np.r_[True, y[1:] != y[:-1]]).tolist()
    assert values.tolist() == y[starts].tolist()
    assert np.array_equal(steps, fitters._time_steps(plain.times))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(frame_rate=st.sampled_from([0.5, 2.0, 10.0, 100.0]),
       frames=st.integers(3, 300),
       deaths=st.lists(st.tuples(st.sampled_from(["on", "between", "after"]),
                                 st.integers(0, 300)), min_size=1, max_size=80),
       uv=st.tuples(st.sampled_from(["on", "between"]), st.integers(0, 300)))
# every particle gone in the first interval after UV on: no lifetime resolved
@example(frame_rate=10.0, frames=20, deaths=[("between", 0), ("on", 0)], uv=("on", 0))
def test_fit_exponential_is_the_likelihood_maximum(frame_rate, frames, deaths, uv):
    # a simulated survival curve takes the closed form: the lifetime a
    # brute-force maximization of the censored-exponential likelihood finds,
    # the error from that likelihood's curvature, and n0 the first count
    # after UV on carried back to it.  UV turns on on a frame or between
    # frames; deaths fall on frames, between them and past the last one
    kind, k = uv
    uv_on_time = frame_units(kind, k % (frames - 1), frames) / frame_rate
    times = [frame_units(kind, 1 + k % frames, frames) / frame_rate for kind, k in deaths]
    curve = ensemble._survival_curve(np.array(times), frames / frame_rate, frame_rate,
                                     uv_on_time)
    t, y = post_uv(curve)
    if len(t) < 3:
        with pytest.raises(DegenerateFitError, match="3 distinct times"):
            fit_exponential(curve)
        return
    if y[0] == y[-1]:                       # no deaths: today's no_decay result
        assert fit_bits(curve) == fit_bits(curve, least_squares)
        assert fit_exponential(curve).flags == ("no_decay",)
        return
    if not y[1:].any():                     # the likelihood rises as tau -> 0
        with pytest.raises(DegenerateFitError, match="first frame interval"):
            fit_exponential(curve)
        return
    res = fit_exponential(curve)
    tau, err = likelihood_tau(t, y)
    assert res.iterations == 0 and res.converged
    assert res["tau"] == pytest.approx(tau, rel=1e-6)
    assert res.errors["tau"] == pytest.approx(err, rel=1e-4)
    assert res["n0"] == pytest.approx(y[0] * math.exp(t[0] / res["tau"]), rel=1e-12)
    assert res.residual_norm >= 0.0 and res.dof == len(t) - 2


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drops=st.lists(st.integers(0, 6), min_size=3, max_size=60),
       spoil=st.sampled_from(["non_integer", "rising", "negative", "uneven",
                              "one_frame_runs", "unsorted"]),
       at=st.integers(0, 10**6), start=st.sampled_from([0.0, 0.3]))
def test_curves_off_the_count_path_fit_by_least_squares(drops, spoil, at, start):
    # falling whole counts on one even grid take the closed form; spoil one
    # of those and the fit is the least-squares path's, bit for bit:
    # non-integer, rising or negative counts, one uneven step, a new count
    # at every frame over an uneven grid (runs of one frame), unsorted times
    y = 300.0 - np.cumsum([0] + drops)
    t = start + 0.5 * np.arange(len(y))
    i = 1 + at % (len(y) - 1)
    if spoil == "non_integer":
        y[i] += 0.5
    elif spoil == "rising":
        y[i] = y[i - 1] + 1.0
    elif spoil == "negative":
        y -= y[-1] + 1.0
    elif spoil in ("uneven", "one_frame_runs"):
        t[i:] += 0.1
        if spoil == "one_frame_runs":
            y = 300.0 - 2.0 * np.arange(len(y))
    else:
        t[[i - 1, i]] = t[[i, i - 1]]
    curve = CurveStub(t, y)
    assert fit_bits(curve) == fit_bits(curve, least_squares)


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


def forward_difference_fit(lam, tau, err, fit_space):
    """fit_sigmoid with nls_fit's forward differences in place of the analytic
    Jacobian: the same start, model, weights and loop."""
    original = fitters.nls_fit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitters, "nls_fit", lambda *args, jacobian=None, **kwargs:
                   original(*args, **kwargs))
        return fit_sigmoid(lam, tau, err, fit_space=fit_space)


def determined(res):
    """A converged, unflagged fit whose covariance has a finite, non-negative diagonal."""
    var = np.diag(res.covariance)
    return res.converged and not res.flags and bool(np.all(np.isfinite(var) & (var >= 0)))


def assert_same_sigmoid_fit(res, ref):
    # both reach one objective value; where either fit is determined by the
    # data, they also agree in parameters, convergence and flags
    assert res.residual_norm == pytest.approx(ref.residual_norm, rel=1e-6)
    if determined(res) or determined(ref):
        assert res.converged == ref.converged and res.flags == ref.flags
        for name in res.param_names:
            assert res[name] == pytest.approx(ref[name], rel=1e-6), name


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(fit_space=st.sampled_from(fitters.FIT_SPACES), n=st.integers(8, 20),
       lo=st.floats(240.0, 260.0), hi=st.floats(300.0, 330.0), center=st.floats(0.2, 0.8),
       width=st.floats(4.0, 25.0), rising=st.booleans(), ratio=st.floats(10.0, 1000.0),
       scale=st.sampled_from([1e-4, 1.0, 1e3]), noise=st.sampled_from([0.0, 0.01, 0.05]),
       seed=st.integers(0, 2**16))
# a 4 nm step between grid points 8.6-10.4 nm apart: the data do not place it, and
# the two fits stop at different lambda0 and k on one flat valley of the objective
@example(fit_space="log", n=8, lo=240.0, hi=313.0, center=0.21875, width=4.0, rising=False,
         ratio=10.0, scale=1e-4, noise=0.01, seed=6)
@example(fit_space="log", n=8, lo=240.0, hi=300.0, center=0.25, width=4.0, rising=False,
         ratio=10.0, scale=1e-4, noise=0.01, seed=1)
def test_fit_sigmoid_analytic_jacobian_agrees_with_forward_differences(
        fit_space, n, lo, hi, center, width, rising, ratio, scale, noise, seed):
    # exact or noisy four-parameter sigmoid data in the fitted quantity (the
    # rate 1/tau in inverse space): the fit on the analytic Jacobian lands
    # where forward differences do from the same start, within 1e-6, with the
    # same converged value and flags
    lam = np.linspace(lo, hi, n)
    k = (1.0 if rising else -1.0) * 2.0 * math.log(9.0) / width
    y = scale * sigmoid_model(lam, ratio, lo + center * (hi - lo), k, 1.0)
    y *= np.exp(noise * np.random.default_rng(seed).standard_normal(n))
    tau = 1.0 / y if fit_space == "inverse" else y
    err = noise * tau if noise else None
    assert_same_sigmoid_fit(fit_sigmoid(lam, tau, err, fit_space=fit_space),
                            forward_difference_fit(lam, tau, err, fit_space))


def test_fig7_sweep_fits_agree_with_forward_differences():
    # the closing inverse-space fit of the fig7 sweep at scenario seeds 1-20
    base = load_bundled_scenario("fig7_sweep")
    for seed in range(1, 21):
        good = [p for p in run_sweep_scenario(base.with_seed(seed)) if not p.flags]
        args = ([p.x for p in good], [p.lifetime for p in good], [p.lifetime_error for p in good])
        assert_same_sigmoid_fit(fit_sigmoid(*args, fit_space="inverse"),
                                forward_difference_fit(*args, "inverse"))


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
