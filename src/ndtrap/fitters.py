"""Weighted nonlinear least squares and the four measurement-model fits:
exponential survival decay, wavelength sigmoid, size power law, and the
discrete charge lattice f = delta_f * N_e.

The core solver is a damped Gauss-Newton (Levenberg-Marquardt) on the
model's Jacobian when the caller gives one, forward finite differences
otherwise; the sigmoid gives its analytic one (``sigmoid_jacobian``).  Models
that admit closed forms use them directly: the power law, the
piecewise-quadratic lattice objective, and the exponential.  A survival count
curve is fit by the censored-exponential likelihood, whose maximum is closed
form in a few sums over the curve's runs; other exponential data by least
squares, which reduce to a 1-D profile over log tau built from per-run
geometric sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import EV_NM
from .signal import FrequencyTrace

MAX_ITERATIONS = 200
CONVERGENCE_TOL = 1e-10
_LM_DAMPING_INIT = 1e-3
_FD_STEP = math.sqrt(np.finfo(float).eps)


class FitError(ValueError):
    """A fit could not be performed on the given data."""


class DegenerateFitError(FitError):
    """Too little or degenerate data for the requested model."""


class LatticeNotDetectedError(FitError):
    """No frequency lattice beats the no-lattice baseline."""


@dataclass
class FitResult:
    """Parameters, uncertainties and diagnostics of one model fit."""

    param_names: tuple
    parameters: dict
    errors: dict
    covariance: np.ndarray
    # weighted sum of squared residuals; the lattice fit's objective; and for an
    # exponential fit by likelihood (survival counts), the binomial deviance
    residual_norm: float
    iterations: int
    converged: bool
    dof: int
    flags: tuple = ()
    derived: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> float:
        return self.parameters[name]


def _fd_jacobian(model: Callable, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Forward finite-difference Jacobian of model(x, *theta) wrt theta."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f0 = np.asarray(model(x, *theta), dtype=float)
        jac = np.empty((len(f0), len(theta)))
        for j, tj in enumerate(theta):
            h = _FD_STEP * max(abs(tj), 1.0)
            tp = theta.copy()
            tp[j] = tj + h
            jac[:, j] = (np.asarray(model(x, *tp), dtype=float) - f0) / h
    return jac


# non-finite intermediates are tested for, not warned about: a trial step that
# overflows is rejected, a Jacobian without a finite diagonal stops the loop,
# and a non-finite final Jacobian raises DegenerateFitError
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def nls_fit(model: Callable, x, y, p0: Sequence[float],
            param_names: Optional[Sequence[str]] = None,
            weights=None, max_iterations: int = MAX_ITERATIONS,
            tolerance: float = CONVERGENCE_TOL,
            jacobian: Optional[Callable] = None) -> FitResult:
    """Damped Gauss-Newton minimization of sum w_i (y_i - model(x_i; theta))^2.

    Damping starts at 1e-3, grows x10 on a rejected step and shrinks /10 on
    an accepted one.  Converged when the relative step size and the relative
    residual decrease both fall below ``tolerance``.  Non-convergence returns
    the best parameters found with ``converged=False``; structurally
    degenerate problems raise DegenerateFitError.

    ``jacobian``, called like ``model``, returns the (n, p) derivatives of
    the model wrt theta; without it they are forward finite differences
    (``_fd_jacobian``), p extra model calls per iteration.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.array(p0, dtype=float)
    n, p = len(y), len(theta)
    if param_names is None:
        param_names = tuple(f"p{i}" for i in range(p))
    param_names = tuple(param_names)
    if len(param_names) != p:
        raise ValueError("param_names length must match p0")
    if n < p:
        raise DegenerateFitError(f"degenerate fit: {n} points for {p} parameters")
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=float)
        if len(w) != n:
            raise ValueError("weights length must match data")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
    sw = np.sqrt(w)

    def jac_of(t):
        if jacobian is None:
            return _fd_jacobian(model, x, t)
        return np.asarray(jacobian(x, *t), dtype=float)

    def ssr_of(t):
        r = sw * (y - np.asarray(model(x, *t), dtype=float))
        return r, float(r @ r)

    r, ssr = ssr_of(theta)
    lam = _LM_DAMPING_INIT
    converged = False
    flags = []
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        jac = sw[:, None] * jac_of(theta)
        a = jac.T @ jac
        g = jac.T @ r
        diag = a.diagonal()
        if not (diag > 0).all():
            if not (diag > 0).any():      # all zero, or none finite
                flags.append("singular_normal_equations")
                break
            diag = diag.copy()
            diag[diag <= 0] = diag[diag > 0].min()
        accepted = False
        while lam < 1e14:
            damped = a.copy()
            damped.flat[::p + 1] += lam * diag
            try:
                delta = np.linalg.solve(damped, g)
            except np.linalg.LinAlgError:
                flags.append("singular_normal_equations")
                delta = np.linalg.lstsq(damped, g, rcond=None)[0]
            trial = theta + delta
            r_new, ssr_new = ssr_of(trial)
            if math.isfinite(ssr_new) and ssr_new <= ssr:
                rel_drop = (ssr - ssr_new) / ssr if ssr > 0 else 0.0
                # every |delta_i| / |theta_i| below tolerance: false on a NaN, as its max is
                converged = rel_drop < tolerance and all(
                    abs(d) / (abs(t) + 1e-300) < tolerance
                    for d, t in zip(delta.tolist(), theta.tolist()))
                theta, r, ssr = trial, r_new, ssr_new
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            flags.append("no_downhill_step")
            break
        if converged:
            break

    jac = sw[:, None] * jac_of(theta)
    if not np.all(np.isfinite(jac)):
        raise DegenerateFitError("the model's Jacobian is not finite at the fitted parameters")
    a = jac.T @ jac
    dof = n - p
    if dof > 0 and ssr >= 0:
        sigma2 = ssr / dof
    else:
        sigma2 = float("nan")
        flags.append("zero_dof")
    try:
        cov_unit = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        cov_unit = np.linalg.pinv(a)
        flags.append("singular_covariance")
    cov = cov_unit * sigma2 if math.isfinite(sigma2) else np.zeros_like(cov_unit)
    err = {name: float(math.sqrt(max(cov[i, i], 0.0))) if math.isfinite(sigma2) else 0.0
           for i, name in enumerate(param_names)}
    return FitResult(param_names=param_names,
                     parameters={name: float(theta[i]) for i, name in enumerate(param_names)},
                     errors=err, covariance=cov, residual_norm=ssr,
                     iterations=iterations, converged=converged, dof=dof,
                     flags=tuple(dict.fromkeys(flags)))


def confidence_band(result: FitResult, model: Callable, xs) -> np.ndarray:
    """1 sigma envelope of the fitted curve from the parameter covariance."""
    xs = np.asarray(xs, dtype=float)
    theta = np.array([result.parameters[k] for k in result.param_names])
    grad = _fd_jacobian(model, xs, theta)
    var = np.einsum("ij,jk,ik->i", grad, result.covariance, grad)
    return np.sqrt(np.maximum(var, 0.0))


# ---------------------------------------------------------------------------
# exponential survival decay N(t) = N0 exp(-t / tau)


def exponential_model(t, n0, tau):
    return n0 * np.exp(-np.asarray(t, dtype=float) / tau)


NO_DECAY_SPAN_FACTOR = 50.0  # tau beyond this many data spans counts as flat
EVEN_GRID_TOLERANCE = 1e-9   # relative spread of time steps still read as one grid
TAU_SEARCH_SPANS = 1e6       # tau is sought within [span / this, span * this]
LOG_TAU_TOLERANCE = 1e-12    # Newton stops once log tau moves less than this
STEP_BLOCK = 8_192           # time steps differenced at once by the exponential fit
_POWERS = np.array([[-1.0], [-2.0]])   # exp(-t/tau) and its square, one row each


def _geometric_moments(xs: tuple, lengths: np.ndarray):
    """Per rate x of ``xs`` (rows) and per run (columns), the sums over k < L of
    r^k, k r^k and k^2 r^k with r = exp(-x): three (len(xs), runs) arrays.

    From (1 - r) S1 = T - (L-1) r^L and (1 - r) S2 = 2 S1 - T - (L-1)^2 r^L,
    where T = sum_{0<k<L} r^k.  T and 1 - r come from expm1, so slow decays
    (x L << 1) keep their precision: the absolute error of x S1 and x^2 S2
    stays near eps L.
    """
    neg_x = -np.array(xs, dtype=float)[:, None]
    one_minus_r = np.array([-math.expm1(-v) for v in xs])[:, None]
    r = np.array([math.exp(-v) for v in xs])[:, None]
    m = lengths - 1.0
    r_len = np.exp(neg_x * lengths)
    tail = r * -np.expm1(neg_x * m) / one_minus_r
    s1 = (tail - m * r_len) / one_minus_r
    s2 = (2.0 * s1 - tail - m * m * r_len) / one_minus_r
    return 1.0 + tail, s1, s2


def _decay_sums(runs, tau: float) -> tuple:
    """Sums over every frame of y m, y m s, y m s^2, m^2, m^2 s and m^2 s^2,
    with m = exp(-t/tau) and s = t/tau, from per-run closed forms.

    ``runs`` is (start times, spacing, lengths, values): a run holds the
    frames start + k * spacing, k < length, all with one value y.  The m and
    m^2 sums are the two rows of one pass.
    """
    starts, spacing, lengths, values = runs
    sig = starts / tau
    xi = spacing / tau
    s0, s1, s2 = _geometric_moments((xi, 2.0 * xi), lengths)
    e = np.exp(_POWERS * sig)
    e[0] *= values
    sums = ((e * s0).sum(axis=-1), (e * (sig * s0 + xi * s1)).sum(axis=-1),
            (e * (sig * sig * s0 + 2.0 * sig * xi * s1 + xi * xi * s2)).sum(axis=-1))
    return tuple(float(s[row]) for row in (0, 1) for s in sums)


def _profile_slope(runs, u: float) -> tuple:
    """First and second derivative in u = log tau of the profile objective
    -A^2/B, A = sum y m, B = sum m^2 (N0 = A/B minimises over N0), and A/B."""
    a, a1, a2, b, b1, b2 = _decay_sums(runs, math.exp(u))
    # d/du m = m s and d/du s = -s, so with A' = sum y m s, B' = 2 sum m^2 s:
    da, d2a = a1, a2 - a1
    db, d2b = 2.0 * b1, 4.0 * b2 - 2.0 * b1
    n = a / b
    grad = n * n * db - 2.0 * n * da
    curv = (n * n * d2b - 2.0 * n * d2a - 2.0 * da * da / b
            + 4.0 * n * da * db / b - 2.0 * n * n * db * db / b)
    return grad, curv, n


def _minimise_log_tau(runs, u0: float, u_lo: float, u_hi: float):
    """Newton on the profile objective over log tau, kept inside the bracket
    its gradient signs establish and never moving more than 1 (a factor e)
    at once.  Returns (u, N0, iterations, where): ``where`` is "min" at an
    interior minimum, "below" / "above" when the objective still falls at
    the ends of [u_lo, u_hi], and "max_iterations" otherwise."""
    lo, hi = -math.inf, math.inf
    u = u0
    for iterations in range(1, MAX_ITERATIONS + 1):
        grad, curv, n = _profile_slope(runs, u)
        if grad > 0:
            hi = u
        else:
            lo = u
        step = -grad / curv if curv > 0 else -math.copysign(1.0, grad)
        if abs(step) <= LOG_TAU_TOLERANCE:
            return u, n, iterations, "min"
        # a step leaving the bracket has both ends finite: it heads away from u's own end
        nxt = u + max(-1.0, min(1.0, step))
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if abs(nxt - u) <= LOG_TAU_TOLERANCE:
                return u, n, iterations, "min"
        if nxt < u_lo or nxt > u_hi:
            return u, n, iterations, "below" if nxt < u_lo else "above"
        u = nxt
    return u, n, MAX_ITERATIONS, "max_iterations"


def _log_linear_slope(runs) -> float:
    """np.polyfit's slope of log y on t over frames with y > 0 (0 without two such values):
    a run of L frames centred c from the mean time adds L c^2 + spacing^2 L (L^2-1) / 12."""
    starts, spacing, lengths, values = runs
    pos = values > 0
    if lengths[pos].sum() < 2 or np.ptp(values[pos]) == 0:
        return 0.0
    w = lengths[pos]
    c = starts[pos] + 0.5 * spacing * (w - 1.0)
    c -= np.dot(w, c) / w.sum()
    sxx = np.dot(w, c * c) + spacing * spacing * np.dot(w, w * w - 1.0) / 12.0
    return float(np.dot(w * c, np.log(values[pos])) / sxx)


def _residual_sum(runs, tau: float, n: float) -> float:
    """Sum over every frame of (y - n exp(-t/tau))^2: per run, L (y - mean model)^2
    plus m^2 sum_{k<L} (r^k - mean r^k)^2, m its first model value, r = exp(-x).
    That spread's closed form S0(2x) - S0(x)^2 / L cancels to about eps / (x L)^2,
    so runs with x L < 1 take it from d_k = expm1(-x k) by shared prefix sums."""
    starts, spacing, lengths, values = runs
    x = spacing / tau
    (s0, s0_twice), _, _ = _geometric_moments((x, 2.0 * x), lengths)
    spreads = s0_twice - s0 * s0 / lengths
    short = x * lengths < 1.0
    if short.any():
        d = np.expm1(-x * np.arange(int(lengths[short].max())))
        last = lengths[short].astype(int) - 1
        spreads[short] = np.cumsum(d * d)[last] - np.cumsum(d)[last] ** 2 / lengths[short]
    m = n * np.exp(-starts / tau)
    mean_resid = values - m * s0 / lengths
    return float(np.dot(lengths, mean_resid * mean_resid) + np.dot(m * m, spreads))


def _no_decay_result(y: np.ndarray) -> FitResult:
    n0 = float(np.mean(y))
    return FitResult(param_names=("n0", "tau"),
                     parameters={"n0": n0, "tau": math.inf},
                     errors={"n0": float(np.std(y)), "tau": math.inf},
                     covariance=np.zeros((2, 2)), residual_norm=float(np.sum((y - n0) ** 2)),
                     iterations=0, converged=True, dof=len(y) - 2,
                     flags=("no_decay",),
                     derived={"lifetime": math.inf, "lifetime_error": math.inf})


def _time_steps(t: np.ndarray):
    """(smallest step, largest step, non-zero steps) of t, (0, 0, 0) without
    steps; a NaN step makes both extremes NaN, as np.diff(t).min() would.
    Steps are counted only when the smallest is not positive: otherwise all
    len(t) - 1 of them are non-zero.

    Differenced in blocks of STEP_BLOCK: a frame-sized float temporary costs
    as much as the run fit, and more when its pages are freshly mapped.
    """
    if len(t) < 2:
        return 0.0, 0.0, 0
    blocks = range(0, len(t) - 1, STEP_BLOCK)
    lo, hi = np.inf, -np.inf
    for i in blocks:
        dt = np.diff(t[i:i + STEP_BLOCK + 1])
        lo, hi = np.minimum(lo, dt.min()), np.maximum(hi, dt.max())
    if lo > 0:
        return lo, hi, len(t) - 1
    return lo, hi, sum(np.count_nonzero(np.diff(t[i:i + STEP_BLOCK + 1])) for i in blocks)


def _curve_runs(curve, uv_on_time: float):
    """The curve from UV on as (t, y, t_min, span, spacing, run starts, run
    values, even): ``even`` says the frames lie on one even grid of step
    ``spacing``.

    A curve from ``ensemble._survival_curve`` carries its runs and grid steps:
    it is cut at UV on by a binary search, and only a cut that drops frames
    differences the times left.  Other curves take the frame scan.  Times off
    one even grid are runs of one frame.
    """
    t = np.asarray(curve.times, dtype=float)
    y = np.asarray(curve.n_alive)
    carried = getattr(curve, "runs", None)
    if carried is None:
        after = t >= uv_on_time
        if not after.all():
            t, y = t[after], y[after]
        step_lo, step_hi, nonzero = _time_steps(t)
    else:
        # frame times are sorted: the mask t >= uv_on_time is a suffix
        starts, values, (step_lo, step_hi, nonzero) = carried
        cut = int(np.searchsorted(t, uv_on_time))
        if cut:
            t, y = t[cut:], y[cut:]
            step_lo, step_hi, nonzero = _time_steps(t)
            first = np.searchsorted(starts, cut, side="right") - 1
            starts, values = np.concatenate(([cut], starts[first + 1:])) - cut, values[first:]
    distinct = 1 + nonzero if step_lo >= 0 else len(np.unique(t))
    if distinct < 3:
        raise DegenerateFitError("need at least 3 distinct times after UV on")
    # sorted times have their extremes at the ends
    t_min, span = (t[0], t[-1] - t[0]) if step_lo >= 0 else (np.min(t), np.ptp(t))
    spacing = (t[-1] - t[0]) / (len(t) - 1)
    even = bool(spacing > 0 and max(step_hi - spacing, spacing - step_lo)
                <= EVEN_GRID_TOLERANCE * spacing)
    if even:
        if carried is None:
            starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])
            values = y[starts]
    else:
        starts, spacing, values = np.arange(len(t)), 1.0, y   # a run of one frame has no spacing
    return t, y, float(t_min), float(span), spacing, starts, values, even


def _counts_falling(values: np.ndarray) -> bool:
    """Run values that are whole, non-negative counts, each below the one before."""
    if values.dtype.kind not in "biu" and not (
            np.isfinite(values).all() and (values == np.round(values)).all()):
        return False
    return bool(values[-1] >= 0 and (values[1:] < values[:-1]).all())


def fit_exponential(curve, uv_on_time: Optional[float] = None) -> FitResult:
    """Fit N(t) = N0 exp(-t/tau) to the post-illumination part of a survival curve.

    Times are measured from the UV turn-on.  Non-decaying data comes back
    converged with a very large or infinite tau and the ``no_decay`` flag.

    Survival counts on one even grid (whole, non-negative counts whose runs
    only fall) are fit by the censored-exponential maximum likelihood, in
    closed form on their runs (``_censored_exponential``): the tau error is
    the likelihood's, about tau / sqrt(deaths).  Every other curve (non-count
    data, uneven or unsorted times, counts that rise) takes the exact
    least-squares fit of ``_least_squares_exponential``.  Curves from
    ``ensemble._survival_curve`` carry their runs; any other curve finds them
    in one pass over its frames (``_curve_runs``).
    """
    if uv_on_time is None:
        uv_on_time = getattr(curve, "uv_on_time", 0.0)
    scan = _curve_runs(curve, uv_on_time)
    _, y, t_min, span, spacing, starts, values, even = scan
    if even and _counts_falling(values):
        return _censored_exponential(y, t_min - uv_on_time, span, spacing, starts, values)
    return _least_squares_exponential(scan, uv_on_time)


def _censored_exponential(y, t0: float, span: float, spacing: float,
                          starts: np.ndarray, values: np.ndarray) -> FitResult:
    """Maximum likelihood of an exponential lifetime from counts on one grid.

    Frames t_j = t0 + j h, j = 0..J, hold counts N_j; given N_0, each of the
    d_j particles gone between frames j - 1 and j has likelihood
    r^(j-1) (1 - r), and each of the N_J left r^J, with r = exp(-h/tau).
    With D = sum d_j and S = sum d_j (j - 1) + N_J J = sum_{j>=1} N_j (the
    particle-intervals survived), the maximum is r = S / (S + D), so
    tau = h / log1p(D/S), with information S/r^2 + D/(1-r)^2.  Deaths sit at
    the run starts, so this costs a few sums over the runs.

    n0 = N_0 exp(t0/tau), t0 from UV on; its error reads N_0 as a Poisson
    count, plus tau's share through exp(t0/tau).  ``residual_norm`` is the
    deviance 2 (log L_sat - log L) against a free hazard per interval.
    """
    if values[0] == values[-1]:
        return _no_decay_result(y)
    last = len(y) - 1
    at_risk = values[:-1].astype(float)
    gone = at_risk - values[1:]
    deaths = float(values[0] - values[-1])
    exposure = float(np.dot(gone, starts[1:] - 1.0)) + float(values[-1]) * last
    if exposure == 0:
        raise DegenerateFitError("every particle is gone after the first frame interval: "
                                 "the lifetime is shorter than the grid resolves")
    h = float(spacing)
    trials = exposure + deaths
    r = exposure / trials
    tau = h / math.log1p(deaths / exposure)
    try:
        n0 = float(values[0]) * math.exp(t0 / tau)
    except OverflowError:
        raise DegenerateFitError("N0 overflows: the first frame after UV on "
                                 "lies hundreds of lifetimes after it") from None
    # var r = 1 / information = S D / (S + D)^3, and dtau/dr = tau^2 / (h r)
    var_tau = (tau * tau / (h * r)) ** 2 * (exposure * deaths / trials ** 3)
    dn0_dtau = -n0 * t0 / (tau * tau)
    cov = np.array([[n0 * n0 / float(values[0]) + dn0_dtau * dn0_dtau * var_tau,
                     dn0_dtau * var_tau], [dn0_dtau * var_tau, var_tau]])
    left = values[1:].astype(float)
    saturated = float(np.dot(gone, np.log(gone / at_risk))
                      + np.dot(left, np.log(np.maximum(left, 1.0) / at_risk)))
    deviance = 2.0 * (saturated - deaths * math.log(deaths / trials) - exposure * math.log(r))
    err = math.sqrt(var_tau)
    return FitResult(param_names=("n0", "tau"), parameters={"n0": n0, "tau": tau},
                     errors={"n0": math.sqrt(cov[0, 0]), "tau": err}, covariance=cov,
                     residual_norm=max(deviance, 0.0), iterations=0, converged=True,
                     dof=last - 1,
                     flags=("no_decay",) if tau > NO_DECAY_SPAN_FACTOR * span else (),
                     derived={"lifetime": tau, "lifetime_error": err})


def _least_squares_exponential(scan: tuple, uv_on_time: float) -> FitResult:
    """The least-squares fit on the runs ``_curve_runs`` returns (``scan``):
    exact, and costed by runs of equal value on one even grid (runs of one
    frame off it).  The start, Newton on the profile -A^2/B over log tau
    (N0 = A/B), the residual and the covariance are per-run closed-form sums.

    On integer data the tau standard error is the survival statistic
    tau / sqrt(observed deaths): the residual-based covariance badly
    underestimates on counting curves, whose deviations are correlated
    across time.  Other data keeps the plain least-squares covariance.
    """
    t, y, t_min, span, spacing, starts, values, _ = scan
    t0 = t_min - uv_on_time
    lengths = np.diff(np.r_[starts, len(t)]).astype(float)
    values = values.astype(float)
    begins = t[starts] - uv_on_time
    # N0 is free, so measuring time from the earliest frame leaves tau alone
    # and keeps B >= 1 however short the trial tau
    runs = (begins - t0, spacing, lengths, values)
    slope = _log_linear_slope(runs)
    if slope >= -1e-12:
        return _no_decay_result(y)
    u, n, iterations, where = _minimise_log_tau(
        runs, math.log(-1.0 / slope), math.log(span / TAU_SEARCH_SPANS),
        math.log(span * TAU_SEARCH_SPANS))
    if where == "above":
        return _no_decay_result(y)
    tau = math.exp(u)
    try:
        n0 = n * math.exp(t0 / tau)
    except OverflowError:
        raise DegenerateFitError("N0 overflows: the first frame after UV on "
                                 "lies hundreds of lifetimes after it") from None

    ssr = _residual_sum(runs, tau, n)
    # J^T J of the model in (n0, tau): dm/dn0 = m / n0, dm/dtau = m s / tau
    _, _, _, b, b1, b2 = _decay_sums((begins,) + runs[1:], tau)
    dof = len(y) - 2
    j00, j01, j11 = b, n0 / tau * b1, (n0 / tau) ** 2 * b2
    cov = np.array([[j11, -j01], [-j01, j00]]) * ((ssr / dof) / (j00 * j11 - j01 * j01))
    deaths = float(np.ptp(values)) if np.all(values == np.round(values)) else 0.0
    if deaths > 0:
        cov[1, 1] = tau * tau / deaths
    err = math.sqrt(cov[1, 1])
    return FitResult(param_names=("n0", "tau"), parameters={"n0": n0, "tau": tau},
                     errors={"n0": math.sqrt(cov[0, 0]), "tau": err}, covariance=cov,
                     residual_norm=ssr, iterations=iterations, converged=where == "min",
                     dof=dof, flags=("no_decay",) if tau > NO_DECAY_SPAN_FACTOR * span else (),
                     derived={"lifetime": tau, "lifetime_error": err})


# ---------------------------------------------------------------------------
# wavelength sigmoid f(lambda) = L / (1 + exp(-k (lambda - lambda0))) + b


def sigmoid_model(lam, l_amp, lambda0, k, b):
    u = np.clip(-k * (np.asarray(lam, dtype=float) - lambda0), -700, 700)
    return l_amp / (1.0 + np.exp(u)) + b


def sigmoid_jacobian(lam, l_amp, lambda0, k, b):
    """Derivatives of ``sigmoid_model`` wrt (L, lambda0, k, b), an (n, 4) array.

    With d = lambda - lambda0, e = exp(-k d) and s = 1 / (1 + e) they are s,
    -k L s^2 e, d L s^2 e and 1.  Where -k d lies beyond the model's +-700
    clip the model does not move with lambda0 or k, so those columns are 0
    there; s^2 e underflows to 0 rather than overflowing.
    """
    d = np.asarray(lam, dtype=float) - lambda0
    u = -k * d
    e = np.exp(np.clip(u, -700, 700))
    s = 1.0 / (1.0 + e)
    slope = np.where(np.abs(u) < 700, l_amp * s * s * e, 0.0)
    jac = np.empty((len(d), 4))
    jac[:, 0] = s
    jac[:, 1] = -k * slope
    jac[:, 2] = d * slope
    jac[:, 3] = 1.0
    return jac


FIT_SPACES = ("log", "linear", "inverse")


def fit_sigmoid(wavelengths, lifetimes, lifetime_errors=None,
                fit_space: str = "log") -> FitResult:
    """Fit the four-parameter sigmoid to a lifetime-vs-wavelength table.

    ``fit_space`` selects the quantity and residual domain:

    * ``"log"`` (default): the sigmoid models the lifetime itself and
      residuals are taken between log(data) and log(model); lifetimes span
      decades, so this equalizes leverage.
    * ``"linear"``: lifetime modelled and compared linearly.
    * ``"inverse"``: the sigmoid models 1/lifetime, i.e. the effective loss
      rate.  Lifetime is inversely proportional to a logistic emission rate
      plus a background floor, and the reciprocal of such a curve is again a
      logistic but with its center shifted by ln((1+b/L)/(b/L))/k; the rate
      domain is where the step center is unbiased, so pipeline
      reproductions fit there.

    Derived quantities: step center (nm), 10..90% width = 2 ln 9 / |k|,
    and the high-efficiency threshold = center - width with its photon
    energy in eV.
    """
    lam = np.asarray(wavelengths, dtype=float)
    tau = np.asarray(lifetimes, dtype=float)
    if fit_space not in FIT_SPACES:
        raise ValueError(f"fit_space must be one of {FIT_SPACES}")
    if len(lam) != len(tau):
        raise ValueError("wavelengths and lifetimes must have equal length")
    if np.any(tau <= 0):
        raise ValueError("lifetimes must be positive")
    err = None
    if lifetime_errors is not None:
        err = np.asarray(lifetime_errors, dtype=float)
        if np.any(err <= 0) or not np.all(np.isfinite(err)):
            err = None  # fall back to uniform weights

    if fit_space == "inverse":
        y = 1.0 / tau
        sigma = err / tau**2 if err is not None else None
    else:
        y = tau
        sigma = err

    if fit_space == "log":
        y_fit = np.log(y)
        sigma_fit = sigma / y if sigma is not None else None

        def fit_model(lam_, l_amp, lambda0, k, b):
            m = sigmoid_model(lam_, l_amp, lambda0, k, b)
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.where(m > 0, np.log(np.where(m > 0, m, 1.0)), -np.inf)

        def fit_jacobian(lam_, *theta):
            # d log m = dm / m; rows where m <= 0 are NaN, as log m is not defined there
            m = sigmoid_model(lam_, *theta)
            return sigmoid_jacobian(lam_, *theta) / np.where(m > 0, m, np.nan)[:, None]
    else:
        y_fit = y
        sigma_fit = sigma
        fit_model, fit_jacobian = sigmoid_model, sigmoid_jacobian
    weights = 1.0 / sigma_fit**2 if sigma_fit is not None else None

    if np.ptp(y) == 0.0:
        return FitResult(param_names=("L", "lambda0", "k", "b"),
                         parameters={"L": 0.0, "lambda0": float(np.median(lam)),
                                     "k": 0.0, "b": float(y[0])},
                         errors={k: math.inf for k in ("L", "lambda0", "k", "b")},
                         covariance=np.zeros((4, 4)), residual_norm=0.0,
                         iterations=0, converged=False, dof=len(y) - 4,
                         flags=("degenerate", "flat_data"))

    # initial guesses from the data extremes and the mid crossing, taken on
    # the fit scale so decade-spanning data still localizes the step
    order = np.argsort(lam)
    lam_s = lam[order]
    y_scale = np.log(y[order]) if fit_space == "log" else y[order]
    n_edge = max(1, len(y_scale) // 4)
    s_left = float(np.median(y_scale[:n_edge]))
    s_right = float(np.median(y_scale[-n_edge:]))
    mid = 0.5 * (s_left + s_right)
    crossing = None
    slope_scale = None
    for i in range(len(y_scale) - 1):
        if (y_scale[i] - mid) * (y_scale[i + 1] - mid) <= 0 and y_scale[i + 1] != y_scale[i]:
            frac = (mid - y_scale[i]) / (y_scale[i + 1] - y_scale[i])
            crossing = lam_s[i] + frac * (lam_s[i + 1] - lam_s[i])
            slope_scale = (y_scale[i + 1] - y_scale[i]) / (lam_s[i + 1] - lam_s[i])
            break
    if crossing is None:
        crossing = float(np.median(lam_s))
        slope_scale = (s_right - s_left) / max(np.ptp(lam_s), 1.0)
    y_left = math.exp(s_left) if fit_space == "log" else s_left
    y_right = math.exp(s_right) if fit_space == "log" else s_right
    b0 = y_left if abs(y_left) < abs(y_right) else y_right
    l0 = (y_right - b0) if b0 == y_left else (y_left - b0)
    if fit_space == "log":
        # slope of log model at center = k/4 * L/(b + L/2)
        k0 = slope_scale * 4.0 * (b0 + 0.5 * l0) / l0 if l0 != 0 else 1.0
    else:
        sign = 1.0 if slope_scale * l0 >= 0 else -1.0
        k0 = sign * 4.0 * abs(slope_scale) / max(abs(l0), 1e-300)

    result = nls_fit(fit_model, lam, y_fit, (l0, crossing, k0, b0),
                     param_names=("L", "lambda0", "k", "b"), weights=weights,
                     jacobian=fit_jacobian)
    lambda0 = result.parameters["lambda0"]
    k = result.parameters["k"]
    span = float(np.ptp(lam))
    width = 2.0 * math.log(9.0) / abs(k) if k != 0 else math.inf
    threshold = lambda0 - width
    result.derived.update({
        "fit_space": fit_space,
        "center_wavelength": lambda0,
        "center_wavelength_error": result.errors["lambda0"],
        "width_10_90": width,
        "width_10_90_error": (width * result.errors["k"] / abs(k)) if k != 0 else math.inf,
        "threshold_wavelength": threshold,
        "threshold_photon_energy_ev": EV_NM / threshold if threshold > 0 else math.nan,
    })
    if not (lam.min() - span <= lambda0 <= lam.max() + span) or \
            result.errors["lambda0"] > span:
        result.flags = tuple(dict.fromkeys(result.flags + ("poorly_constrained",)))
    return result


# ---------------------------------------------------------------------------
# power law tau = A d^p, fitted as weighted linear regression in log-log


def fit_powerlaw(diameters, lifetimes, lifetime_errors=None,
                 fixed_exponent: Optional[float] = None) -> FitResult:
    """Weighted log-log linear fit of tau = amplitude * d^exponent.

    ``fixed_exponent`` pins the exponent (comparison fits d^-1, d^-2) and
    fits the amplitude alone.  Two free-fit points give an exact fit with
    the covariance flagged unreliable; fewer are underdetermined.
    """
    d = np.asarray(diameters, dtype=float)
    tau = np.asarray(lifetimes, dtype=float)
    if np.any(d <= 0):
        raise ValueError("diameters must be positive")
    if np.any(tau <= 0):
        raise ValueError("lifetimes must be positive")
    if len(d) != len(tau):
        raise ValueError("diameters and lifetimes must have equal length")
    x = np.log(d)
    y = np.log(tau)
    if lifetime_errors is not None:
        err = np.asarray(lifetime_errors, dtype=float)
        w = np.where((err > 0) & np.isfinite(err), (tau / np.where(err > 0, err, 1.0)) ** 2, 1.0)
    else:
        w = np.ones(len(d))

    flags = []
    if fixed_exponent is None:
        if len(np.unique(d)) < 2:
            raise DegenerateFitError("power-law fit needs >= 2 distinct diameters")
        s0 = float(np.sum(w))
        sx = float(np.sum(w * x))
        sy = float(np.sum(w * y))
        sxx = float(np.sum(w * x * x))
        sxy = float(np.sum(w * x * y))
        det = s0 * sxx - sx * sx
        slope = (s0 * sxy - sx * sy) / det
        intercept = (sy - slope * sx) / s0
        resid = y - (intercept + slope * x)
        ssr = float(np.sum(w * resid**2))
        dof = len(d) - 2
        # covariance of (slope, intercept) from the weighted normal equations
        cov_unit = np.array([[s0, -sx], [-sx, sxx]]) / det
        if dof > 0:
            cov = cov_unit * (ssr / dof)
        else:
            cov = np.zeros((2, 2))
            flags.append("unreliable_covariance")
        params = {"amplitude": math.exp(intercept), "exponent": slope}
        errors = {"amplitude": math.exp(intercept) * math.sqrt(max(cov[1, 1], 0.0)),
                  "exponent": math.sqrt(max(cov[0, 0], 0.0))}
        names = ("exponent", "amplitude")
        cov_out = cov
    else:
        if len(d) < 1:
            raise DegenerateFitError("power-law fit needs at least one point")
        slope = float(fixed_exponent)
        intercept = float(np.sum(w * (y - slope * x)) / np.sum(w))
        resid = y - (intercept + slope * x)
        ssr = float(np.sum(w * resid**2))
        dof = len(d) - 1
        var_i = (1.0 / float(np.sum(w))) * (ssr / dof) if dof > 0 else 0.0
        if dof <= 0:
            flags.append("unreliable_covariance")
        flags.append("fixed_exponent")
        params = {"amplitude": math.exp(intercept), "exponent": slope}
        errors = {"amplitude": math.exp(intercept) * math.sqrt(max(var_i, 0.0)),
                  "exponent": 0.0}
        names = ("exponent", "amplitude")
        cov_out = np.array([[0.0, 0.0], [0.0, var_i]])
    return FitResult(param_names=names, parameters=params, errors=errors,
                     covariance=cov_out, residual_norm=ssr, iterations=0,
                     converged=True, dof=dof, flags=tuple(flags),
                     derived={"log_residual_norm": ssr})


# ---------------------------------------------------------------------------
# discrete charge lattice f = delta_f * N_e


def _lattice_objective(deltas: np.ndarray, f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted SSR of f against its own rounding to each candidate lattice.

    Evaluated in blocks of about 2^20 elements to bound the temporaries.
    """
    rows = max(1, 2**20 // max(len(f), 1))
    out = np.empty(len(deltas))
    for i in range(0, len(deltas), rows):
        d = deltas[i:i + rows, None]
        out[i:i + rows] = np.sum(w * (f - d * np.round(f / d))**2, axis=1)
    return out


def _lattice_minima(f: np.ndarray, w: np.ndarray, lo: float, hi: float):
    """hi, the interior piece minima of the lattice objective, then lo.

    With a = |f|, the charges n_i = round(a_i/d) are fixed between the
    breakpoints a_i / (k + 1/2), where the objective is quadratic in d with
    its minimum at S1/S2, S1 = sum w a n, S2 = sum w n^2.  Sweeping d down
    through a breakpoint moves n_i from k to k + 1, adding w_i a_i to S1 and
    w_i (2k + 1) to S2.  The minima come out in descending order, as the
    pieces are scanned from hi down.  Also returns the number of breakpoints.
    """
    a = np.abs(f)
    k_first = np.floor(a / hi + 0.5)            # n_i just below hi
    counts = np.maximum(np.ceil(a / lo - 0.5) - k_first, 0).astype(np.int64)
    owner = np.repeat(np.arange(len(a)), counts)
    k = k_first[owner] + (np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts))
    breaks = a[owner] / (k + 0.5)
    order = np.argsort(-breaks, kind="stable")
    s1 = np.cumsum(np.concatenate(([np.sum(w * a * k_first)], (w * a)[owner][order])))
    s2 = np.cumsum(np.concatenate(([np.sum(w * k_first**2)], (w[owner] * (2 * k + 1))[order])))
    edges = np.concatenate(([hi], breaks[order], [lo]))
    with np.errstate(divide="ignore", invalid="ignore"):
        d_star = s1 / s2
    inside = (d_star < edges[:-1]) & (d_star > edges[1:])
    return np.concatenate(([hi], d_star[inside], [lo])), len(owner)


LATTICE_DETECTION_RATIO = 0.5  # best fit must beat uniform rounding by this factor
LATTICE_MIN_POINTS = 5


def fit_charge_lattice(trace: FrequencyTrace, delta_f_range: tuple) -> FitResult:
    """Find delta_f such that every frequency is near an integer multiple.

    The objective sum_i w_i (f_i - delta_f round(f_i/delta_f))^2 is quadratic
    in delta_f between breakpoints that are local maxima of their terms, so
    its local minima are the piece minima and the range ends, all found
    exactly by one breakpoint scan (``iterations`` counts the breakpoints).
    Every lattice is also fit by its subharmonics, so the search starts at
    the largest minimum within (1 + 2/sqrt(dof)) of the global one and
    reports the lowest tolerated minimum reachable from there through
    neighbours whose charges differ by at most one at every point: narrow
    neighbour minima flip single charges, a subharmonic doubles them.
    Raises LatticeNotDetectedError when the best candidate does not beat the
    uniform-rounding baseline delta_f^2/12 by LATTICE_DETECTION_RATIO.
    """
    lo, hi = float(delta_f_range[0]), float(delta_f_range[1])
    if not (0 < lo < hi):
        raise ValueError(f"invalid delta_f range {delta_f_range}")
    f = np.asarray(trace.frequencies, dtype=float)
    n = len(f)
    if n < LATTICE_MIN_POINTS:
        raise DegenerateFitError(
            f"insufficient data: {n} points, need >= {LATTICE_MIN_POINTS}")
    err = np.asarray(trace.errors, dtype=float)
    w = 1.0 / err**2 if np.all(err > 0) else np.ones(n)

    if float(np.max(f)) <= 0:
        raise DegenerateFitError("all frequencies are zero")
    deltas, n_breaks = _lattice_minima(f, w, lo, hi)
    obj = _lattice_objective(deltas, f, w)

    dof = max(n - 1, 1)
    sum_wff = float(np.sum(w * f * f))
    within = np.flatnonzero(obj <= obj.min() * (1.0 + 2.0 / math.sqrt(dof)) + 1e-12 * sum_wff)
    # deltas descend and charges only grow as delta_f falls, so the minima
    # reachable from the largest by steps moving no charge by more than one
    # form a prefix of the tolerated ones
    jumps = np.abs(np.diff(np.round(f / deltas[within, None]), axis=0)).max(axis=1) > 1
    chain = within[:1 + int(np.argmax(np.append(jumps, True)))]
    best = chain[np.argmin(obj[chain])]
    best_delta, best_j = float(deltas[best]), float(obj[best])

    baseline = (best_delta**2 / 12.0) * float(np.sum(w))
    if best_j > LATTICE_DETECTION_RATIO * baseline and sum_wff > 0:
        raise LatticeNotDetectedError(
            f"no lattice in range: best objective {best_j:.3g} vs uniform baseline {baseline:.3g}")

    charges = np.round(f / best_delta).astype(int)
    sigma2 = best_j / dof
    denom = float(np.sum(w * charges.astype(float) ** 2))
    delta_err = math.sqrt(sigma2 / denom) if denom > 0 else math.inf
    steps = np.diff(charges)
    return FitResult(param_names=("delta_f",),
                     parameters={"delta_f": float(best_delta)},
                     errors={"delta_f": float(delta_err)},
                     covariance=np.array([[delta_err**2]]),
                     residual_norm=float(best_j), iterations=n_breaks,
                     converged=True, dof=dof,
                     derived={"charge_sequence": tuple(int(c) for c in charges),
                              "charge_steps": tuple(int(s) for s in steps),
                              "initial_charge": int(charges[0]) if n else 0})
