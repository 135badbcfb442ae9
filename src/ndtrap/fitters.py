"""Weighted nonlinear least squares and the four measurement-model fits:
exponential survival decay, wavelength sigmoid, size power law, and the
discrete charge lattice f = delta_f * N_e.

The core solver is a damped Gauss-Newton (Levenberg-Marquardt) with forward
finite-difference Jacobians, used by the sigmoid; models that admit closed
forms use them directly: the power law, the piecewise-quadratic lattice
objective, and the exponential, whose least squares reduce to a 1-D profile
over log tau built from per-run geometric sums.
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
    residual_norm: float          # weighted sum of squared residuals
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
            tolerance: float = CONVERGENCE_TOL) -> FitResult:
    """Damped Gauss-Newton minimization of sum w_i (y_i - model(x_i; theta))^2.

    Damping starts at 1e-3, grows x10 on a rejected step and shrinks /10 on
    an accepted one.  Converged when the relative step size and the relative
    residual decrease both fall below ``tolerance``.  Non-convergence returns
    the best parameters found with ``converged=False``; structurally
    degenerate problems raise DegenerateFitError.
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

    def ssr_of(t):
        r = sw * (y - np.asarray(model(x, *t), dtype=float))
        return r, float(r @ r)

    r, ssr = ssr_of(theta)
    lam = _LM_DAMPING_INIT
    converged = False
    flags = []
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        jac = sw[:, None] * _fd_jacobian(model, x, theta)
        a = jac.T @ jac
        g = jac.T @ r
        diag = np.diag(a).copy()
        if not np.any(diag > 0):      # all zero, or none finite
            flags.append("singular_normal_equations")
            break
        diag[diag <= 0] = diag[diag > 0].min()
        accepted = False
        while lam < 1e14:
            try:
                delta = np.linalg.solve(a + lam * np.diag(diag), g)
            except np.linalg.LinAlgError:
                flags.append("singular_normal_equations")
                delta = np.linalg.lstsq(a + lam * np.diag(diag), g, rcond=None)[0]
            trial = theta + delta
            r_new, ssr_new = ssr_of(trial)
            if np.isfinite(ssr_new) and ssr_new <= ssr:
                rel_step = float(np.max(np.abs(delta) / (np.abs(theta) + 1e-300)))
                rel_drop = (ssr - ssr_new) / ssr if ssr > 0 else 0.0
                theta, r, ssr = trial, r_new, ssr_new
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                if rel_step < tolerance and rel_drop < tolerance:
                    converged = True
                break
            lam *= 10.0
        if not accepted:
            flags.append("no_downhill_step")
            break
        if converged:
            break

    jac = sw[:, None] * _fd_jacobian(model, x, theta)
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


def _geometric_moments(x: float, lengths: np.ndarray):
    """Per run, the sums over k < L of r^k, k r^k and k^2 r^k with r = exp(-x).

    From (1 - r) S1 = T - (L-1) r^L and (1 - r) S2 = 2 S1 - T - (L-1)^2 r^L,
    where T = sum_{0<k<L} r^k.  T and 1 - r come from expm1, so slow decays
    (x L << 1) keep their precision: the absolute error of x S1 and x^2 S2
    stays near eps L.
    """
    one_minus_r = -math.expm1(-x)
    m = lengths - 1.0
    r_len = np.exp(-x * lengths)
    tail = math.exp(-x) * -np.expm1(-x * m) / one_minus_r
    s1 = (tail - m * r_len) / one_minus_r
    s2 = (2.0 * s1 - tail - m * m * r_len) / one_minus_r
    return 1.0 + tail, s1, s2


def _decay_sums(runs, tau: float) -> tuple:
    """Sums over every frame of y m, y m s, y m s^2, m^2, m^2 s and m^2 s^2,
    with m = exp(-t/tau) and s = t/tau, from per-run closed forms.

    ``runs`` is (start times, spacing, lengths, values): a run holds the
    frames start + k * spacing, k < length, all with one value y.
    """
    starts, spacing, lengths, values = runs
    sig = starts / tau
    xi = spacing / tau
    out = []
    for power, weight in ((1, values), (2, 1.0)):
        s0, s1, s2 = _geometric_moments(power * xi, lengths)
        e = weight * np.exp(-power * sig)
        out += [float(np.sum(e * s0)), float(np.sum(e * (sig * s0 + xi * s1))),
                float(np.sum(e * (sig * sig * s0 + 2.0 * sig * xi * s1 + xi * xi * s2)))]
    return tuple(out)


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


def _no_decay_result(y: np.ndarray) -> FitResult:
    n0 = float(np.mean(y))
    return FitResult(param_names=("n0", "tau"),
                     parameters={"n0": n0, "tau": math.inf},
                     errors={"n0": float(np.std(y)), "tau": math.inf},
                     covariance=np.zeros((2, 2)), residual_norm=float(np.sum((y - n0) ** 2)),
                     iterations=0, converged=True, dof=len(y) - 2,
                     flags=("no_decay",),
                     derived={"lifetime": math.inf, "lifetime_error": math.inf})


def fit_exponential(curve, uv_on_time: Optional[float] = None) -> FitResult:
    """Fit N(t) = N0 exp(-t/tau) to the post-illumination part of a survival curve.

    Times are measured from the UV turn-on.  Non-decaying data comes back
    converged with a very large tau and the ``no_decay`` flag.

    The least-squares fit is exact and costs the curve's runs, not its
    frames: on one evenly spaced grid the frames group into runs of equal
    value (any other curve is fit frame by frame, as runs of length 1), N0
    is linear with N0(tau) = A/B, and the profile objective -A^2/B is
    minimised over log tau by Newton on its analytic derivatives, which are
    per-run geometric sums.  The covariance is the least-squares one from
    the same sums.

    On integer count data the tau standard error is the survival statistic
    tau / sqrt(observed deaths): the residual-based covariance badly
    underestimates on counting curves, whose deviations are correlated
    across time.  Other data keeps the plain least-squares covariance,
    appropriate for independent noise.
    """
    t = np.asarray(curve.times, dtype=float)
    y = np.asarray(curve.n_alive, dtype=float)
    if uv_on_time is None:
        uv_on_time = getattr(curve, "uv_on_time", 0.0)
    mask = t >= uv_on_time
    t = t[mask] - uv_on_time
    y = y[mask]
    dt = np.diff(t)
    distinct = 1 + np.count_nonzero(dt) if (dt >= 0).all() else len(np.unique(t))
    if distinct < 3:
        raise DegenerateFitError("need at least 3 distinct times after UV on")
    t0, span = float(np.min(t)), float(np.ptp(t))

    pos = y > 0
    if pos.sum() >= 2 and np.ptp(y[pos]) > 0:
        slope, _ = np.polyfit(t[pos], np.log(y[pos]), 1)
    else:
        slope = 0.0
    if slope >= -1e-12:
        return _no_decay_result(y)

    spacing = (t[-1] - t[0]) / (len(t) - 1)
    if spacing > 0 and np.all(np.abs(dt - spacing) <= EVEN_GRID_TOLERANCE * spacing):
        starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])
    else:
        starts, spacing = np.arange(len(t)), 1.0   # a run of one frame has no spacing
    lengths = np.diff(np.r_[starts, len(t)]).astype(float)
    # N0 is free, so measuring time from the earliest frame leaves tau alone
    # and keeps B >= 1 however short the trial tau
    runs = (t[starts] - t0, spacing, lengths, y[starts])
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

    resid = y - exponential_model(t, n0, tau)
    ssr = float(np.sum(resid * resid))
    dof = len(y) - 2
    # J^T J of the model in (n0, tau): dm/dn0 = m / n0, dm/dtau = m s / tau
    _, _, _, b, b1, b2 = _decay_sums((t[starts],) + runs[1:], tau)
    g = n0 / tau
    j00, j01, j11 = b, g * b1, g * g * b2
    cov = np.array([[j11, -j01], [-j01, j00]]) * ((ssr / dof) / (j00 * j11 - j01 * j01))
    flags = ("no_decay",) if tau > NO_DECAY_SPAN_FACTOR * span else ()
    result = FitResult(param_names=("n0", "tau"), parameters={"n0": n0, "tau": tau},
                       errors={"n0": math.sqrt(cov[0, 0]), "tau": math.sqrt(cov[1, 1])},
                       covariance=cov, residual_norm=ssr, iterations=iterations,
                       converged=where == "min", dof=dof, flags=flags)
    if np.all(y == np.round(y)):
        deaths = float(np.max(y) - np.min(y))
        if deaths > 0:
            result.errors["tau"] = tau / math.sqrt(deaths)
            result.covariance[1, 1] = result.errors["tau"] ** 2
    result.derived["lifetime"] = tau
    result.derived["lifetime_error"] = result.errors["tau"]
    return result


# ---------------------------------------------------------------------------
# wavelength sigmoid f(lambda) = L / (1 + exp(-k (lambda - lambda0))) + b


def sigmoid_model(lam, l_amp, lambda0, k, b):
    u = np.clip(-k * (np.asarray(lam, dtype=float) - lambda0), -700, 700)
    return l_amp / (1.0 + np.exp(u)) + b


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
    else:
        y_fit = y
        sigma_fit = sigma
        fit_model = sigmoid_model
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
                     param_names=("L", "lambda0", "k", "b"), weights=weights)
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
