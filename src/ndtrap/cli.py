"""Command-line interface: config-driven simulation, fitting of measurement
CSVs, and the figure reproduction harness.

Exit codes: 0 success, 1 numeric failure (non-convergence, failed
reproduction check, lattice not detected), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from types import SimpleNamespace

from . import io
from .config import ConfigError, parse_scenario_file, serialize_scenario
from .fitters import (FIT_SPACES, FitError, confidence_band, exponential_model,
                      fit_charge_lattice, fit_exponential, fit_powerlaw,
                      fit_sigmoid)
from .reproduce import FIGURES, reproduce
from .runner import (SWEEP_KINDS, run_frequency_trace_scenario,
                     run_motion_scenario, run_picker_scenario,
                     run_survival_scenario, run_sweep_scenario,
                     run_trajectory_scenario)
from .trap import ParticleLost

OUT_DIR_ENV = "NDTRAP_OUT_DIR"

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2


def _resolve_out_dir(cli_value, default_leaf):
    if cli_value:
        return cli_value
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return os.path.join(env, default_leaf)
    return os.path.join("outputs", default_leaf)


def _run_survival(sc):
    curve = run_survival_scenario(sc)
    return ([("survival.csv", io.write_survival_csv, curve)],
            {"n0": curve.n0, "losses": int(curve.n0 - curve.n_alive[-1])})


def _run_sweep(sc):
    return ([("sweep.csv", io.write_sweep_csv, run_sweep_scenario(sc),
              SWEEP_KINDS[sc.kind][2])], {})


def _run_trajectory(sc):
    traj = run_trajectory_scenario(sc)
    return [("trajectory.csv", io.write_trajectory_csv, traj)], {"n_events": traj.n_events}


def _run_frequency_trace(sc):
    traj, trace = run_frequency_trace_scenario(sc)
    return ([("trajectory.csv", io.write_trajectory_csv, traj),
             ("frequency_trace.csv", io.write_frequency_trace_csv, trace)],
            {"n_events": traj.n_events})


def _run_motion(sc):
    result = run_motion_scenario(sc)
    if isinstance(result, ParticleLost):
        return [], {"lost": True, "escape_time_s": result.escape_time, "q": result.q}
    return ([("motion.csv", io.write_motion_csv, result)],
            {"lost": False, "q": result.q})


def _run_picker(sc):
    pulses, _, _, trace = run_picker_scenario(sc)
    return ([("pulses.csv", io.write_csv, ["pulse_time_s"], [pulses]),
             ("frequency_trace.csv", io.write_frequency_trace_csv, trace)],
            {"pulses_fixed_phases": len(pulses)})


# scenario kind -> runner returning ([(file name, io writer, *writer args)],
# metadata.json fields beyond scenario, kind, seed and config)
KIND_RUNNERS = {
    "survival": _run_survival,
    "trajectory": _run_trajectory,
    "motion": _run_motion,
    "frequency_trace": _run_frequency_trace,
    "picker": _run_picker,
    "sweep_wavelength": _run_sweep,
    "sweep_size": _run_sweep,
}


def _cmd_run(args) -> int:
    """Body of both 'simulate' and 'sweep'; each accepts its own scenario kinds."""
    sc = parse_scenario_file(args.config)
    if args.seed is not None:
        sc = sc.with_seed(args.seed)
    is_sweep = sc.kind in SWEEP_KINDS
    if is_sweep and args.command == "simulate":
        print(f"scenario kind {sc.kind!r} runs under the 'sweep' command", file=sys.stderr)
        return EXIT_USAGE
    if not is_sweep and args.command == "sweep":
        print(f"scenario kind {sc.kind!r} is not a sweep", file=sys.stderr)
        return EXIT_USAGE
    out_dir = io.ensure_dir(_resolve_out_dir(args.out_dir, sc.name))
    files, fields = KIND_RUNNERS[sc.kind](sc)
    meta = {"scenario": sc.name, "kind": sc.kind, "seed": sc.seed,
            "config": serialize_scenario(sc), **fields}
    for name, writer, *data in files + [("metadata.json", io.write_json, meta)]:
        path = os.path.join(out_dir, name)
        writer(path, *data)
        print(path)
    return EXIT_OK


def _fit_exp(args):
    _, (t, n_alive, *_) = io.read_csv_columns(args.input, expected_columns=2)
    result = fit_exponential(SimpleNamespace(times=t, n_alive=n_alive, uv_on_time=args.uv_on))
    n0, tau = result.parameters["n0"], result.parameters["tau"]
    error = None
    if args.band and math.isfinite(tau):
        x = t[t >= args.uv_on] - args.uv_on
        sigma = confidence_band(result, exponential_model, x)
        io.write_csv(args.band, ["x", "fit", "sigma"], [x, exponential_model(x, n0, tau), sigma])
        print(args.band)
    elif args.band:
        error = (f"--band: no band written to {args.band}: the fit is flagged "
                 f"{', '.join(result.flags)} (tau = inf)")
    return result, (f"exponential: tau = {tau:.4g} s "
                    f"+- {result.errors['tau']:.2g}, N0 = {n0:.4g}"), error


def _fit_sigmoid(args):
    result = fit_sigmoid(*io.read_sweep_csv(args.input), fit_space=args.fit_space)
    return result, (f"sigmoid: center = {result.derived['center_wavelength']:.4g} nm, "
                    f"width = {result.derived['width_10_90']:.3g} nm, "
                    f"threshold = {result.derived['threshold_wavelength']:.4g} nm"), None


def _fit_powerlaw(args):
    result = fit_powerlaw(*io.read_sweep_csv(args.input),
                          fixed_exponent=args.fixed_exponent)
    return result, (f"powerlaw: exponent = {result.parameters['exponent']:.4g} "
                    f"+- {result.errors['exponent']:.2g}"), None


def _fit_lattice(args):
    trace = io.read_frequency_trace_csv(args.input)
    result = fit_charge_lattice(trace, (args.delta_f_min, args.delta_f_max))
    return result, (f"lattice: delta_f = {result.parameters['delta_f']:.4g} Hz, "
                    f"N0 = {result.derived['initial_charge']}, points = {len(trace)}"), None


# fit model -> (fit returning (result, summary line, error line for a
# requested file it could not write, or None), its own flags)
FIT_MODELS = {
    "exp": (_fit_exp, {
        "--uv-on": dict(type=float, default=0.0,
                        help="UV turn-on time for exponential fits (s)"),
        "--band": dict(default=None, help="also write the 1-sigma confidence band CSV here"),
    }),
    "sigmoid": (_fit_sigmoid, {
        "--fit-space": dict(choices=FIT_SPACES, default="log"),
    }),
    "powerlaw": (_fit_powerlaw, {"--fixed-exponent": dict(type=float, default=None)}),
    "lattice": (_fit_lattice, {
        "--delta-f-min": dict(type=float, default=50.0),
        "--delta-f-max": dict(type=float, default=250.0),
    }),
}


def _cmd_fit(args) -> int:
    try:
        result, summary, error = args.fit(args)
    except (io.DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    out = args.out or (os.path.splitext(args.input)[0] + "_fit.json")
    io.write_json(out, io.fit_result_to_dict(result, model=args.model))
    print(summary)
    print(out)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK if result.converged else EXIT_NUMERIC


def _cmd_reproduce(args) -> int:
    out_dir = _resolve_out_dir(args.out_dir, f"reproduce_{args.figure}")
    report = reproduce(args.figure, out_dir, seed=args.seed)
    for check in report.checks:
        print(check.line())
    print(os.path.join(out_dir, "report.json"))
    return EXIT_NUMERIC if report.failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndtrap",
        description="Simulate and fit UV charge-control experiments on "
                    "levitated nanoparticles in Paul traps.")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, help_text in (("simulate", "run a scenario config"),
                               ("sweep", "run a sweep scenario config")):
        p_run = sub.add_parser(command, help=help_text)
        p_run.add_argument("--config", required=True)
        p_run.add_argument("--seed", type=int, default=None)
        p_run.add_argument("--out-dir", default=None)
        p_run.set_defaults(func=_cmd_run)

    p_fit = sub.add_parser("fit", help="fit a measurement CSV")
    models = p_fit.add_subparsers(dest="model", required=True)
    for model, (fit, flags) in FIT_MODELS.items():
        p_model = models.add_parser(model)
        p_model.add_argument("input")
        p_model.add_argument("--out", default=None)
        for flag, spec in flags.items():
            p_model.add_argument(flag, **spec)
        p_model.set_defaults(func=_cmd_fit, fit=fit)

    p_rep = sub.add_parser("reproduce", help="run a bundled reproduction scenario")
    p_rep.add_argument("figure", choices=FIGURES)
    p_rep.add_argument("--seed", type=int, default=None)
    p_rep.add_argument("--out-dir", default=None)
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
