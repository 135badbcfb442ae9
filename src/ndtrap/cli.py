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

from . import io
from .config import ConfigError, parse_scenario_file, serialize_scenario
from .fitters import (FitError, LatticeNotDetectedError,
                      attach_confidence_band, exponential_model,
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


def _load_scenario(args):
    sc = parse_scenario_file(args.config)
    if args.seed is not None:
        sc = sc.with_seed(args.seed)
    return sc


def _cmd_run(args) -> int:
    """Body of both 'simulate' and 'sweep'; each accepts its own scenario kinds."""
    sc = _load_scenario(args)
    is_sweep = sc.kind in SWEEP_KINDS
    if is_sweep and args.command == "simulate":
        print(f"scenario kind {sc.kind!r} runs under the 'sweep' command", file=sys.stderr)
        return EXIT_USAGE
    if not is_sweep and args.command == "sweep":
        print(f"scenario kind {sc.kind!r} is not a sweep", file=sys.stderr)
        return EXIT_USAGE
    out_dir = io.ensure_dir(_resolve_out_dir(args.out_dir, sc.name))
    meta = {"scenario": sc.name, "kind": sc.kind, "seed": sc.seed,
            "config": serialize_scenario(sc)}
    written = []
    if is_sweep:
        path = os.path.join(out_dir, "sweep.csv")
        io.write_sweep_csv(path, run_sweep_scenario(sc), SWEEP_KINDS[sc.kind][2])
        written.append(path)
    elif sc.kind == "survival":
        curve = run_survival_scenario(sc)
        path = os.path.join(out_dir, "survival.csv")
        io.write_survival_csv(path, curve)
        meta["n0"] = curve.n0
        meta["losses"] = int(curve.n0 - curve.n_alive[-1])
        written.append(path)
    elif sc.kind == "frequency_trace":
        traj, trace = run_frequency_trace_scenario(sc)
        t_path = os.path.join(out_dir, "trajectory.csv")
        io.write_trajectory_csv(t_path, traj)
        f_path = os.path.join(out_dir, "frequency_trace.csv")
        io.write_frequency_trace_csv(f_path, trace)
        meta["n_events"] = traj.n_events
        written += [t_path, f_path]
    elif sc.kind == "trajectory":
        traj = run_trajectory_scenario(sc)
        path = os.path.join(out_dir, "trajectory.csv")
        io.write_trajectory_csv(path, traj)
        meta["n_events"] = traj.n_events
        written.append(path)
    elif sc.kind == "motion":
        result = run_motion_scenario(sc)
        if isinstance(result, ParticleLost):
            meta["lost"] = True
            meta["escape_time_s"] = result.escape_time
            meta["q"] = result.q
        else:
            path = os.path.join(out_dir, "motion.csv")
            io.write_motion_csv(path, result)
            meta["lost"] = False
            meta["q"] = result.metadata.get("q")
            written.append(path)
    elif sc.kind == "picker":
        pulses, counts, charges, trace = run_picker_scenario(sc)
        p_path = os.path.join(out_dir, "pulses.csv")
        io.write_csv(p_path, ["pulse_time_s"], [pulses])
        f_path = os.path.join(out_dir, "frequency_trace.csv")
        io.write_frequency_trace_csv(f_path, trace)
        meta["pulses_fixed_phases"] = len(pulses)
        written += [p_path, f_path]
    else:
        print(f"unknown scenario kind {sc.kind!r}", file=sys.stderr)
        return EXIT_USAGE
    meta_path = os.path.join(out_dir, "metadata.json")
    io.write_json(meta_path, meta)
    written.append(meta_path)
    for p in written:
        print(p)
    return EXIT_OK


def _cmd_fit(args) -> int:
    try:
        if args.model == "lattice":
            trace = io.read_frequency_trace_csv(args.input)
            result = fit_charge_lattice(trace, (args.delta_f_min, args.delta_f_max))
            summary = (f"lattice: delta_f = {result.parameters['delta_f']:.4g} Hz, "
                       f"N0 = {result.derived['initial_charge']}, "
                       f"points = {len(trace)}")
        elif args.model == "exp":
            header, cols = io.read_csv_columns(args.input, expected_columns=2)
            curve_like = type("Curve", (), {"times": cols[0], "n_alive": cols[1],
                                            "uv_on_time": args.uv_on})()
            result = fit_exponential(curve_like)
            if args.band and math.isfinite(result.parameters["tau"]):
                t = cols[0][cols[0] >= args.uv_on] - args.uv_on
                attach_confidence_band(result, exponential_model, t)
            summary = (f"exponential: tau = {result.parameters['tau']:.4g} s "
                       f"+- {result.errors['tau']:.2g}, N0 = {result.parameters['n0']:.4g}")
        elif args.model == "sigmoid":
            x, tau, err = io.read_sweep_csv(args.input)
            result = fit_sigmoid(x, tau, err, fit_space=args.fit_space)
            summary = (f"sigmoid: center = {result.derived['center_wavelength']:.4g} nm, "
                       f"width = {result.derived['width_10_90']:.3g} nm, "
                       f"threshold = {result.derived['threshold_wavelength']:.4g} nm")
        elif args.model == "powerlaw":
            x, tau, err = io.read_sweep_csv(args.input)
            result = fit_powerlaw(x, tau, err, fixed_exponent=args.fixed_exponent)
            summary = (f"powerlaw: exponent = {result.parameters['exponent']:.4g} "
                       f"+- {result.errors['exponent']:.2g}")
        else:  # unreachable via argparse choices
            return EXIT_USAGE
    except (io.DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LatticeNotDetectedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    out = args.out or (os.path.splitext(args.input)[0] + "_fit.json")
    io.write_json(out, io.fit_result_to_dict(result, model=args.model))
    if args.band and result.confidence_band is not None:
        xs, fitted, sigma = result.confidence_band
        io.write_csv(args.band, ["x", "fit", "sigma"], [xs, fitted, sigma])
        print(args.band)
    print(summary)
    print(out)
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

    p_sim = sub.add_parser("simulate", help="run a scenario config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out-dir", default=None)
    p_sim.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a sweep scenario config")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out-dir", default=None)
    p_sweep.set_defaults(func=_cmd_run)

    p_fit = sub.add_parser("fit", help="fit a measurement CSV")
    p_fit.add_argument("model", choices=("exp", "sigmoid", "powerlaw", "lattice"))
    p_fit.add_argument("input")
    p_fit.add_argument("--out", default=None)
    p_fit.add_argument("--band", default=None,
                       help="also write the 1-sigma confidence band CSV here")
    p_fit.add_argument("--uv-on", type=float, default=0.0,
                       help="UV turn-on time for exponential fits (s)")
    p_fit.add_argument("--fit-space", choices=("log", "linear", "inverse"),
                       default="log")
    p_fit.add_argument("--fixed-exponent", type=float, default=None)
    p_fit.add_argument("--delta-f-min", type=float, default=50.0)
    p_fit.add_argument("--delta-f-max", type=float, default=250.0)
    p_fit.set_defaults(func=_cmd_fit)

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
