"""ndtrap benchmark: one workload per process, end-to-end metrics from an
untraced run, per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload lattice_readout --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the machine, the run and every check.  The exit code is 0 when
every check passes, 1 when one fails and 2 when the checkout has no source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7        # the run's own set-up plus fresh-process set-ups
REFERENCE_WARMUP = 20    # untimed reference-kernel calls before a timed run

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "trap.integrate_mathieu.calls": "count",
    "trap.integrate_mathieu.self_s": "s",
    "trap.rk4_steps": "count_computed",
    "trap.rk4_steps_per_s": "1/s",
    "trap.find_mathieu_boundary.s": "s",
    "trap.find_mathieu_boundary.self_s": "s",
    "trap.find_mathieu_boundary.probes": "count",
    "trap.integrate_motion.calls": "count",
    "trap.integrate_motion.self_s": "s",
    "trap.escaped_frac": "fraction",
    "photoemission.simulate_charge_trajectory.calls": "count",
    "photoemission.simulate_charge_trajectory.self_s": "s",
    "photoemission.trajectory_events": "count",
    "photoemission.events_per_s": "1/s",
    "photoemission.pick_pulses.calls": "count",
    "photoemission.pick_pulses.self_s": "s",
    "photoemission.pulses_transmitted": "count",
    "ensemble.simulate_survival.calls": "count",
    "ensemble.simulate_survival.self_s": "s",
    "ensemble.particles": "count",
    "ensemble.particles_per_s": "1/s",
    "ensemble.integrated_escape_check.calls": "count",
    "ensemble.integrated_escape_check.self_s": "s",
    "signal.synthesize_frequency_trace.self_s": "s",
    "signal.estimate_secular_frequency.calls": "count",
    "signal.estimate_secular_frequency.self_s": "s",
    "signal.peak_found_frac": "fraction",
    "fitters.nls_fit.calls": "count",
    "fitters.nls_fit.self_s": "s",
    "fitters.nls_iterations": "count",
    "fitters.nls_points": "count",
    "fitters.nls_converged_frac": "fraction",
    "fitters.fit_exponential.self_s": "s",
    "fitters.fit_sigmoid.self_s": "s",
    "fitters.fit_powerlaw.self_s": "s",
    "fitters.fit_charge_lattice.calls": "count",
    "fitters.fit_charge_lattice.self_s": "s",
    "fitters.lattice_refine_iterations": "count",
    "fitters.lattice_detected_frac": "fraction",
    "fitters.lattice_exact_frac": "fraction",
    "config.parse_s": "s",
    "runner.self_s": "s",
    "unattributed_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_frac": "fraction",
}

# Counts that must repeat exactly across traced runs at one seed.
DETERMINISTIC_COUNTS = ("trap.rk4_steps", "photoemission.trajectory_events",
                        "photoemission.pulses_transmitted", "fitters.nls_iterations",
                        "fitters.lattice_refine_iterations", "ensemble.particles")

# Items per second of one pass at the seed commit on two cores.  A traced run
# does round(seconds * rate / TRACE_PASS_DIVISOR) items in each of its two
# passes, so its work depends on the seed and --seconds only.
TRACE_RATE = {"lattice_readout": 23.0, "survival_sweep": 14.0,
              "stability_scan": 14.5, "motion_spectrum": 2.3}
TRACE_PASS_DIVISOR = 2.5


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail_percentile(latencies):
    """(percentile, value): the highest whole percentile with at least ten
    items beyond it; the maximum when there are ten items or fewer."""
    n = len(latencies)
    if n <= 10:
        return 100, max(latencies)
    pct = (100 * (n - 10)) // n
    return pct, statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter: import, scenario parse, warm-up item."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def layer_metrics(summary, wall_s, ref_wall_s, workload) -> dict:
    def get(name, field="calls"):
        return summary[name][field] if name in summary else 0

    def counts(name, key):
        return summary[name]["counts"][key] if name in summary else 0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for span in ("trap.integrate_mathieu", "trap.integrate_motion",
                 "photoemission.simulate_charge_trajectory", "photoemission.pick_pulses",
                 "ensemble.simulate_survival", "ensemble.integrated_escape_check",
                 "signal.estimate_secular_frequency", "fitters.nls_fit",
                 "fitters.fit_charge_lattice"):
        m[f"{span}.calls"] = get(span)
        m[f"{span}.self_s"] = get(span, "self_s")
    for span in ("trap.find_mathieu_boundary", "signal.synthesize_frequency_trace",
                 "fitters.fit_exponential", "fitters.fit_sigmoid", "fitters.fit_powerlaw"):
        m[f"{span}.self_s"] = get(span, "self_s")

    mathieu = "trap.integrate_mathieu"
    m["trap.rk4_steps"] = counts(mathieu, "rk4_steps")
    m["trap.rk4_steps_per_s"] = ratio(m["trap.rk4_steps"], get(mathieu, "self_s"))
    m["trap.find_mathieu_boundary.s"] = get("trap.find_mathieu_boundary", "total_s")
    m["trap.find_mathieu_boundary.probes"] = (
        summary[mathieu]["under"]["trap.find_mathieu_boundary"] if mathieu in summary else 0)
    m["trap.escaped_frac"] = ratio(counts(mathieu, "escaped"), get(mathieu))

    traj = "photoemission.simulate_charge_trajectory"
    m["photoemission.trajectory_events"] = counts(traj, "events")
    m["photoemission.events_per_s"] = ratio(m["photoemission.trajectory_events"],
                                            get(traj, "self_s"))
    m["photoemission.pulses_transmitted"] = counts("photoemission.pick_pulses", "pulses")

    surv = "ensemble.simulate_survival"
    m["ensemble.particles"] = counts(surv, "particles")
    m["ensemble.particles_per_s"] = ratio(m["ensemble.particles"], get(surv, "total_s"))

    est = "signal.estimate_secular_frequency"
    m["signal.peak_found_frac"] = ratio(counts(est, "peak_found"), get(est))

    m["fitters.nls_iterations"] = counts("fitters.nls_fit", "iterations")
    m["fitters.nls_points"] = counts("fitters.nls_fit", "points")
    m["fitters.nls_converged_frac"] = ratio(counts("fitters.nls_fit", "converged"),
                                            get("fitters.nls_fit"))
    lat = "fitters.fit_charge_lattice"
    m["fitters.lattice_refine_iterations"] = counts(lat, "refine_iterations")
    m["fitters.lattice_detected_frac"] = ratio(get(lat) - get(lat, "errors"), get(lat))
    m["fitters.lattice_exact_frac"] = ratio(getattr(workload, "exact", 0), get(lat))

    m["config.parse_s"] = get("config.parse_scenario_text", "self_s")
    m["runner.self_s"] = sum(v["self_s"] for k, v in summary.items()
                             if k.startswith("runner."))
    attributed = sum(v["self_s"] for v in summary.values())
    m["unattributed_s"] = wall_s - attributed
    m["traced_wall_s"] = wall_s
    m["trace_overhead_frac"] = wall_s / ref_wall_s - 1.0
    return m


def timed_run(args, workload, setup_samples):
    """Items until --seconds have passed, untraced: the end-to-end metrics.

    On a shared host the same code can run up to 1.5 times slower for tens
    of seconds, so raw wall times differ between runs by more than any
    bound.  Each item and per-run step is therefore scaled to a nominal host
    speed by the reference kernel timed around it (``Recorder.scaled``); the
    raw times are printed beside the scaled ones."""
    import workloads
    for _ in range(REFERENCE_WARMUP):
        workloads.time_reference()
    rec = workloads.Recorder(seconds=args.seconds, reference=True)
    t = perf_counter()
    workload.run(rec)
    rec.finish()
    wall = perf_counter() - t
    items, steps = rec.scaled()
    pct, tail = tail_percentile(items)
    ref_median = statistics.median(rec.ref_times)
    values = {
        "setup_s": statistics.median(setup_samples),
        "items_per_s": len(items) / (sum(items) + sum(steps)),
        "item_p50_ms": 1e3 * statistics.median(items),
        "item_tail_ms": 1e3 * tail,
        "peak_rss_mb": peak_rss_mb(),
    }
    raw_timed = sum(seconds for _, seconds in rec.timed)
    print(f"items {rec.attempted} in {wall:.3f} s; item_tail_ms is p{pct} "
          f"of {rec.attempted} items; setup samples "
          f"{', '.join(f'{s:.4f}' for s in setup_samples)} s")
    print(f"host speed: reference kernel median {1e3 * ref_median:.4f} ms "
          f"(nominal {1e3 * workloads.REFERENCE_NOMINAL_S} ms); raw items_per_s "
          f"{rec.attempted / raw_timed:.4f}, item_p50_ms "
          f"{1e3 * statistics.median(rec.latencies):.4f}, item_tail_ms "
          f"{1e3 * tail_percentile(rec.latencies)[1]:.4f}")
    return workload, rec, workload.checks(rec), values


def traced_run(args, cls, machine):
    """A fixed number of items untraced, then the same items traced: the
    per-layer metrics and the tracing overhead."""
    import workloads
    from tracer import Tracer
    n_items = max(1, round(args.seconds * TRACE_RATE[args.workload] / TRACE_PASS_DIVISOR))
    ref = cls(args.seed)
    ref_rec = workloads.Recorder(max_items=n_items)
    t = perf_counter()
    ref.run(ref_rec)
    ref_wall = perf_counter() - t
    tracer = Tracer()
    with tracer:
        t = perf_counter()
        traced = cls(args.seed)
        rec = workloads.Recorder(max_items=n_items, tracer=tracer)
        traced.run(rec)
        wall = perf_counter() - t
    summary = tracer.summary()
    values = layer_metrics(summary, wall, ref_wall, traced)
    checks = ([("untraced pass: " + n, ok, d) for n, ok, d in ref.checks(ref_rec)]
              + [("traced pass: " + n, ok, d) for n, ok, d in traced.checks(rec)])
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(span_file, {"machine": machine, "metrics": values})
    print(f"spans {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
    for name, entry in sorted(summary.items()):
        print(f"span {name}: calls {entry['calls']} errors {entry['errors']} "
              f"total {entry['total_s']:.4f} s self {entry['self_s']:.4f} s "
              f"counts {dict(entry['counts'])}")
    print(f"accounting: self times {wall - values['unattributed_s']:.4f} s + "
          f"unattributed {values['unattributed_s']:.4f} s = traced wall {wall:.4f} s; "
          f"untraced wall {ref_wall:.4f} s over the same {rec.attempted} items")
    for name in DETERMINISTIC_COUNTS:
        print(f"count {name} = {values[name]}")
    return traced, rec, checks, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer (it seeds a SeedSequence)")

    if not (SRC / "ndtrap" / "__init__.py").is_file():
        print(f"error: no ndtrap source under {SRC}", file=sys.stderr)
        return 2
    blas_cap = cpu_count()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(blas_cap)
    sys.path.insert(0, str(SRC))

    t0 = perf_counter()
    import numpy as np
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed)
    workload.warmup()
    own_setup = perf_counter() - t0
    if args.setup_probe:
        print(own_setup)
        return 0

    machine = {"nproc": blas_cap, "cpu_model": cpu_model(),
               "python": platform.python_version(), "numpy": np.__version__,
               "blas_thread_cap": blas_cap, "workload": args.workload,
               "workload_seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "git_commit": git_commit()}
    print("machine " + json.dumps(machine))
    if args.trace:
        measured, rec, checks, values = traced_run(args, cls, machine)
        units = PER_LAYER
    else:
        setup_samples = [own_setup] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        measured, rec, checks, values = timed_run(args, workload, setup_samples)
        units = END_TO_END
    print("notes " + json.dumps(measured.notes(rec), default=str))
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    for err in rec.errors[:3]:
        print("raised: " + err.replace("\n", " | "), file=sys.stderr)
    correct = all(ok for _, ok, _ in checks)
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.count("raised"),
                      "metrics": {k: {"value": values[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
