"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs one untraced and two traced
one-second runs and checks that each prints every named metric with its
unit, that every check passes, that the per-layer metrics of the layers the
workload runs are present and non-zero, and that the deterministic counts
repeat exactly across the two traced runs.  It also checks that the
survival_sweep items reproduce the runner's sweeps point for point, and that
the benchmark fails without printing a result when the checkout holds no
source.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SEED = 7
# Calls that must be non-zero in a traced run of each workload.
LAYERS_RUN = {
    "lattice_readout": ("photoemission.simulate_charge_trajectory.calls",
                        "photoemission.pick_pulses.calls", "fitters.fit_charge_lattice.calls"),
    "survival_sweep": ("photoemission.simulate_charge_trajectory.calls",
                       "ensemble.simulate_survival.calls", "fitters.nls_fit.calls"),
    "stability_scan": ("trap.integrate_mathieu.calls", "trap.find_mathieu_boundary.probes",
                       "ensemble.integrated_escape_check.calls"),
    "motion_spectrum": ("trap.integrate_motion.calls", "trap.integrate_mathieu.calls",
                        "signal.estimate_secular_frequency.calls"),
}

failures = []


def check(ok: bool, message: str):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def bench(workload: str, trace: int, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done, workload, trace, declared):
    tag = f"{workload} trace={trace}"
    check(done.returncode == 0, f"{tag}: exit code {done.returncode} {done.stderr[-500:]}")
    lines = done.stdout.strip().splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    check(not fails, f"{tag}: every check passes {fails}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result line")
    if not result:
        return {}
    check(result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0,
          f"{tag}: correct, attempted >= 1, failed == 0")
    metrics = result["metrics"]
    check(set(metrics) == set(declared), f"{tag}: metric names match BENCHMARK.json")
    for name, unit in declared.items():
        entry = metrics.get(name, {})
        check(entry.get("unit") == unit and math.isfinite(entry.get("value", math.nan)),
              f"{tag}: {name} = {entry.get('value')} {entry.get('unit')} (declared {unit})")
    return metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == run.END_TO_END, "end_to_end in BENCHMARK.json equals run.END_TO_END")
    check(layers == run.PER_LAYER, "per_layer in BENCHMARK.json equals run.PER_LAYER")
    names = [w["name"] for w in spec["workloads"]]
    check(sorted(names) == sorted(LAYERS_RUN), "every workload has a layer list here")

    for workload in names:
        metrics = result_of(bench(workload, 0), workload, 0, e2e)
        check(bool(metrics) and all(v["value"] > 0 for v in metrics.values()),
              f"{workload}: every end-to-end metric is non-zero")
        first, second = (result_of(bench(workload, 1), workload, 1, layers) for _ in range(2))
        if not (first and second):
            continue
        for name in run.DETERMINISTIC_COUNTS:
            a, b = first[name]["value"], second[name]["value"]
            check(a == b, f"{workload}: count {name} repeats ({a} == {b})")
        for name in LAYERS_RUN[workload]:
            check(first[name]["value"] > 0, f"{workload}: {name} > 0")

    import workloads
    from ndtrap import runner
    sweep = workloads.SurvivalSweep(SEED)
    for base, run_sweep in ((sweep.fig7, runner.run_wavelength_sweep_scenario),
                            (sweep.fig8, runner.run_size_sweep_scenario)):
        sc = base.with_seed(SEED)
        ours = [(x, tau, err) for x, tau, err, _ in sweep.points(sc)]
        theirs = [(p.x, p.lifetime, p.lifetime_error) for p in run_sweep(sc)]
        check(ours == theirs, f"survival_sweep items equal runner sweep for {sc.name}")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = bench(names[0], 0, cwd=bare, script=bare / HERE.name / "run.py")
        printed_result = any(line.startswith("{") for line in done.stdout.splitlines())
        check(done.returncode != 0 and not printed_result,
              f"without source: exit code {done.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
