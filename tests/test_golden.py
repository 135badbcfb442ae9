"""Cross-version drift: SHA-256 of every file ``reproduce <fig>`` writes at
the default seed, compared against the digests pinned in
``tests/golden/reproduce_sha256.json``; likewise every file ``simulate`` or
``sweep`` writes for each bundled scenario and the test CLI configs, plus
their stdout, against ``tests/golden/simulate_sha256.json``.

A change that alters a random stream on purpose regenerates both files with
``python tests/test_golden.py`` and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest
from test_cli import MOTION_CFG, TRAJECTORY_CFG

from ndtrap.cli import main
from ndtrap.config import parse_scenario_text, serialize_scenario
from ndtrap.reproduce import FIGURES, reproduce
from ndtrap.runner import BUNDLED_SCENARIOS, SWEEP_KINDS, load_bundled_scenario

GOLDEN = pathlib.Path(__file__).parent / "golden" / "reproduce_sha256.json"
SIMULATE_GOLDEN = pathlib.Path(__file__).parent / "golden" / "simulate_sha256.json"
SIMULATE_CASES = BUNDLED_SCENARIOS + ("motion_demo", "traj_demo")


def figure_digests(figure, out_dir):
    reproduce(figure, str(out_dir))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(pathlib.Path(out_dir).iterdir())}


def simulate_digests(case, work_dir):
    """Run ``simulate`` (``sweep`` for sweep kinds) on one case; digest every
    file written and the stdout with the output directory masked."""
    text = {"motion_demo": MOTION_CFG, "traj_demo": TRAJECTORY_CFG}.get(case)
    if text is None:
        text = serialize_scenario(load_bundled_scenario(case))
    command = "sweep" if parse_scenario_text(text).kind in SWEEP_KINDS else "simulate"
    work_dir = pathlib.Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    cfg, out = work_dir / f"{case}.cfg", work_dir / "out"
    cfg.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 0
    table = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.iterdir())}
    stdout = printed.getvalue().replace(str(out), "OUT")
    table["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    return table


@pytest.mark.parametrize("figure", FIGURES)
def test_reproduce_golden_digests(figure, tmp_path):
    expected = json.loads(GOLDEN.read_text())[figure]
    assert figure_digests(figure, tmp_path) == expected


@pytest.mark.parametrize("case", SIMULATE_CASES)
def test_simulate_golden_digests(case, tmp_path):
    expected = json.loads(SIMULATE_GOLDEN.read_text())[case]
    assert simulate_digests(case, tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {fig: figure_digests(fig, pathlib.Path(tmp) / fig) for fig in FIGURES}
        sim = {case: simulate_digests(case, pathlib.Path(tmp) / "sim" / case)
               for case in SIMULATE_CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    SIMULATE_GOLDEN.write_text(json.dumps(sim, indent=2, sort_keys=True) + "\n")
    print(f"{sum(map(len, table.values()))} + {sum(map(len, sim.values()))} digests "
          f"-> {GOLDEN.parent}", file=sys.stderr)
