"""Cross-version drift: SHA-256 of every file ``reproduce <fig>`` writes at
the default seed, compared against the digests pinned in
``tests/golden/reproduce_sha256.json``.

A change that alters a random stream on purpose regenerates the file with
``python tests/test_golden.py`` and says why in CHANGES.md.
"""

import hashlib
import json
import pathlib
import sys
import tempfile

import pytest

from ndtrap.reproduce import FIGURES, reproduce

GOLDEN = pathlib.Path(__file__).parent / "golden" / "reproduce_sha256.json"


def figure_digests(figure, out_dir):
    reproduce(figure, str(out_dir))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(pathlib.Path(out_dir).iterdir())}


@pytest.mark.parametrize("figure", FIGURES)
def test_reproduce_golden_digests(figure, tmp_path):
    expected = json.loads(GOLDEN.read_text())[figure]
    assert figure_digests(figure, tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {fig: figure_digests(fig, pathlib.Path(tmp) / fig) for fig in FIGURES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"{sum(map(len, table.values()))} digests -> {GOLDEN}", file=sys.stderr)
