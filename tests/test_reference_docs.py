"""Reference documents: the command line's output on fixed inputs, byte for byte.

Each file under tests/reference is the document one command writes with
``--out``.  A refactor that is meant to leave every number alone must leave
these files alone too.  The provenance's model path depends on where the
checkout lies, so that line is left out on both sides.

After a change that is meant to move the numbers, regenerate the files with

    PYTHONPATH=src python tests/test_reference_docs.py

and review the diff.
"""

import sys
from pathlib import Path

import pytest

from polycycles.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "reference"
FOUR = str(ROOT / "models" / "four_saddle.model")
SQUARE = str(ROOT / "models" / "integrable_square.model")
CIRCLE = str(ROOT / "models" / "circle_cycle.model")
# demo 04's point, where two limit cycles split off the four-saddle polycycle
STAGED = ["--set", "l1=0.3037037037037037", "--set", "l2=1.3622066489493219",
          "--set", "l3=1.8188118943622775", "--set", "l4=1.3622066489493219"]

DOCUMENTS = {
    "analyze-four_saddle": ["analyze", "--model", FOUR],
    "analyze-four_saddle-l1_0.31-m1_8": ["analyze", "--model", FOUR,
                                         "--set", "l1=0.31", "--set", "m1=8"],
    "analyze-integrable_square": ["analyze", "--model", SQUARE],
    **{f"oracle-dulac-four_saddle-corner{k}": ["oracle", "--what", "dulac", "--corner", str(k),
                                               "--model", FOUR] for k in range(1, 5)},
    "oracle-return-four_saddle": ["oracle", "--what", "return", "--model", FOUR],
    "oracle-return-integrable_square": ["oracle", "--what", "return", "--model", SQUARE],
    "oracle-cycles-circle_cycle": ["oracle", "--what", "cycles", "--model", CIRCLE,
                                   "--s-range", "0.3:2.0"],
    "oracle-cycles-four_saddle-staged": ["oracle", "--what", "cycles", "--model", FOUR,
                                         "--s-range", "1e-8:1e-3", "--tol", "samples=40",
                                         "--tol", "t_max=600", *STAGED],
    "scan-four_saddle": ["scan", "--model", FOUR, "--grid", "l1=0.3:0.6:3",
                         "--grid", "m1=6:30:3"],
    # at-one rows, pole-error rows, and Mellin orders that split at l1 = 1/3 and 1/2
    "scan-four_saddle-l2_band-l1": ["scan", "--model", FOUR, "--grid", "l2=0.999999:1.000001:3",
                                    "--grid", "l1=0.3:0.55:6"],
    "scan-integrable_square": ["scan", "--model", SQUARE, "--grid", "a=0.3:0.45:3",
                               "--grid", "b=0.4:0.6:3"],
    # complex steps next to the at-one band
    "analyze-four_saddle-l2_1.0001": ["analyze", "--model", FOUR, "--set", "l2=1.0001"],
    "compose-check-seed42-count20": ["compose-check", "--seed", "42", "--count", "20"],
}


def document(argv, out: Path) -> bytes:
    """The document ``argv`` writes, less its provenance.model_path line."""
    assert main(argv + ["--out", str(out)]) == 0
    lines = out.read_bytes().splitlines(keepends=True)
    return b"".join(line for line in lines if not line.startswith(b"provenance.model_path = "))


@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_document_is_unchanged(name, tmp_path):
    assert document(DOCUMENTS[name], tmp_path / "doc") == (REFERENCE / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    REFERENCE.mkdir(exist_ok=True)
    for name, argv in DOCUMENTS.items():
        path = REFERENCE / f"{name}.txt"
        path.write_bytes(document(argv, path))
        print(path.relative_to(ROOT), file=sys.stderr)
