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

DOCUMENTS = {
    "analyze-four_saddle": ["analyze", "--model", FOUR],
    "analyze-four_saddle-l1_0.31-m1_8": ["analyze", "--model", FOUR,
                                         "--set", "l1=0.31", "--set", "m1=8"],
    "analyze-integrable_square": ["analyze", "--model", SQUARE],
    **{f"oracle-dulac-four_saddle-corner{k}": ["oracle", "--what", "dulac", "--corner", str(k),
                                               "--model", FOUR] for k in range(1, 5)},
    "oracle-return-four_saddle": ["oracle", "--what", "return", "--model", FOUR],
    "scan-four_saddle": ["scan", "--model", FOUR, "--grid", "l1=0.3:0.6:3",
                         "--grid", "m1=6:30:3"],
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
