import json
import math
from pathlib import Path

import pytest

from polycycles import cli
from polycycles.model import bind, load_model
from polycycles.pipeline import build_corners
from polycycles.resultdoc import dumps

MODELS = Path(__file__).resolve().parents[1] / "models"

_WORDS = {"none": None, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def flat_doc(text):
    """A result document's lines as {dotted key: value}, each value re-read
    with json.loads or as one of the words none, nan, inf and -inf."""
    pairs = (line.split(" = ", 1) for line in text.splitlines())
    return {key: _WORDS[value] if value in _WORDS else json.loads(value) for key, value in pairs}


@pytest.fixture
def run_doc(monkeypatch, tmp_path):
    """cli.main on a document command, which must exit 0: the dict it serialises."""
    docs = []
    monkeypatch.setattr(cli, "dumps", lambda doc: docs.append(doc) or dumps(doc))

    def run(argv):
        assert cli.main(argv + ["--out", str(tmp_path / "doc.txt")]) == 0
        return docs.pop()
    return run


@pytest.fixture(scope="session")
def game_mf():
    return load_model(MODELS / "four_saddle.model")


@pytest.fixture(scope="session")
def game_chain(game_mf):
    (chain,) = build_corners([bind(game_mf)], both_s=True)
    return chain


@pytest.fixture(scope="session")
def integrable_mf():
    return load_model(MODELS / "integrable_square.model")


@pytest.fixture(scope="session")
def circle_mf():
    return load_model(MODELS / "circle_cycle.model")
