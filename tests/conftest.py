from pathlib import Path

import pytest

from polycycles.model import bind, load_model
from polycycles.pipeline import build_corners

MODELS = Path(__file__).resolve().parents[1] / "models"


@pytest.fixture(scope="session")
def game_mf():
    return load_model(MODELS / "four_saddle.model")


@pytest.fixture(scope="session")
def game_corners(game_mf):
    (corners,) = build_corners([bind(game_mf)])
    return corners


@pytest.fixture(scope="session")
def game_chain(game_corners):
    return [cd.expansion for cd in game_corners]


@pytest.fixture(scope="session")
def integrable_mf():
    return load_model(MODELS / "integrable_square.model")


@pytest.fixture(scope="session")
def circle_mf():
    return load_model(MODELS / "circle_cycle.model")
