"""The package namespace: every public name resolves on first access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polycycles


def test_every_public_name_is_the_object_of_its_home_module():
    for name in (n for n in polycycles.__all__ if n != "__version__"):
        obj = getattr(polycycles, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("polycycles.") and getattr(home, name) is obj, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from polycycles import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(polycycles.__all__)


def test_a_submodule_resolves_after_a_bare_import():
    # in a fresh process, where nothing has imported polycycles.flow yet
    src = str(Path(polycycles.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, polycycles\n"
            "print('polycycles.flow' in sys.modules, polycycles.flow.__name__)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "polycycles.flow"]


@pytest.mark.parametrize("name", ["no_such_name", "_HOME_", "__wrapped__"])
def test_an_unknown_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(polycycles, name)
