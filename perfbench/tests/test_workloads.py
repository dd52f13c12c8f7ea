"""The op generator: seeded, distinct, and acceptable to the CLI."""
import itertools
from types import SimpleNamespace

import pytest

from conftest import ROOT
from workloads import SQUARE, WORKLOADS, rounds, set_values

ROUNDS = 3


def first_rounds(workload, seed, count=ROUNDS):
    return list(itertools.islice(rounds(workload, seed), count))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_ops(workload):
    assert first_rounds(workload, 7) == first_rounds(workload, 7)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_other_seed_other_ops(workload):
    assert first_rounds(workload, 7) != first_rounds(workload, 8)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_rounds_share_one_mix(workload):
    kinds = [[op.check for op in ops] for ops in first_rounds(workload, 3)]
    assert all(k == kinds[0] for k in kinds)


@pytest.mark.parametrize("seed", range(5))
def test_closed_form_points_are_distinct(seed):
    points = [(op.argv[2], tuple(sorted(set_values(op.argv).items())))
              for ops in first_rounds("closed-form", seed, 20) for op in ops]
    assert len(points) == len(set(points))
    # exactly one op sits at the four_saddle default point
    assert sum(1 for model, values in points if not values and model != SQUARE) == 1


@pytest.fixture
def stubbed_cli(monkeypatch):
    """The CLI with every pipeline entry point replaced by a no-op.

    cli.main still parses the arguments, loads the model and runs all of
    its own checks of --set, --tol, --s-range and --grid; the stubs only
    record that the command got past them.
    """
    from polycycles import cli

    calls = []

    def doc(*args, **kwargs):
        calls.append(args)
        return {"command": "stub"}

    def table(*args, **kwargs):
        calls.append(args)
        return ["x"], [[1.0]]

    def report(seed, count, bias=0.0):
        calls.append((seed, count))
        return SimpleNamespace(seed=seed, count=count, bias=bias, cases=(),
                               worst_leading=0.0, worst_second=0.0, passed=lambda: True)

    for name in ("analyze", "oracle_dulac", "oracle_return", "oracle_cycles"):
        monkeypatch.setattr(cli, name, doc)
    monkeypatch.setattr(cli, "scan", table)
    monkeypatch.setattr(cli, "run_compose_check", report)
    monkeypatch.chdir(ROOT)
    return cli, calls


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_cli_accepts_every_generated_op(workload, stubbed_cli, tmp_path, capsys):
    cli, calls = stubbed_cli
    ops = [op for ops in first_rounds(workload, 11) for op in ops]
    for op in ops:
        code = cli.main(list(op.argv) + ["--out", str(tmp_path / "out.txt")])
        assert code == 0, (op.argv, capsys.readouterr().err)
    assert len(calls) == len(ops)
