"""Every output check passes on real output and fails on a perturbed copy."""
import csv
import io
import re

import pytest

from checks import STAGED_CYCLES, check
from conftest import ROOT
from workloads import CIRCLE, FOUR, SQUARE, Op, rounds

# Cheap variants of the benchmark's op kinds, checked by the same checks.
OPS = {
    "analyze-four": Op("analyze-four", ("analyze", "--model", FOUR)),
    "analyze-square": Op("analyze-square", ("analyze", "--model", SQUARE)),
    "scan": Op("scan", ("scan", "--model", FOUR, "--grid", "l1=0.2:0.4:2",
                        "--grid", "m1=5.0:5.0:1")),
    "dulac": Op("dulac", ("oracle", "--what", "dulac", "--model", FOUR, "--corner", "2",
                          "--s-range", "2e-06:0.008192")),
    "return-four": Op("return-four", ("oracle", "--what", "return", "--model", FOUR)),
    "return-square": Op("return-square", ("oracle", "--what", "return", "--model", SQUARE)),
    "cycles-circle": Op("cycles-circle", ("oracle", "--what", "cycles", "--model", CIRCLE,
                                          "--s-range", "0.3:2.0", "--tol", "samples=25")),
    "compose": Op("compose", ("compose-check", "--seed", "5", "--count", "3")),
}


def run(op, tmp_path):
    from polycycles import cli

    out = tmp_path / "out.txt"
    assert cli.main(list(op.argv) + ["--out", str(out)]) == 0
    return out.read_bytes().decode("utf-8")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory, request):
    monkey = pytest.MonkeyPatch()
    monkey.chdir(ROOT)
    request.addfinalizer(monkey.undo)
    tmp = tmp_path_factory.mktemp("ops")
    return {kind: run(op, tmp) for kind, op in OPS.items()}


def set_value(text, key, value):
    """The document with one key's value replaced."""
    new, n = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
    assert n == 1, key
    return new


def drop(text, prefix):
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(prefix))


def edit_cell(text, row, col, fn):
    """The CSV table with one cell replaced by fn(cell)."""
    rows = list(csv.reader(io.StringIO(text)))
    rows[row][col] = fn(rows[row][col])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows(rows)
    return buf.getvalue()


def value_of(text, key):
    return float(re.search(rf"^{re.escape(key)} = (.*)$", text, flags=re.M).group(1))


@pytest.mark.parametrize("kind", sorted(OPS))
def test_real_output_passes(kind, outputs):
    assert check(OPS[kind], outputs[kind]) == []


PERTURB = {
    "analyze-four": [
        lambda t: set_value(t, "return.ratio", repr(value_of(t, "return.ratio") + 1e-9)),
        lambda t: set_value(t, "gradients.ratio.l3",
                            repr(value_of(t, "gradients.ratio.l3") * (1 + 1e-5))),
        lambda t: set_value(t, "gradients.ratio.l2", "none"),
        lambda t: set_value(t, "verdict.lower", "1"),
        lambda t: set_value(t, "verdict.consistent", "false"),
        lambda t: set_value(t, "probe.not_identity", "none"),
        lambda t: set_value(t, "return.second_coeff",
                            repr(value_of(t, "return.second_coeff") * (1 + 1e-8))),
        lambda t: set_value(t, "parameters.m1", "10.0"),
    ],
    "analyze-square": [
        lambda t: set_value(t, "verdict.lower", "1"),
        lambda t: set_value(t, "return.ratio", "1.000001"),
        lambda t: set_value(t, "verdict.summary", '"cyclicity in [0, 2]"'),
    ],
    "scan": [
        lambda t: edit_cell(t, 1, -1, lambda c: "not hyperbolic"),
        lambda t: edit_cell(t, 1, 2, lambda c: repr(float(c) + 1e-9)),
        lambda t: edit_cell(t, 2, 0, lambda c: repr(float(c) * (1 + 1e-9))),
        lambda t: t[:t.rindex("\r\n", 0, -2) + 2],
    ],
    "dulac": [
        lambda t: set_value(t, "deviation.leading", "0.0002"),
        lambda t: set_value(t, "samples.3.error", '"did not return"'),
        lambda t: set_value(t, "corner", "3"),
    ],
    "return-four": [
        lambda t: set_value(t, "closed_form.ratio", "1.0001"),
        lambda t: set_value(t, "samples.0.value", "none"),
        lambda t: set_value(t, "samples.5.value", "-0.001"),
    ],
    "return-square": [
        lambda t: set_value(t, "fit_free.exponent", "1.00001"),
        lambda t: set_value(t, "fit_free.leading", "0.99999"),
    ],
    "cycles-circle": [
        lambda t: set_value(t, "cycles.0.s", "1.0000001"),
        lambda t: set_value(t, "cycles.0.stability", '"unstable"'),
        lambda t: drop(t, "cycles."),
    ],
    "compose": [
        lambda t: set_value(t, "passed", "false"),
        lambda t: drop(t, "cases.6."),
    ],
}


@pytest.mark.parametrize("kind, index",
                         [(k, i) for k, fs in sorted(PERTURB.items()) for i in range(len(fs))])
def test_perturbed_output_fails(kind, index, outputs):
    perturbed = PERTURB[kind][index](outputs[kind])
    assert perturbed != outputs[kind]
    assert check(OPS[kind], perturbed) != []


def test_perturbed_scan_point_fails(outputs):
    # the same table checked against a grid it does not hold
    shifted = Op("scan", OPS["scan"].argv[:4] + ("l1=0.2:0.41:2",) + OPS["scan"].argv[5:])
    assert check(shifted, outputs["scan"]) != []


def test_biased_compose_check_fails(tmp_path, monkeypatch):
    # the program's own perturbation hook must be caught too
    monkeypatch.chdir(ROOT)
    op = Op("compose", OPS["compose"].argv + ("--bias", "1e-6"))
    assert check(op, run(op, tmp_path)) != []


def staged_doc(cycles):
    lines = ['command = "oracle"', 'what = "cycles"']
    for i, (stability, s) in enumerate(cycles):
        lines += [f"cycles.{i}.s = {s!r}", f'cycles.{i}.stability = "{stability}"']
    return "\n".join(lines) + "\n"


STAGED_OP = next(rounds("oracle", 0))[-1]


def test_staged_check_on_reference_cycles():
    assert STAGED_OP.check == "cycles-staged"
    # the real op takes seconds; its check is exercised on the recorded values
    assert check(STAGED_OP, staged_doc(STAGED_CYCLES)) == []
    (st1, s1), (st2, s2) = STAGED_CYCLES
    for bad in ([(st1, s1)],
                [(st1, s1 * 1.003), (st2, s2)],
                [(st1, s1), (st2, s2 * 0.99)],
                [(st2, s1), (st1, s2)],
                [(st1, s1), (st2, s2), ("stable", 1e-4)]):
        assert check(STAGED_OP, staged_doc(bad)) != []


def test_unreadable_output_fails():
    assert check(OPS["dulac"], "this is not a document") != []
    assert check(OPS["scan"], "") != []
