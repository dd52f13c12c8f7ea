"""End-to-end pipeline drivers on the bundled models.

Expected numbers are frozen outputs of the closed-form chain; the oracle
drivers are checked for internal consistency (per-sample gaps, pinned
fits) rather than re-deriving the integration here.
"""

import hashlib
import math
import random
import sys

import numpy as np
import pytest

from polycycles import pipeline
from polycycles.cyclicity import gradient
from polycycles.errors import ModelError
from polycycles.pipeline import (_chain_quantities, analyze, build_corners, oracle_cycles,
                                 oracle_dulac, oracle_return, scan)
from polycycles.resultdoc import dumps, loads

EPS = sys.float_info.epsilon


@pytest.fixture(scope="module")
def game_doc(game_mf):
    return analyze(game_mf)


@pytest.fixture(scope="module")
def integrable_doc(integrable_mf):
    return analyze(integrable_mf)


@pytest.fixture(scope="module")
def dulac_doc(game_mf):
    return oracle_dulac(game_mf, 1)


@pytest.fixture(scope="module")
def return_doc(game_mf):
    return oracle_return(game_mf)


def prune(node):
    """Drop empty containers, which the line format cannot represent."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if isinstance(value, (dict, list)):
                kept = prune(value)
                if kept:
                    out[key] = kept
            else:
                out[key] = value
        return out
    if isinstance(node, list):
        return [prune(v) if isinstance(v, (dict, list)) else v for v in node]
    return node


class TestAnalyzeGame:
    def test_verdict(self, game_doc):
        v = game_doc["verdict"]
        assert (v["lower"], v["upper"]) == (2, 2)
        assert v["summary"] == "cyclicity in [2, 2]"
        assert v["consistent"] is True

    def test_fired_criteria(self, game_doc):
        fired = {it["label"] for it in game_doc["verdict"]["items"] if it["fired"]}
        assert fired == {"return.b", "return.d", "refined.a",
                         "displacement.b", "displacement.d", "displacement.e"}

    def test_return_block(self, game_doc):
        ret = game_doc["return"]
        assert ret["pattern"] == "below-then-above"
        assert ret["split"] == 1
        assert ret["kind"] == "A"
        assert ret["ratio"] == pytest.approx(1.0, abs=1e-12)
        assert ret["leading"] == pytest.approx(1.0, rel=1e-12)
        assert ret["second_exponent"] == pytest.approx(8 / 27, rel=1e-15)
        assert ret["second_coeff"] == pytest.approx(0.34899393115700983, rel=1e-9)
        assert ret["second_scale"] == pytest.approx(0.05628649640605542, rel=1e-9)

    def test_displacement_block(self, game_doc):
        disp = game_doc["displacement"]
        assert disp["rotation"] == 1 and disp["split"] == 3
        assert disp["alpha"] == pytest.approx(0.0, abs=1e-12)
        assert disp["exponents"] == [3.375, 3.375]
        assert disp["psi1"] == pytest.approx(0.0, abs=1e-12)
        # psi2 vanishes at the defaults, and what is left is rounding among
        # terms of size scale: a 4e-13 relative move of the corner values took
        # it from 3.6 to 23.6 eps * scale, so the bound leaves 2.7x over that
        assert abs(disp["psi2"]) <= 64 * EPS * disp["scale"]
        assert disp["psi3"] == pytest.approx(20940989.674412705, rel=1e-9)

    def test_probe_sees_non_identity(self, game_doc):
        assert game_doc["probe"]["not_identity"] is True
        assert game_doc["probe"]["error"] is None

    def test_gradients(self, game_doc):
        grads = game_doc["gradients"]
        assert sorted(grads) == ["leading", "psi1", "psi2", "psi3", "ratio", "second"]
        # r = l1 * (3/2)^3, so dr/dl1 = 27/8 and dr/dm1 = 0
        assert grads["ratio"]["l1"] == pytest.approx(3.375, rel=1e-6)
        assert abs(grads["ratio"]["m1"]) < 1e-9
        assert grads["psi3"]["m1"] == pytest.approx(25203043.77850661, rel=1e-4)
        # complex-step entries are exact to rounding: dr/dl_i = r/l_i
        r, params = game_doc["return"]["ratio"], game_doc["parameters"]
        for name in ("l1", "l2", "l3", "l4"):
            assert grads["ratio"][name] == pytest.approx(r / params[name], rel=1e-14)
        assert grads["ratio"]["m1"] == 0.0

    def test_one_chain_per_parameter(self, game_mf, monkeypatch):
        # the document's chain, then one complex chain for each of 5 parameters
        calls = []
        monkeypatch.setattr(pipeline, "build_corners",
                            lambda model: calls.append(model) or build_corners(model))
        analyze(game_mf)
        assert len(calls) == 6

    def test_parameters_and_provenance(self, game_doc, game_mf):
        assert game_doc["parameters"] == {
            "l1": 8 / 27, "l2": 1.5, "l3": 1.5, "l4": 1.5, "m1": 1625 / 162}
        prov = game_doc["provenance"]
        assert prov["input_sha256"] == hashlib.sha256(game_mf.text.encode()).hexdigest()
        assert prov["model_path"].endswith("four_saddle.model")
        assert prov["tolerances"]["zero_tol"] == 1e-9

    def test_corner_blocks(self, game_doc):
        corners = game_doc["corners"]
        assert [c["case"] for c in corners] == [
            "below-one", "above-one", "above-one", "above-one"]
        assert corners[0]["ratio"] == pytest.approx(8 / 27, rel=1e-12)
        assert corners[0]["leading"] == pytest.approx(0.016677480416609002, rel=1e-9)
        assert corners[0]["s1"] == pytest.approx(-2.3001054272471, rel=1e-9)
        assert all(c["h_in"] == 0.5 and c["h_out"] == 0.5 for c in corners)

    def test_document_round_trips(self, game_doc):
        assert loads(dumps(game_doc)) == prune(game_doc)


class TestAnalyzeIntegrable:
    def test_return_is_identity(self, integrable_doc):
        ret = integrable_doc["return"]
        assert ret["pattern"] == "above-then-below"
        assert ret["kind"] == "A"
        assert ret["ratio"] == pytest.approx(1.0, abs=1e-12)
        assert ret["leading"] == pytest.approx(1.0, rel=1e-12)
        # r*A*S1 - A^2*S2 with equal S values: zero up to rounding
        assert abs(ret["second_coeff"]) <= 1e-13 * ret["second_scale"]

    def test_corner_curvatures(self, integrable_doc):
        # the first integral makes every S value one of -2/3, -1, -3/2
        expected = [(-2 / 3, -1.0), (-1.0, -1.5), (-1.5, -1.0), (-1.0, -2 / 3)]
        got = [(c["s1"], c["s2"]) for c in integrable_doc["corners"]]
        assert len(got) == len(expected)
        for (s1, s2), (e1, e2) in zip(got, expected):
            assert abs(s1 - e1) <= 1e-12 and abs(s2 - e2) <= 1e-12

    def test_verdict_is_open(self, integrable_doc):
        v = integrable_doc["verdict"]
        assert v["lower"] == 0 and v["upper"] is None
        assert v["summary"] == "cyclicity in [0, inf]"
        assert not any(it["fired"] for it in v["items"])
        assert v["notes"][0].startswith("identity probe inconclusive")

    def test_probe_inconclusive(self, integrable_doc):
        # the flow really is periodic, so displacement sits below tolerance
        assert integrable_doc["probe"]["not_identity"] is None


class TestOracleDulac:
    def test_integration_matches_closed_form(self, dulac_doc):
        assert dulac_doc["deviation"]["leading"] < 1e-4
        assert dulac_doc["deviation"]["leading"] == pytest.approx(
            1.7699143439040199e-06, rel=1e-3)
        assert dulac_doc["deviation"]["exponent"] < 0.01

    def test_closed_form_echo(self, dulac_doc):
        assert dulac_doc["closed_form"]["ratio"] == pytest.approx(8 / 27, rel=1e-12)
        assert dulac_doc["closed_form"]["leading"] == pytest.approx(
            0.016677480416609002, rel=1e-9)

    def test_samples_clean(self, dulac_doc):
        assert len(dulac_doc["samples"]) == 13
        assert all(row["error"] is None for row in dulac_doc["samples"])
        assert dulac_doc["fit_pinned"]["rel_residual"] < 1e-7

    def test_corner_index_guard(self, game_mf):
        with pytest.raises(ModelError, match="out of range 1..4"):
            oracle_dulac(game_mf, 0)
        with pytest.raises(ModelError, match="out of range 1..4"):
            oracle_dulac(game_mf, 5)


class TestOracleReturn:
    def test_closed_form_echo(self, return_doc):
        cf = return_doc["closed_form"]
        assert cf["kind"] == "A"
        assert cf["second_coeff"] == pytest.approx(0.34899393115700983, rel=1e-9)

    def test_section(self, return_doc):
        assert return_doc["section"]["anchor"] == [0.5, 1.0]
        assert return_doc["section"]["direction"] == [0.0, -1.0]
        assert return_doc["section"]["window"][1] == pytest.approx(0.45)

    def test_gap_columns(self, return_doc):
        rows = return_doc["samples"]
        assert all(row["error"] is None for row in rows)
        for row in rows:
            assert row["gap"] == pytest.approx(row["value"] - row["two_term"],
                                               abs=1e-15)
        # the omitted tail decays faster than s, so the relative gap shrinks
        rel = [abs(r["gap"]) / r["s"] for r in rows]
        assert rel[-1] < 0.25 * rel[0]


class TestOracleCycles:
    def test_circle_has_one_stable_cycle(self, circle_mf):
        doc = oracle_cycles(circle_mf, (0.3, 2.0),
                            tol_overrides={"samples": 25, "rtol": 1e-9})
        assert doc["range"] == [0.3, 2.0]
        assert doc["warnings"] == []
        assert len(doc["cycles"]) == 1
        assert doc["cycles"][0]["s"] == pytest.approx(1.0, abs=1e-8)
        assert doc["cycles"][0]["stability"] == "stable"

    def test_staged_point_has_two_cycles(self, game_mf):
        # demo 04's staged point, as the benchmark's cycles-staged op runs it
        staged = {"l1": 0.3037037037037037, "l2": 1.3622066489493219,
                  "l3": 1.8188118943622775, "l4": 1.3622066489493219}
        doc = oracle_cycles(game_mf, (1e-8, 1e-3), overrides=staged,
                            tol_overrides={"samples": 40, "t_max": 600})
        assert doc["warnings"] == []
        assert [c["stability"] for c in doc["cycles"]] == ["unstable", "stable"]
        assert doc["cycles"][0]["s"] == pytest.approx(4.7717e-8, rel=1e-3)
        assert doc["cycles"][1]["s"] == pytest.approx(6.8975e-6, rel=1e-3)

    def test_empty_clip_rejected(self, circle_mf):
        with pytest.raises(ModelError, match="empty after clipping"):
            oracle_cycles(circle_mf, (3.0, 5.0))


class TestScan:
    def test_ratio_sign_change_along_l1(self, game_mf):
        header, rows = scan(game_mf, {"l1": (0.28, 0.31, 11)})
        assert header == ["l1", "r_minus_1", "leading_minus_1", "second",
                          "psi1", "psi2", "psi3", "error"]
        assert len(rows) == 11
        signs = "".join("+" if row[1] > 0 else "-" for row in rows)
        assert signs == "------+++++"
        # r - 1 = 27/8 * l1 - 1 on this slice
        assert rows[0][1] == pytest.approx(3.375 * 0.28 - 1.0, rel=1e-9)
        assert all(row[-1] is None for row in rows)

    def test_failing_point_reports_error(self, game_mf):
        header, rows = scan(game_mf, {"l1": (0.0, 0.3, 2)})
        bad, good = rows
        assert bad[0] == 0.0
        assert all(math.isnan(v) for v in bad[1:-1])
        assert "not hyperbolic" in bad[-1]
        assert good[-1] is None and not math.isnan(good[1])

    def test_grid_guards(self, game_mf):
        with pytest.raises(ModelError, match="not declared by the model"):
            scan(game_mf, {"qq": (0.0, 1.0, 3)})
        with pytest.raises(ModelError, match="count must be >= 1"):
            scan(game_mf, {"l1": (0.0, 1.0, 0)})
        with pytest.raises(ModelError, match="the limit is 10"):
            scan(game_mf, {"l1": (0.0, 1.0, 4), "l2": (0.0, 1.0, 4)},
                 max_points=10)
        with pytest.raises(ModelError, match="empty grid"):
            scan(game_mf, {})


def test_complex_chain_is_holomorphic(game_mf):
    # at scan points, every complex-step entry matches a central difference,
    # and the complex chain's real part is the real chain
    ranges = {"l1": (0.3, 0.9), "l2": (1.1, 3.0), "l3": (1.1, 2.0),
              "l4": (1.1, 2.8), "m1": (6.0, 30.0)}
    rng = random.Random(2504)
    for _ in range(10):
        point = {name: rng.uniform(lo, hi) for name, (lo, hi) in ranges.items()}
        real = _chain_quantities(game_mf, point)
        complex_chains = []

        def fun(p):
            complex_chains.append(_chain_quantities(game_mf, p))
            return complex_chains[-1]

        grads = gradient(fun, point)
        for q in complex_chains:
            for name, value in q.items():
                assert value.real == pytest.approx(real[name], rel=1e-13)
        for name, x in point.items():
            h = 1e-6 * max(1.0, abs(x))
            hi = _chain_quantities(game_mf, {**point, name: x + h})
            lo = _chain_quantities(game_mf, {**point, name: x - h})
            for q, g in grads.items():
                fd = (hi[q] - lo[q]) / (2.0 * h)
                if g[name] != 0.0:
                    assert g[name] == pytest.approx(fd, rel=1e-5)
                else:  # an exact zero, where the difference sees only rounding
                    assert abs(fd) <= 1e-8 * max(abs(v) for v in g.values())


def test_gradient_at_a_numpy_point(game_mf, game_doc):
    # numpy scalars as parameter values: the complex step makes them
    # np.complex128, whose real part is an np.float64
    point = {name: np.float64(v) for name, v in game_doc["parameters"].items()}
    assert point["l1"] == np.float64(8 / 27)
    grads = gradient(lambda p: _chain_quantities(game_mf, p), point)
    assert grads == game_doc["gradients"]
