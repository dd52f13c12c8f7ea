"""End-to-end pipeline drivers on the bundled models.

Expected numbers are frozen outputs of the closed-form chain; the oracle
drivers are checked for internal consistency (per-sample gaps, pinned
fits) rather than re-deriving the integration here.
"""

import hashlib
import math
import random
import re
import sys

import numpy as np
import pytest

from polycycles import pipeline
from polycycles.calculus import CompensatorTerm
from polycycles.cli import main
from polycycles.cyclicity import gradient
from polycycles.errors import ModelError, UnsupportedGeometryError
from polycycles.model import bind, parse_model
from polycycles.pipeline import (_chain_quantities, analyze, build_corners, oracle_cycles,
                                 oracle_dulac, oracle_return, scan)
from polycycles.resultdoc import _flatten, block, dumps, loads

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


class TestAnalyzeInterleaved:
    """l1 = l3 = 0.5: corners 1 and 3 contract, 2 and 4 expand, alternately."""

    @pytest.fixture(scope="class")
    def doc(self, game_mf):
        return analyze(game_mf, {"l1": "0.5", "l3": "0.5"})

    def test_pattern_and_displacement(self, doc):
        assert doc["return"]["pattern"] == "interleaved"
        assert doc["displacement"] == {
            "unavailable": "no rotation arranges the corners as an expanding block "
                           "followed by a contracting block"}

    def test_verdict(self, doc):
        assert (doc["verdict"]["lower"], doc["verdict"]["upper"]) == (0, 0)

    def test_s1_withheld_on_the_pole(self, doc):
        # lam = 0.5 puts S1's Mellin order 1/lam on the pole at 2
        for corner in (doc["corners"][0], doc["corners"][2]):
            assert corner["s1"] is None
            assert corner["notes"] == [
                "S1 unavailable: Mellin order alpha=2.0 is within 1e-06 of the pole at 2"]


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


def _polycycle(corners, field=("x", "-y")):
    return parse_model(f"[field]\ndot_x = {field[0]}\ndot_y = {field[1]}\n"
                       f"[polycycle]\ncorners = {corners}\n")


class TestSectionGeometry:
    """Sections come from the corner list alone, before any chart is built."""

    @pytest.mark.parametrize("field", [("x", "-y"), ("x*(1 - x)", "-y*(1 + x*y)"),
                                       ("-y + x", "x + y")])
    def test_l_shaped_hexagon_does_not_chain(self, field, tmp_path):
        # the edge into corner 3 runs down, the edge out of corner 4 up
        mf = _polycycle("(0,0) (2,0) (2,1) (1,1) (1,2) (0,2)", field)
        with pytest.raises(UnsupportedGeometryError, match="corner 3 exit section and "
                           "corner 4 entry section are different curves"):
            build_corners(bind(mf))
        path = tmp_path / "hexagon.model"
        path.write_text(mf.text, encoding="utf-8")
        assert main(["analyze", "--model", str(path)]) == 3

    def test_triangle_does_not_chain(self):
        mf = _polycycle("(0,1) (0,0) (1,0)", ("x*(1 - x - y)", "y*(x + y - 1)"))
        with pytest.raises(UnsupportedGeometryError, match="corner 1 exit section and "
                           "corner 2 entry section are different curves"):
            analyze(mf)

    def test_oracles_skip_an_unrelated_pole(self, game_mf):
        # at l2 = 1.000001 corner 2's Mellin order sits on its pole; neither
        # oracle below compares against corner 2's closed form
        near_pole = {"l2": "1.000001"}
        doc = oracle_cycles(game_mf, (1e-4, 1e-2), overrides=near_pole,
                            tol_overrides={"samples": 6})
        assert doc["range"] == [1e-4, 1e-2]
        doc = oracle_dulac(game_mf, 1, overrides=near_pole)
        assert all(row["error"] is None for row in doc["samples"])

    def test_oracles_build_only_the_corners_they_compare(self, game_mf, monkeypatch):
        calls = []
        for name in ("normalize_saddle", "dulac_coefficients"):
            real = getattr(pipeline, name)
            monkeypatch.setattr(pipeline, name, lambda *args, _name=name, _real=real:
                                calls.append(_name) or _real(*args))
        oracle_dulac(game_mf, 2, s_range=(1e-4, 1e-2))
        assert calls == ["normalize_saddle", "dulac_coefficients"]
        del calls[:]
        oracle_cycles(game_mf, (1e-4, 1e-2), tol_overrides={"samples": 6})
        assert calls == []


def _moved(mf, old_xy, components, corners):
    """mf carried to new coordinates (x, y): the old point is ``old_xy`` of
    the new one, dot_x and dot_y are ``components`` of the old field f, g
    there, and the corner list is ``corners``."""
    def at_old_point(expr):
        return "(" + re.sub(r"\b[xy]\b", lambda m: old_xy[m.group(0)], expr) + ")"

    text = mf.text
    f, g = (at_old_point(re.search(rf"^{key} = (.*)$", text, re.M).group(1))
            for key in ("dot_x", "dot_y"))
    for key, component in zip(("dot_x", "dot_y"), components):
        text = re.sub(rf"^{key} = .*$", f"{key} = " + component.format(f=f, g=g), text,
                      flags=re.M)
    return parse_model(re.sub(r"^corners = .*$", f"corners = {corners}", text, flags=re.M))


def _leaves(doc):
    """Every scalar of a document by its dotted key."""
    out = []
    _flatten("", doc, out)
    return dict(out)


class TestSlantedEdges:
    """A chart's axes are the corner's edges, whatever their direction.  A
    model carried over by a rotation has the same closed forms; one carried
    over by a shear, a parallelogram, has them in its own section units."""

    # (cos, sin) = (3/5, 4/5): the old point is R (x, y), the new field
    # R^T (f, g), and the unit square's corners go to R^T times each
    ROTATION = ({"x": "(3/5*x + 4/5*y)", "y": "(-4/5*x + 3/5*y)"},
                ("3/5*{f} - 4/5*{g}", "4/5*{f} + 3/5*{g}"),
                "(-4/5,3/5) (0,0) (3/5,4/5) (-1/5,7/5)")
    # (x, y) = (X + Y/2, Y)
    SHEAR = ({"x": "(x - y/2)", "y": "y"}, ("{f} + {g}/2", "{g}"),
             "(1/2,1) (0,0) (1,0) (3/2,1)")

    @pytest.fixture(scope="class")
    def sheared_mf(self, game_mf):
        return _moved(game_mf, *self.SHEAR)

    @pytest.mark.parametrize("name", ["game_mf", "integrable_mf"],
                             ids=["four_saddle", "integrable_square"])
    def test_rotated_model_reproduces_the_document(self, name, request):
        mf = request.getfixturevalue(name)
        want, got = _leaves(analyze(mf)), _leaves(analyze(_moved(mf, *self.ROTATION)))
        assert got.keys() == want.keys()
        # numbers that are zero to rounding are compared on the displacement's scale
        scale = abs(want["displacement.scale"])
        for key, value in want.items():
            if key.startswith("provenance.") or ".location." in key or key.endswith(".detail"):
                continue  # the corners moved; a verdict item's detail prints its numbers
            if isinstance(value, float) and abs(value) <= 1e-12 * scale:
                assert abs(got[key] - value) <= 1e-10 * scale, key
            elif isinstance(value, float):
                assert got[key] == pytest.approx(value, rel=1e-10), key
            else:
                assert got[key] == value, key

    @pytest.mark.parametrize("overrides, bounds", [({}, [2, 2]),
                                                   ({"l1": "0.31", "m1": "8"}, [0, 0])],
                             ids=["defaults", "l1_0.31-m1_8"])
    def test_sheared_return_map_scales_with_the_edge(self, game_mf, sheared_mf,
                                                     overrides, bounds):
        # corner 1's entry line runs along the slanted edge, of length kappa,
        # so its parameter is kappa times the square's: R(s) = kappa R0(s/kappa),
        # with R0(s) = s^r (A + c s^w + ...)
        kappa = math.sqrt(5) / 2
        want = analyze(game_mf, overrides)["return"]
        doc = analyze(sheared_mf, overrides)
        got = doc["return"]
        r, w = want["ratio"], want["second_exponent"]
        assert got["ratio"] == pytest.approx(r, rel=1e-10)
        assert got["leading"] == pytest.approx(kappa ** (1 - r) * want["leading"], rel=1e-10)
        assert got["second_coeff"] == pytest.approx(
            kappa ** (1 - r - w) * want["second_coeff"], rel=1e-10)
        assert [doc["verdict"]["lower"], doc["verdict"]["upper"]] == bounds

    @pytest.mark.parametrize("corner", [1, 2, 3, 4])
    def test_sheared_corners_agree_with_integration(self, sheared_mf, corner):
        assert oracle_dulac(sheared_mf, corner)["deviation"]["leading"] <= 1e-4

    def test_kolmogorov_triangle_still_exits_3(self, tmp_path, capsys):
        path = tmp_path / "triangle.model"
        path.write_text(_polycycle("(0,1) (0,0) (1,0)", ("x*(1 - x - y)", "y*(x + y - 1)")).text,
                        encoding="utf-8")
        assert main(["analyze", "--model", str(path)]) == 3
        assert ("corner 1 exit section and corner 2 entry section are different curves"
                in capsys.readouterr().err)


class TestShortEdges:
    """Each separatrix's footprint is checked out to its own section, so an
    elongated rectangle and a square of side 1/100 keep clear of the next
    corner.  Both are integrable_square's field carried over by a scaling:
    y -> y/k turns the rectangle's field into k times the square's, and
    (x, y) -> (x, y)/d the small square's into the square's, in time scaled
    by 1/d."""

    RECTANGLE = """
[params]
a = 2/5
b = 1/2
k = 1/5

[field]
dot_x = x*(x - 1)*(y - a*k)
dot_y = -y*(y - k)*(x - b)

[polycycle]
corners = (0,1/5) (0,0) (1,0) (1,1/5)
orientation = ccw
"""

    SMALL_SQUARE = """
[params]
a = 2/5
b = 1/2
d = 1/100

[field]
dot_x = x*(x - d)*(y - a*d)/d^2
dot_y = -y*(y - d)*(x - b*d)/d^2

[polycycle]
corners = (0,1/100) (0,0) (1/100,0) (1/100,1/100)
orientation = ccw
"""

    # integrable_square's (S1, S2) per corner
    SQUARE_S = [(-2 / 3, -1.0), (-1.0, -1.5), (-1.5, -1.0), (-1.0, -2 / 3)]

    @pytest.fixture(scope="class")
    def rectangle(self):
        return parse_model(self.RECTANGLE)

    @pytest.fixture(scope="class")
    def small_square(self):
        return parse_model(self.SMALL_SQUARE)

    def test_rectangle_closed_form(self, rectangle):
        doc = analyze(rectangle)
        # the square's S values carried over by y -> y/k: each S whose
        # derivative is taken across y is the square's over k
        expected = [(-10 / 3, -1.0), (-1.0, -7.5), (-7.5, -1.0), (-1.0, -10 / 3)]
        for corner, (e1, e2) in zip(doc["corners"], expected):
            assert corner["s1"] == pytest.approx(e1, rel=4e-14)
            assert corner["s2"] == pytest.approx(e2, rel=4e-14)
        assert doc["return"]["ratio"] == pytest.approx(1.0, abs=3e-14)
        assert doc["return"]["leading"] == pytest.approx(1.0, abs=3e-14)
        assert doc["verdict"]["summary"] == "cyclicity in [0, inf]"

    def test_rectangle_oracles(self, rectangle):
        # the flow along the short edges is five times slower than the square's
        doc = oracle_return(rectangle, tol_overrides={"t_max": 5000})
        assert all(row["error"] is None and abs(row["gap"]) <= 1e-10 for row in doc["samples"])
        for corner in (1, 2, 3, 4):
            assert oracle_dulac(rectangle, corner)["deviation"]["leading"] <= 1e-7

    def test_small_square_closed_form(self, small_square):
        doc = analyze(small_square)
        for corner, (e1, e2) in zip(doc["corners"], self.SQUARE_S):
            assert corner["s1"] == pytest.approx(100 * e1, rel=5e-10)
            assert corner["s2"] == pytest.approx(100 * e2, rel=5e-10)

    def test_small_square_oracles(self, small_square):
        doc = oracle_return(small_square)
        assert all(row["error"] is None and abs(row["gap"]) <= 5e-11 for row in doc["samples"])
        # the default dulac grid starts at half the window's top, 0.9 h_in / 2
        doc = oracle_dulac(small_square, 2)
        assert doc["samples"][0]["s"] == pytest.approx(0.00225, rel=1e-15)
        assert all(row["error"] is None and 1e-12 <= row["s"] <= 0.0045
                   for row in doc["samples"])


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
        # over the limit: rejected from the counts, before any axis is built
        with pytest.raises(ModelError, match="grid has 1001000 points; the limit is 1000000"):
            scan(game_mf, {"l1": (0.0, 1.0, 1001), "l2": (0.0, 1.0, 1000)})
        with pytest.raises(ModelError, match="empty grid"):
            scan(game_mf, {})


class TestBlockLayouts:
    """Blocks written by resultdoc.block carry their dataclass's fields in
    declaration order, so a field added to the dataclass shows up here."""

    FIT = ["exponent", "leading", "second_exponent", "second_coeff", "residual_slope",
           "rel_residual", "confident", "notes", "grid"]

    def test_analyze_blocks(self, game_doc):
        disp = game_doc["displacement"]
        assert list(disp) == ["rotation", "split", "alpha", "exponents", "psi1", "psi2",
                              "psi3", "scale", "notes"]
        assert list(game_doc["verdict"]["items"][0]) == [
            "label", "kind", "bound", "fired", "condition", "detail"]
        # tuple fields are lists in memory, as the document reads them back
        assert type(disp["exponents"]) is list and type(disp["notes"]) is list

    def test_fit_blocks(self, dulac_doc):
        for key in ("fit_free", "fit_pinned"):
            fit = dulac_doc[key]
            assert list(fit) == self.FIT
            assert type(fit["grid"]) is list and type(fit["notes"]) is list

    def test_compose_check_cases(self, tmp_path):
        out = tmp_path / "check.txt"
        assert main(["compose-check", "--seed", "42", "--count", "2", "--out", str(out)]) == 0
        assert list(loads(out.read_text())["cases"][0]) == [
            "case", "trials", "max_leading_dev", "max_second_dev", "max_offset_dev"]

    def test_compensator(self):
        comp = CompensatorTerm(exponent=1.5, alpha=0.25, plain=2.0, wrapped=-1.0)
        assert list(block(comp).items()) == [
            ("exponent", 1.5), ("alpha", 0.25), ("plain", 2.0), ("wrapped", -1.0)]


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
