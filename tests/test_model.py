"""Model file parsing, validation, and parameter binding."""

from fractions import Fraction

import numpy as np
import pytest

from polycycles import model as model_module
from polycycles.errors import ModelError, UsageError
from polycycles.expressions import parse_expression
from polycycles.model import bind, load_model, merge_values, parse_model
from polycycles.pipeline import build_corners

MINIMAL = """
[field]
dot_x = x
dot_y = -2*y
"""

SQUARE = """
[params]
a = 2/5
b = 1/2

[field]
dot_x = x*(x - 1)*(y - a)
dot_y = -y*(y - 1)*(x - b)

[polycycle]
corners = (0,1) (0,0) (1,0) (1,1)
orientation = ccw
"""


class TestParsing:
    def test_minimal_field_only(self):
        mf = parse_model(MINIMAL)
        assert mf.params == ()
        assert mf.expr_x == parse_expression("x") and mf.expr_y == parse_expression("-2*y")
        assert mf.corners == ()
        assert mf.base_section is None and mf.path is None

    def test_square_polycycle(self):
        mf = parse_model(SQUARE)
        assert mf.param_names == ("a", "b")
        assert mf.defaults() == {"a": Fraction(2, 5), "b": Fraction(1, 2)}
        assert mf.corners == ((0.0, 1.0), (0.0, 0.0), (1.0, 0.0), (1.0, 1.0))

    def test_exact_fraction_defaults(self, game_mf):
        # defaults stay exact rationals until bind time
        defaults = game_mf.defaults()
        assert defaults["l1"] == Fraction(8, 27)
        assert defaults["m1"] == Fraction(1625, 162)
        assert game_mf.param_names == ("l1", "l2", "l3", "l4", "m1")

    def test_comments_and_blank_lines_ignored(self):
        mf = parse_model("# header\n\n[field]\ndot_x = x  # trailing\ndot_y = -y\n")
        assert mf.expr_x == parse_expression("x")

    def test_sections_and_options(self):
        mf = parse_model(MINIMAL + "\n[options]\nt_max = 50\nsamples = 100\n")
        assert mf.options == (("t_max", 50.0), ("samples", 100.0))
        assert mf.base_section is None

    def test_base_section(self, circle_mf):
        sect = circle_mf.base_section
        assert sect is not None
        assert tuple(sect.anchor) == (0.0, 0.0)
        assert tuple(sect.direction) == (1.0, 0.0)
        assert sect.window == (0.2, 2.5)


class TestParseErrors:
    def test_missing_field_section(self):
        with pytest.raises(ModelError, match="no \\[field\\] section"):
            parse_model("[params]\na = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ModelError, match="unknown section \\[fields\\]"):
            parse_model("[fields]\ndot_x = x\n")

    def test_content_before_header(self):
        with pytest.raises(ModelError, match="before the first"):
            parse_model("dot_x = x\n[field]\ndot_y = -y\n")

    def test_missing_equals(self):
        with pytest.raises(ModelError, match="expected 'key = value'"):
            parse_model("[field]\ndot_x x\ndot_y = -y\n")

    def test_field_keys(self):
        with pytest.raises(ModelError, match="keys are dot_x and dot_y"):
            parse_model("[field]\ndot_z = x\n")
        with pytest.raises(ModelError, match="duplicate dot_x"):
            parse_model("[field]\ndot_x = x\ndot_x = y\ndot_y = -y\n")
        with pytest.raises(ModelError, match="both dot_x and dot_y"):
            parse_model("[field]\ndot_x = x\n")

    def test_bad_expression_names_the_field(self):
        with pytest.raises(ModelError, match="\\[field\\] dot_x"):
            parse_model("[field]\ndot_x = x +\ndot_y = -y\n")
        # an undeclared name is a load-time error, not a bind-time one
        with pytest.raises(ModelError, match="undeclared identifier 'c'"):
            parse_model("[field]\ndot_x = c*x\ndot_y = -y\n")

    def test_parameter_guards(self):
        with pytest.raises(ModelError, match="bad parameter name"):
            parse_model("[params]\n2a = 1\n" + MINIMAL)
        with pytest.raises(ModelError, match="shadows a field variable"):
            parse_model("[params]\nx = 1\n" + MINIMAL)
        with pytest.raises(ModelError, match="duplicate parameter"):
            parse_model("[params]\na = 1\na = 2\n" + MINIMAL)
        with pytest.raises(ModelError, match="unreadable number"):
            parse_model("[params]\na = 1/0\n" + MINIMAL)

    def test_polycycle_guards(self):
        with pytest.raises(ModelError, match="missing the corners"):
            parse_model(MINIMAL + "[polycycle]\norientation = ccw\n")
        with pytest.raises(ModelError, match="repeats a vertex"):
            parse_model(MINIMAL + "[polycycle]\ncorners = (0,0) (1,0) (0,0)\n")
        with pytest.raises(ModelError, match="orientation must be ccw or cw"):
            parse_model(MINIMAL + "[polycycle]\ncorners = (0,0) (1,0)\n"
                        "orientation = clockwise\n")
        with pytest.raises(ModelError, match="unknown \\[polycycle\\] key"):
            parse_model(MINIMAL + "[polycycle]\ncorners = (0,0) (1,0)\nwinding = 1\n")
        with pytest.raises(ModelError, match="unparsed text"):
            parse_model(MINIMAL + "[polycycle]\ncorners = (0,0) junk (1,0)\n")

    def test_orientation_must_match_corner_order(self):
        cw_square = SQUARE.replace("corners = (0,1) (0,0) (1,0) (1,1)",
                                   "corners = (0,1) (1,1) (1,0) (0,0)")
        with pytest.raises(ModelError, match="declared orientation ccw"):
            parse_model(cw_square)

    def test_degenerate_polygon(self):
        with pytest.raises(ModelError, match="zero signed area"):
            parse_model(MINIMAL + "[polycycle]\ncorners = (0,0) (1,1) (2,2)\n"
                        "orientation = ccw\n")

    def test_section_guards(self):
        # corner sections are always half an edge; h is not a model key
        with pytest.raises(ModelError, match="unknown \\[sections\\] key 'h'"):
            parse_model(MINIMAL + "[sections]\nh = 0.25\n")
        with pytest.raises(ModelError, match="unknown \\[sections\\] key"):
            parse_model(MINIMAL + "[sections]\nwidth = 1\n")
        with pytest.raises(ModelError, match="must be given together"):
            parse_model(MINIMAL + "[sections]\nbase_anchor = (0,0)\n")
        with pytest.raises(ModelError, match="expected a pair"):
            parse_model(MINIMAL + "[sections]\nbase_anchor = 0\n"
                        "base_direction = (1,0)\n")

    def test_base_section_needs_a_model_without_polycycle(self, game_mf):
        # a base section next to corners would compare the closed form of
        # corner 1's entry line with an integration on another section
        text = game_mf.text + ("\n[sections]\nbase_anchor = (1,1/2)\n"
                               "base_direction = (-1,0)\nbase_window = (1e-12, 0.45)\n")
        with pytest.raises(ModelError, match="\\[sections\\] is for models without a polycycle"):
            parse_model(text)

    def test_unknown_option(self):
        with pytest.raises(ModelError, match="unknown option 'speed'"):
            parse_model(MINIMAL + "[options]\nspeed = 9\n")
        for gone in ("s_lo", "s_hi"):  # --s-range is the only range control
            with pytest.raises(ModelError, match=f"unknown option '{gone}'"):
                parse_model(MINIMAL + f"[options]\n{gone} = 1e-3\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelError, match="cannot read model file"):
            load_model(tmp_path / "absent.model")


class TestBinding:
    def test_defaults_and_overrides(self, game_mf):
        values = merge_values(game_mf, {"l1": "1/3"})
        assert values["l1"] == Fraction(1, 3)
        assert values["l2"] == Fraction(3, 2)

    def test_unknown_override(self, game_mf):
        with pytest.raises(UsageError, match="unknown parameter 'zz'"):
            merge_values(game_mf, {"zz": 1.0})

    def test_bind_instantiates_field(self, integrable_mf):
        model = bind(integrable_mf)
        assert model.values == {"a": 0.4, "b": 0.5}
        # dot_x = x(x-1)(y - a) at (2, 1): 2 * 1 * 0.6
        assert np.polynomial.polynomial.polyval2d(2.0, 1.0, model.field_x) == pytest.approx(1.2)

    def test_bind_reuses_the_parsed_fields(self, game_mf, monkeypatch):
        calls = []
        monkeypatch.setattr(model_module, "parse_expression",
                            lambda *args, **kwargs: calls.append(args))
        fields = [bind(game_mf, {"l1": l1}).field_x
                  for l1 in ("0.3", "0.31", "0.32")]
        assert calls == []
        assert not np.array_equal(fields[0], fields[1])
        assert not np.array_equal(fields[1], fields[2])

    # the field is checked against the polycycle where the corners are built

    def test_traversal_check_accepts_square(self, integrable_mf):
        (corners,) = build_corners([bind(integrable_mf)])
        assert integrable_mf.corners == ((0.0, 1.0), (0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
        assert len(corners) == 4  # an expansion per corner, not an error

    def test_traversal_check_rejects_reversed_order(self, integrable_mf):
        text = integrable_mf.text.replace(
            "corners = (0,1) (0,0) (1,0) (1,1)",
            "corners = (0,1) (1,1) (1,0) (0,0)").replace(
            "orientation = ccw", "orientation = cw")
        model = bind(parse_model(text))
        (lane,) = build_corners([model])
        with pytest.raises(ModelError, match="lies on the unstable axis"):
            raise lane

    def test_non_invariant_edge_rejected(self):
        # rotation field: the declared square edges are not orbit lines
        text = ("[field]\ndot_x = -y + x\ndot_y = x + y\n"
                "[polycycle]\ncorners = (0,0) (1,0) (1,1) (0,1)\n")
        model = bind(parse_model(text))
        (lane,) = build_corners([model])
        with pytest.raises(ModelError, match="is not invariant"):
            raise lane
