"""Result documents: what the written lines re-read as, and CSV tables."""

import math

import pytest

from conftest import flat_doc
from polycycles.errors import ModelError
from polycycles.resultdoc import dumps, render_csv


class TestRoundTrip:
    # each written value re-reads as what it was (conftest.flat_doc)
    def test_scalars(self):
        doc = {"n": 3, "x": 0.1, "flag": True, "off": False,
               "label": "saddle", "gap": None}
        back = flat_doc(dumps(doc))
        assert back == doc
        assert [type(v) for v in back.values()] == [type(v) for v in doc.values()]

    def test_floats_are_bit_exact(self):
        doc = {"a": 1 / 3, "b": 6.200313635429338, "c": 1e-300, "d": -0.0}
        back = flat_doc(dumps(doc))
        for key, value in doc.items():
            assert math.copysign(1.0, back[key]) == math.copysign(1.0, value)
            assert back[key] == value

    def test_non_finite(self):
        text = dumps({"p": math.inf, "q": -math.inf, "r": math.nan})
        assert text == "p = inf\nq = -inf\nr = nan\n"
        back = flat_doc(text)
        assert back["p"] == math.inf and back["q"] == -math.inf
        assert math.isnan(back["r"])

    def test_nested_and_lists(self):
        doc = {
            "corners": [
                {"index": 1, "ratio": 0.2962962962962963},
                {"index": 2, "ratio": 1.5},
            ],
            "verdict": {"lower": 2, "upper": 2, "notes": []},
        }
        # an empty list flattens to nothing, so it is absent on re-read
        assert flat_doc(dumps(doc)) == {
            "corners.0.index": 1, "corners.0.ratio": 0.2962962962962963,
            "corners.1.index": 2, "corners.1.ratio": 1.5,
            "verdict.lower": 2, "verdict.upper": 2}

    def test_awkward_strings(self):
        doc = {"msg": 'he said "s > 0", twice', "path": "a,b\nc", "empty": ""}
        assert flat_doc(dumps(doc)) == doc

    def test_list_keys_are_digit_segments(self):
        text = dumps({"vals": [10, 20, 30]})
        assert text == "vals.0 = 10\nvals.1 = 20\nvals.2 = 30\n"
        assert flat_doc(text) == {"vals.0": 10, "vals.1": 20, "vals.2": 30}


class TestErrors:
    def test_bad_document_key(self):
        with pytest.raises(ModelError, match="unusable document key"):
            dumps({"a.b": 1})

    def test_unserializable_value(self):
        with pytest.raises(ModelError, match="unserializable value"):
            dumps({"x": {1, 2}})


class TestCsv:
    def test_shape_and_none(self):
        text = render_csv(["l1", "sign"], [[0.28, "-"], [0.31, None]])
        lines = text.split("\r\n")
        assert lines[0] == "l1,sign"
        assert lines[1] == "0.28,-"
        assert lines[2] == "0.31,"      # None renders as an empty cell
        assert lines[3] == ""           # trailing CRLF

    def test_quoting_is_minimal(self):
        text = render_csv(["note"], [["needs, a quote"], ["plain"]])
        assert '"needs, a quote"' in text
        assert '"plain"' not in text

    def test_float_cells_round_trip(self):
        text = render_csv(["x"], [[1 / 3]])
        assert float(text.split("\r\n")[1]) == 1 / 3
