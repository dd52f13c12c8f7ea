"""Randomized oracle for the composition calculus.

The oracle only evaluates maps pointwise in high precision and peels
coefficients by finite differencing, so agreement with the closed-form
rules is a genuine cross-check, not a tautology.
"""

import dataclasses
import math
from random import Random

import mpmath as mp
import pytest

from polycycles import composecheck
from polycycles.calculus import compose_pair
from polycycles.composecheck import (
    COMPOSE_CASES,
    INVERSE_CASES,
    ORACLE_DPS,
    PEEL_BITS,
    _draw_compose,
    _draw_inverse,
    _exact,
    _mp_map,
    _second_offset,
    oracle_compose,
    oracle_inverse,
    run_compose_check,
)
from polycycles.errors import NumericError

# The first map drawn for each case from the stream Random(f"42:{case}"),
# as (ratio, leading, offset, coefficient).
FIRST_DRAWS_AT_42 = {
    "above-above": ((1.887705947145103, 1.7837344107248871, 1.0, -0.7812169033708125),
                    (1.9148813768967088, 1.2316148663173332, 1.0, 0.5168635183200423)),
    "below-below": ((0.7582045665019973, 1.7829530226885262, 0.7582045665019973,
                     0.3248161130212119),
                    (0.6097667863423215, 1.94489216377132, 0.6097667863423215,
                     0.7844453805862478)),
    "below-above": ((0.7502031612345946, 1.3157292045464983, 0.7502031612345946,
                     0.5972861236526122),
                    (1.6388995478943191, 0.7920569024636059, 1.0, 0.14076505723114166)),
    "above-below": ((2.4642844491335616, 0.8630214379918222, 1.0, -0.3781381215011487),
                    (0.5220744577027688, 1.3708043010617084, 0.5220744577027688,
                     0.6157966472503265)),
    "resonant": ((1.7496544345537015, 0.7471812693472786, 1.2509766476943782,
                  -0.23704147253557453),
                 (0.7214092185938815, 0.7884684481605133, 0.7149849838853893,
                  -0.15637231034825178)),
    "inverse-above": ((2.4855438665648215, 0.5992523044004765, 1.0, 0.06069708965536632),),
    "inverse-below": ((0.6575962318105122, 1.0764770438838294, 0.6575962318105122,
                       -0.27001542343866214),),
}


def _terms(d):
    return (d.ratio, d.leading, d.terms[0][0], d.terms[0][1])


class TestExactMaps:
    def test_exact_map_packaging(self):
        d = _exact(0.7, 2.0, 0.7, -0.3)
        assert d.ratio == 0.7 and d.leading == 2.0
        assert d.terms[0][0] == 0.7 and d.terms[0][1] == -0.3
        assert d.case == "below-one"
        # exact map: nothing hides beyond the explicit second term
        assert d.ell == (0.7, math.inf)

    def test_map_and_derivative_agree(self):
        with mp.workdps(40):
            raw = _mp_map(_exact(1.5, 2.0, 1.0, 0.4))

            def f(x):
                return tuple(mp.mpf(v) for v in raw(x._mpf_, mp.mp.prec))

            x = mp.mpf("0.37")
            h = mp.mpf("1e-12")
            numeric = (f(x + h)[0] - f(x - h)[0]) / (2 * h)
            value, slope = f(x)
            assert abs(value - x**1.5 * (2 + 0.4 * x)) < mp.mpf("1e-38")
            assert abs(numeric - slope) < mp.mpf("1e-20")

    def test_first_draws_are_pinned(self):
        # the per-case random streams and the draw order are part of what a
        # seed means: a refactor must draw the same maps
        for case in COMPOSE_CASES:
            drawn = _draw_compose(Random(f"42:{case}"), case)
            assert tuple(_terms(d) for d in drawn) == FIRST_DRAWS_AT_42[case]
        for case in INVERSE_CASES:
            drawn = _draw_inverse(Random(f"42:{case}"), case)
            assert (_terms(drawn),) == FIRST_DRAWS_AT_42[case]


class TestOracles:
    def test_compose_spot_value(self):
        lead, second, off = oracle_compose(_exact(2.0, 2.0, 1.0, 3.0),
                                           _exact(3.0, 5.0, 1.0, 7.0))
        assert lead == pytest.approx(40.0, rel=1e-13)
        assert second == pytest.approx(180.0, rel=1e-13)
        assert off == pytest.approx(1.0, abs=1e-12)

    def test_inverse_newton_takes_two_evaluations_per_sample(self, monkeypatch):
        # three peel samples of two Newton steps each: the second step is
        # below 10**((6 - dps)/2), so no third evaluation confirms it
        calls = []

        def counted(d):
            f = _mp_map(d)
            return lambda x, prec: calls.append(x) or f(x, prec)

        monkeypatch.setattr(composecheck, "_mp_map", counted)
        for case in INVERSE_CASES:
            rng = Random(f"42:{case}")
            for _ in range(5):
                del calls[:]
                oracle_inverse(_draw_inverse(rng, case))
                assert len(calls) == 6, case

    def test_inverse_spot_value(self):
        lead, second, off = oracle_inverse(_exact(2.0, 4.0, 1.0, 1.0))
        assert lead == pytest.approx(0.5, rel=1e-13)
        assert second == pytest.approx(-1.0 / 32.0, rel=1e-13)
        assert off == pytest.approx(0.5, abs=1e-12)


def _sorted_merge(points):
    """The offset search as a full sort and a chained 1e-9 merge."""
    pts = sorted(points)
    merged = [pts[0]]
    for p in pts[1:]:
        if p - merged[-1] > mp.mpf("1e-9"):
            merged.append(p)
    if len(merged) < 2:
        raise NumericError("offset lattice degenerate: no second point")
    return merged[0], merged[1] - merged[0]


class TestSecondOffset:
    """The closed form against the full sorted merge of the 5 x 5 lattice."""

    @staticmethod
    def _check(o1, o2):
        o1, o2 = mp.mpf(o1), mp.mpf(o2)
        points = [i * o1 + j * o2 for i in range(5) for j in range(5) if i + j > 0]
        want = tuple(v._mpf_ for v in _sorted_merge(points))
        assert _second_offset(o1._mpf_, o2._mpf_) == want, (o1, o2)

    def test_drawn_lattices(self):
        with mp.workdps(ORACLE_DPS):
            for seed in range(40):
                for case in COMPOSE_CASES:
                    rng = Random(f"{seed}:{case}")
                    for _ in range(5):
                        m1, m2 = _draw_compose(rng, case)
                        self._check(m1.terms[0][0], mp.mpf(m1.ratio) * mp.mpf(m2.terms[0][0]))

    def test_exact_and_near_ties(self):
        tiny = 2.0 ** -30
        with mp.workdps(ORACLE_DPS):
            for o1, o2 in [
                (0.75, 0.75),                                   # exact tie
                (1.0, mp.mpf(1 + tiny) * mp.mpf(1 - tiny)),     # float tie, 2**-60 apart
                (0.6, 0.6 + 1e-9), (0.6, 0.6 + 2e-9),           # about the merge width
                (0.6, mp.mpf(0.6) + mp.mpf("1e-9")),            # on the merge width
                (0.4, 0.8), (0.8, 0.4), (0.5, 1.0 + 1e-12),     # a multiple of the other
                (1.3, 0.3), (0.3, 0.3 * 4.0),                   # higher orders first
            ]:
                self._check(o1, o2)

    def test_degenerate_lattice(self):
        # the whole lattice lies within the merge width of its smallest point
        with pytest.raises(NumericError, match="no second point"):
            _second_offset(mp.mpf("1e-12")._mpf_,
                           (mp.mpf("1e-12") * (1 + mp.mpf("1e-3")))._mpf_)


def _triples(prefix, draws, compose=oracle_compose, inverse=oracle_inverse):
    """Oracle triples of ``draws`` trials per case from Random(f"{prefix}:{case}")."""
    out = []
    for case in COMPOSE_CASES + INVERSE_CASES:
        rng = Random(f"{prefix}:{case}")
        for _ in range(draws):
            if case in COMPOSE_CASES:
                out.append(compose(*_draw_compose(rng, case)))
            else:
                out.append(inverse(_draw_inverse(rng, case)))
    return out


class TestPeelPrecision:
    """The per-case working precision loses no digit against 300 digits."""

    DRAWS = 50

    def test_rule_matches_300_digits(self, monkeypatch):
        per_case = _triples("precision", self.DRAWS)
        monkeypatch.setattr(composecheck, "_peel_dps", lambda off, k: 300)
        assert per_case == _triples("precision", self.DRAWS)

    def test_rule_spans_the_cases(self):
        # most peels need 45 digits and the deepest 147; shallow ones keep 40
        assert composecheck._peel_dps(0.5, 112) == 45
        assert composecheck._peel_dps(1.0, 224) == 147
        assert composecheck._peel_dps(0.05, 10) == 40


def _ref_terms(d):
    ((offset, coeff),) = d.terms
    return mp.mpf(d.ratio), mp.mpf(d.leading), mp.mpf(offset), mp.mpf(coeff)


def _ref_peel(bracket, off, gap):
    """The peel on mpf objects in mpmath's global context, called at
    ORACLE_DPS: samples and differences at _peel_dps."""
    k = int(mp.ceil(PEEL_BITS / gap))
    with mp.workdps(composecheck._peel_dps(float(off), k)):
        x0 = mp.mpf(2) ** (-k)
        b0, b1, b2 = bracket(x0), bracket(x0 / 2), bracket(x0 / 4)
        d1, d2 = b1 - b0, b2 - b1
        assert d1 != 0 and d2 != 0 and mp.sign(d1) == mp.sign(d2)
        off_est = -mp.log(d2 / d1) / mp.ln2
        t = off * mp.ln2
        x0_off = mp.exp(-k * t)
        second = d1 / (x0_off * (mp.exp(-t) - 1))
        lead = b0 - second * x0_off
        return float(lead), float(second), float(off_est)


def ref_compose(m1, m2):
    """oracle_compose on mpf objects, its offsets from the sorted merge."""
    with mp.workdps(ORACLE_DPS):
        p1, a1, w1, c1 = _ref_terms(m1)
        p2, a2, w2, c2 = _ref_terms(m2)

        def bracket(x):
            lx = mp.log(x)
            lg = mp.log(a1 + c1 * mp.exp(w1 * lx))
            return mp.exp(p2 * lg) * (a2 + c2 * mp.exp(w2 * (p1 * lx + lg)))

        o2 = p1 * w2
        lattice = [i * w1 + j * o2 for i in range(5) for j in range(5) if i + j > 0]
        return _ref_peel(bracket, *_sorted_merge(lattice))


def ref_inverse(m):
    """oracle_inverse on mpf objects: Newton until a relative step is below
    10**((6 - dps)/2), dps the peel's."""
    with mp.workdps(ORACLE_DPS):
        p, a, w, c = _ref_terms(m)
        pa, pw = p * a, p + w  # at ORACLE_DPS, as the set-up
        rho = 1 / p
        seed = a ** (-rho)

        def f(x):
            lx = mp.log(x)
            xp, cxw = mp.exp(p * lx), c * mp.exp(w * lx)
            return xp * (a + cxw), xp * (pa + pw * cxw) / x

        def bracket(u):
            tol = mp.mpf(10) ** (mp.mpf(6 - mp.mp.dps) / 2)
            u_rho = mp.exp(rho * mp.log(u))
            x = seed * u_rho
            for _ in range(80):
                value, slope = f(x)
                step = (value - u) / slope
                x -= step
                if abs(step) <= abs(x) * tol:
                    return x / u_rho
            raise NumericError("reference Newton failed to settle")

        off = w * rho
        return _ref_peel(bracket, off, off)


def _hex(triples):
    return [tuple(v.hex() for v in t) for t in triples]


class TestRawValues:
    """The oracle on raw libmp values at explicit precisions gives the
    floats of the mpf-object oracle bit for bit, whatever mpmath's global
    precision is."""

    @pytest.mark.parametrize("seed", [5, 2024, 31337])
    def test_triples_match_the_mpf_reference(self, seed):
        got = _triples(seed, 10)
        want = _triples(seed, 10, compose=ref_compose, inverse=ref_inverse)
        assert _hex(got) == _hex(want)

    def test_global_precision_is_not_read(self):
        with mp.workdps(15):
            low = _triples("global", 3)
        with mp.workdps(300):
            high = _triples("global", 3)
        assert _hex(low) == _hex(high)

    def test_run_leaves_global_precision(self):
        with mp.workprec(77):
            report = run_compose_check(seed=42, count=2)
            assert mp.mp.prec == 77
        assert report == run_compose_check(seed=42, count=2)


class TestRunCheck:
    def test_small_run_is_clean(self):
        report = run_compose_check(seed=42, count=5)
        assert [c.case for c in report.cases] == list(COMPOSE_CASES + INVERSE_CASES)
        assert all(c.trials == 5 for c in report.cases)
        assert report.worst_leading < 1e-12
        assert report.worst_second < 1e-12
        assert all(c.max_offset_dev < 1e-9 for c in report.cases)
        assert report.passed()

    def test_deterministic_for_seed(self):
        assert run_compose_check(seed=11, count=3) == run_compose_check(seed=11, count=3)
        a = run_compose_check(seed=11, count=3)
        b = run_compose_check(seed=12, count=3)
        assert a != b

    def test_bias_hook_is_detected(self):
        # a healthy checker must report an injected formula error
        report = run_compose_check(seed=7, count=2, bias=1e-6)
        assert not report.passed()
        assert report.worst_second == pytest.approx(1e-6, rel=1e-2)

    @pytest.fixture
    def nan_on_second_call(self, monkeypatch):
        """compose_pair with a NaN leading coefficient on its second call."""
        calls = []

        def patched(m1, m2):
            calls.append(None)
            out = compose_pair(m1, m2)
            return dataclasses.replace(out, leading=math.nan) if len(calls) == 2 else out
        monkeypatch.setattr(composecheck, "compose_pair", patched)

    def test_nan_deviation_fails_the_check(self, nan_on_second_call):
        # max() keeps a NaN only when it comes first; the second trial's must stand
        report = run_compose_check(seed=42, count=3)
        assert math.isnan(report.cases[0].max_leading_dev)
        assert math.isnan(report.worst_leading)
        assert not report.passed()

    def test_nan_deviation_fails_the_command(self, nan_on_second_call, run_doc):
        doc = run_doc(["compose-check", "--seed", "42", "--count", "3"])
        assert doc["passed"] is False
        assert math.isnan(doc["worst_leading"])

    def test_empty_run(self):
        report = run_compose_check(seed=3, count=0)
        assert report.cases == ()
        assert report.worst_leading == 0.0
        assert report.passed()
