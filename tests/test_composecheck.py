"""Randomized oracle for the composition calculus.

The oracle only evaluates maps pointwise in high precision and peels
coefficients by finite differencing, so agreement with the closed-form
rules is a genuine cross-check, not a tautology.
"""

import math

import mpmath as mp
import pytest

from polycycles.composecheck import (
    COMPOSE_CASES,
    INVERSE_CASES,
    ORACLE_DPS,
    TwoTermMap,
    oracle_compose,
    oracle_inverse,
    run_compose_check,
)


class TestTwoTermMap:
    def test_expansion_packaging(self):
        m = TwoTermMap(power=0.7, leading=2.0, offset=0.7, coeff=-0.3)
        d = m.expansion()
        assert d.ratio == 0.7 and d.leading == 2.0
        assert d.next_exponent == 0.7 and d.next_coeff == -0.3
        assert d.case == "below-one"
        # exact map: nothing hides beyond the explicit second term
        assert d.ell == (0.7, math.inf)

    def test_mp_fun_and_derivative_agree(self):
        m = TwoTermMap(power=1.5, leading=2.0, offset=1.0, coeff=0.4)
        with mp.workdps(40):
            f, fp = m.mp_fun(), m.mp_derivative()
            x = mp.mpf("0.37")
            h = mp.mpf("1e-12")
            numeric = (f(x + h) - f(x - h)) / (2 * h)
            assert abs(numeric - fp(x)) < mp.mpf("1e-20")


class TestOracles:
    def test_compose_spot_value(self):
        with mp.workdps(ORACLE_DPS):
            lead, second, off = oracle_compose(TwoTermMap(2.0, 2.0, 1.0, 3.0),
                                               TwoTermMap(3.0, 5.0, 1.0, 7.0))
        assert lead == pytest.approx(40.0, rel=1e-13)
        assert second == pytest.approx(180.0, rel=1e-13)
        assert off == pytest.approx(1.0, abs=1e-12)

    def test_inverse_spot_value(self):
        with mp.workdps(ORACLE_DPS):
            lead, second, off = oracle_inverse(TwoTermMap(2.0, 4.0, 1.0, 1.0))
        assert lead == pytest.approx(0.5, rel=1e-13)
        assert second == pytest.approx(-1.0 / 32.0, rel=1e-13)
        assert off == pytest.approx(0.5, abs=1e-12)


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

    def test_empty_run(self):
        report = run_compose_check(seed=3, count=0)
        assert report.cases == ()
        assert report.worst_leading == 0.0
        assert report.passed()
