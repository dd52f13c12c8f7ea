"""Saddle normalization, transverse sections, and closed-form Dulac data.

Linear saddles have exact coefficients (D00 = h1 * h2**-lam, S1 = S2 = 0),
so they pin the whole pipeline without any tolerance games.  The quadratic
and four-saddle values are frozen regression points; the Mellin transform
is checked against its defining ODE.
"""

import math
import re
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval2d

from polycycles import saddle
from polycycles.calculus import classify_ratio, inverse_dulac
from polycycles.errors import (
    DegeneracyError,
    ModelError,
    NumericError,
    PoleError,
    UnsupportedGeometryError,
)
from polycycles.expressions import instantiate, parse_expression
from polycycles.model import bind
from polycycles.pipeline import build_corners
from polycycles.saddle import (
    LocalChart,
    dulac_coefficients,
    mellin_hat,
    normalize_saddle,
)


def poly(source):
    return instantiate(parse_expression(source), {})


def expand(chart, h_in, h_out):
    """The corner's expansion with both S, as a batch of one; a failed lane
    raises its error."""
    (lane,) = dulac_coefficients([chart], h_in, h_out, both_s=True)
    if isinstance(lane, Exception):
        raise lane
    return lane


def linear_saddle(lam, **kwargs):
    return normalize_saddle(poly("x"), poly(f"-{lam}*y"),
                            (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), **kwargs)


NONLINEAR = ("x*(1 + 0.3*x - 0.2*y)", "-y*(2 - 0.1*x + 0.4*y)")


def nonlinear_chart(step=0.0):
    """A saddle with quadratic corrections and lam = 2; a complex ``step``
    lowers the y coefficient of y', so that Q(0, 0) = -(2 + step)."""
    fx, fy = poly(NONLINEAR[0]), poly(NONLINEAR[1])
    if step:
        fy = fy.astype(complex)
        fy[0, 1] -= step
    return normalize_saddle(fx, fy, (0.0, 0.0), (0.0, 1.0), (1.0, 0.0))


def transition(chart, which, w):
    """L1 or L2 of the chart on [0, w], a batch of one lane; L2 is L1 of the
    chart mirrored u <-> v."""
    p, q, lam = chart.p_poly, chart.q_poly, chart.lam
    mirrored = (p, q, 1.0 / lam) if which == 1 else (q.T, p.T, lam)
    return saddle._Transition(*([x] for x in mirrored), [w])


def mp_log_l(chart, which, lo, hi, e=0):
    """int_lo^hi of L's integrand at mpmath's working precision, for the
    real chart with Q(0, 0) lowered by e."""
    p, q = chart.p_poly, chart.q_poly
    num, den = (p[0, :], q[0, :]) if which == 1 else (q[:, 0], p[:, 0])
    a, b = [mpmath.mpf(float(c)) for c in num], [mpmath.mpf(float(c)) for c in den]
    (b if which == 1 else a)[0] -= e
    # (num/den + shift)/t, shift cancelling the constant term, as one
    # polynomial over t*den
    shift = -a[0] / b[0]
    size = max(len(a), len(b))
    a, b = a + [0] * (size - len(a)), b + [0] * (size - len(b))
    top, bottom = [x + shift * y for x, y in zip(a, b)][:0:-1], b[::-1]
    return mpmath.quad(lambda t: mpmath.polyval(top, t) / mpmath.polyval(bottom, t),
                       [mpmath.mpf(float(lo)), mpmath.mpf(float(hi))])


FRAME_POINTS = ((0.1, 0.2), (-0.3, 0.05), (0.4, -0.25), (0.0, 0.3), (0.2, 0.0))


def assert_chart_in_frame(chart, fx, fy, corner, incoming, outgoing, atol=1e-15):
    """At (u, v) the chart's (u P, v Q) is the field at corner + u*outgoing
    + v*incoming, in the frame (outgoing, incoming) passed to normalize_saddle:
    the coordinates of the field vector in that basis."""
    frame = np.array([outgoing, incoming], dtype=float)
    for u, v in FRAME_POINTS:
        x, y = np.asarray(corner, dtype=float) + frame.T @ (u, v)
        expected = np.linalg.solve(frame.T, [polyval2d(x, y, fx), polyval2d(x, y, fy)])
        local = [u * polyval2d(u, v, chart.p_poly), v * polyval2d(u, v, chart.q_poly)]
        np.testing.assert_allclose(local, expected, rtol=1e-14, atol=atol)


class TestNormalize:
    def test_linear_chart_frame(self):
        chart = linear_saddle(1.5)
        assert chart.lam == pytest.approx(1.5, rel=1e-15)
        assert polyval2d(0.1, 0.2, chart.p_poly) == pytest.approx(1.0)
        assert polyval2d(0.1, 0.2, chart.q_poly) == pytest.approx(-1.5)
        assert_chart_in_frame(chart, poly("x"), poly("-1.5*y"),
                              (0.0, 0.0), (0.0, 1.0), (1.0, 0.0))

    def test_shifted_corner_roundtrip(self):
        fx, fy = poly("x - 1"), poly("-2*(y - 2)")
        chart = normalize_saddle(fx, fy, (1.0, 2.0), (0.0, 1.0), (1.0, 0.0))
        assert chart.lam == pytest.approx(2.0)
        assert_chart_in_frame(chart, fx, fy, (1.0, 2.0), (0.0, 1.0), (1.0, 0.0))

    def test_swapped_axes(self):
        # stable separatrix on the x-axis: local u is the model y
        fx, fy = poly("-x"), poly("2*y")
        chart = normalize_saddle(fx, fy, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        assert chart.lam == pytest.approx(0.5)
        assert_chart_in_frame(chart, fx, fy, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))

    def test_same_axis_rejected(self):
        with pytest.raises(UnsupportedGeometryError, match="are parallel"):
            normalize_saddle(poly("x"), poly("-y"),
                             (0.0, 0.0), (0.0, 1.0), (0.0, -1.0))

    # a saddle at (0.3, -0.7) with u' = u A(u, v), v' = v B(u, v) in the
    # frame x = corner + u*m_out + v*m_in, its columns not of unit length
    FRAME_A = "1.5 + 0.4*{u} - 0.3*{v} + 0.2*{u}*{v}"
    FRAME_B = "-2 + 0.1*{u} + 0.5*{v}^2 - 0.3*{u}^2"

    @pytest.mark.parametrize("m_out, m_in", [((3, 4), (-4, 3)), ((1, 0), (1, 2))],
                             ids=["rotated", "sheared"])
    def test_oblique_frame_reproduces_the_field(self, m_out, m_in):
        (p, r), (q, s) = m_out, m_in
        det = p * s - q * r
        u = f"(({s}*(x - 0.3) - {q}*(y + 0.7))/{det})"
        v = f"((-{r}*(x - 0.3) + {p}*(y + 0.7))/{det})"
        du = f"{u}*({self.FRAME_A.format(u=u, v=v)})"
        dv = f"{v}*({self.FRAME_B.format(u=u, v=v)})"
        fx, fy = poly(f"{p}*{du} + {q}*{dv}"), poly(f"{r}*{du} + {s}*{dv}")
        outgoing, incoming = (np.array(m, dtype=float) / math.hypot(*m) for m in (m_out, m_in))
        chart = normalize_saddle(fx, fy, (0.3, -0.7), incoming, outgoing)
        # the eigenvalues do not depend on the frame
        assert chart.lam == pytest.approx(2.0 / 1.5, rel=1e-14)
        assert_chart_in_frame(chart, fx, fy, (0.3, -0.7), incoming, outgoing, atol=1e-14)

    def test_invariance_decides_a_tilted_direction(self):
        # x' = x, y' = -y: a direction 9e-6 off the x axis leaves the line
        # along it far from invariant; 5e-13 off, within tolerance
        for tilt in (9e-6, -9e-6):
            # the pipeline passes numpy unit vectors; the message shows plain floats
            outgoing = np.array([math.cos(tilt), math.sin(tilt)])
            with pytest.raises(UnsupportedGeometryError, match="is not invariant") as info:
                normalize_saddle(poly("x"), poly("-y"), (0.0, 0.0), np.array([0.0, 1.0]),
                                 outgoing)
            assert "np.float64" not in str(info.value)
        outgoing = np.array([math.cos(5e-13), math.sin(5e-13)])
        chart = normalize_saddle(poly("x"), poly("-y"), (0.0, 0.0), np.array([0.0, 1.0]),
                                 outgoing)
        assert chart.lam == pytest.approx(1.0, rel=1e-12)
        assert_chart_in_frame(chart, poly("x"), poly("-y"),
                              (0.0, 0.0), (0.0, 1.0), outgoing, atol=1e-12)

    def test_missing_invariant_line(self):
        with pytest.raises(UnsupportedGeometryError, match="is not invariant"):
            normalize_saddle(poly("x + 0.5"), poly("-y"),
                             (0.0, 0.0), (0.0, 1.0), (1.0, 0.0))

    def test_zero_eigenvalue(self):
        with pytest.raises(DegeneracyError, match="not hyperbolic"):
            normalize_saddle(poly("x"), poly("-y*y"),
                             (0.0, 0.0), (0.0, 1.0), (1.0, 0.0))

    def test_zero_field_is_not_hyperbolic(self):
        # x' = 0 leaves every line invariant and nothing to slice
        with pytest.raises(DegeneracyError, match="not hyperbolic"):
            normalize_saddle(poly("0"), poly("-y"),
                             (0.0, 0.0), (0.0, 1.0), (1.0, 0.0))

    # invariant lines x = 0.3 and y = -0.7 through a nonlinear saddle with
    # x' = (x - 0.3) F, y' = (y + 0.7) G, F > 0 > G near the corner
    OFF_X = "(x - 0.3)*(1.5 + 0.4*x - 0.3*y + 0.2*x*y)"
    OFF_Y = "(y + 0.7)*(-2 + 0.1*x + 0.5*y^2 - 0.3*x^2)"

    @pytest.mark.parametrize("incoming, outgoing", [
        (inc, out) for inc in ((0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0))
        for out in (((1.0, 0.0), (-1.0, 0.0)) if inc[0] == 0.0 else ((0.0, 1.0), (0.0, -1.0)))
    ])
    def test_off_origin_chart_reproduces_the_field(self, incoming, outgoing):
        # reversing time makes the x axis the stable one
        sign = 1.0 if incoming[0] == 0.0 else -1.0
        fx, fy = sign * poly(self.OFF_X), sign * poly(self.OFF_Y)
        corner = (0.3, -0.7)
        chart = normalize_saddle(fx, fy, corner, incoming, outgoing)
        f_eig = 1.5 + 0.4 * 0.3 + 0.3 * 0.7 - 0.2 * 0.3 * 0.7
        g_eig = -2.0 + 0.1 * 0.3 + 0.5 * 0.49 - 0.3 * 0.09
        assert chart.lam == pytest.approx(-g_eig / f_eig if sign > 0 else -f_eig / g_eig,
                                          rel=1e-14)
        assert_chart_in_frame(chart, fx, fy, corner, incoming, outgoing)

    def test_node_rejected(self):
        with pytest.raises(DegeneracyError, match="not a saddle"):
            normalize_saddle(poly("x"), poly("y"),
                             (0.0, 0.0), (0.0, 1.0), (1.0, 0.0))

    def test_traversal_against_flow(self):
        # incoming along the expanding axis: orientation is backwards
        with pytest.raises(UnsupportedGeometryError, match="unstable axis"):
            normalize_saddle(poly("x"), poly("-y"),
                             (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))

    def test_footprint_guard(self):
        # P(x,0) = 1 - x changes sign at x = 1, inside the footprint of an
        # exit section at h_out = 1.1; the chart itself builds
        chart = normalize_saddle(poly("x*(1 - x)"), poly("-y"),
                                 (0.0, 0.0), (0.0, 1.0), (1.0, 0.0))
        with pytest.raises(UnsupportedGeometryError, match="footprint too large"):
            expand(chart, 0.5, 1.1)

    @pytest.mark.parametrize("p_src, q_src", [
        ("1 - 2*x", "-1 + y"),      # P(x,0) fails first, at x = 0.5
        ("1 + y", "-1 + 3*y"),      # Q(0,y) fails first, at y = 1/3
        ("1 - 3*x", "-1 + 3*y"),    # both fail at the same sample: P is named
    ])
    def test_footprint_names_the_first_failing_sample(self, p_src, q_src):
        chart = LocalChart(p_poly=poly(p_src), q_poly=poly(q_src))
        # the sample-by-sample check, P before Q at each sample
        expected = None
        for t in np.linspace(0.0, 0.55, 33):
            if polyval2d(t, 0.0, chart.p_poly) <= 0.0:
                expected = f"P(x,0) not positive at x={t:.4g};"
                break
            if polyval2d(0.0, t, chart.q_poly) >= 0.0:
                expected = f"Q(0,y) not negative at y={t:.4g};"
                break
        assert expected is not None
        with pytest.raises(UnsupportedGeometryError, match=re.escape(expected)):
            chart.check_footprint(0.55, 0.55)


class TestSections:
    """Entry (s, h_in) and exit (h_out, v): each half-length puts its
    section's anchor on the positive half of its axis."""

    def test_sigma1_anchor_must_sit_on_stable_axis(self):
        for h_in in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(ModelError, match="half-lengths must be positive and finite"):
                expand(linear_saddle(1.5), h_in, 0.5)

    def test_sigma2_anchor_must_sit_on_unstable_axis(self):
        for h_out in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(ModelError, match="half-lengths must be positive and finite"):
                expand(linear_saddle(1.5), 0.5, h_out)


class TestLargeRatios:
    def test_mellin_order_past_the_bound(self):
        for lam in (151.0, 1.0 / 151.0):
            with pytest.raises(NumericError, match="Mellin order alpha=151 is past 150"):
                expand(linear_saddle(lam), 0.5, 0.5)

    def test_leading_coefficient_out_of_range(self):
        # D00 = h_in * h_out**-lam, and 1e-3**120 underflows to 0
        with pytest.raises(NumericError, match="leading coefficient D00 at ratio 120 is nan"):
            expand(linear_saddle(120.0), 0.5, 1e-3)
        assert expand(linear_saddle(120.0), 0.5, 0.5).leading == pytest.approx(
            0.5 * 0.5**-120, rel=1e-12)


class TestClassify:
    def test_plain_cases(self):
        assert classify_ratio(0.3) == "below-one"
        assert classify_ratio(1.5) == "above-one"
        assert classify_ratio(1.0) == "at-one"

    def test_dead_band(self):
        assert classify_ratio(1.0 + 5e-10) == "at-one"
        assert classify_ratio(1.0 - 5e-10) == "at-one"
        assert classify_ratio(1.0 + 2e-9) == "above-one"


class TestLinearClosedForms:
    """x' = x, y' = -lam*y: D00 = h1 * h2**-lam exactly, S1 = S2 = 0."""

    def test_above_one(self):
        exp = expand(linear_saddle(1.5), 0.5, 0.5)
        assert exp.case == "above-one"
        assert exp.ratio == pytest.approx(1.5, rel=1e-15)
        assert exp.leading == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert exp.s1 == pytest.approx(0.0, abs=1e-12)
        assert exp.s2 == pytest.approx(0.0, abs=1e-12)
        assert exp.terms[0][0] == 1.0
        assert exp.terms[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_below_one(self):
        exp = expand(linear_saddle(0.4), 0.5, 0.5)
        assert exp.case == "below-one"
        assert exp.leading == pytest.approx(0.5 ** 0.6, rel=1e-12)
        assert exp.s1 == pytest.approx(0.0, abs=1e-12)
        assert exp.s2 == pytest.approx(0.0, abs=1e-12)
        assert exp.terms[0][0] == pytest.approx(0.4)
        assert exp.terms[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_section_height_scaling(self):
        exp = expand(linear_saddle(1.5), 0.3, 0.7)
        assert exp.leading == pytest.approx(0.3 * 0.7 ** -1.5, rel=1e-12)

    def test_transition_factors_trivial(self):
        data = transition(linear_saddle(1.5), 1, 0.5)
        assert data.end(0) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(data.at(64, [0]), 1.0, rtol=1e-12)
        series = data.series[0]
        assert series[0] == pytest.approx(1.0)
        np.testing.assert_allclose(series[1:], 0.0, atol=1e-15)

    def test_transition_on_an_array(self):
        # L at the grid's nodes equals L from a grid ending at each node
        chart = nonlinear_chart()
        nodes = 0.5 * saddle._chebyshev(64)[0]
        for which in (1, 2):
            (values,) = transition(chart, which, 0.5).at(64, [0])
            assert values.shape == nodes.shape
            for j in (0, 5, 20, 40, 60, 63):
                assert values[j] == pytest.approx(
                    transition(chart, which, nodes[j]).end(0), rel=1e-14)
            assert values[-1] == 1.0 and values[0] != 1.0

    def test_resonant_corner(self):
        exp = expand(linear_saddle(1.0), 0.5, 0.5)
        assert exp.case == "at-one"
        assert exp.leading == pytest.approx(1.0, rel=1e-12)
        assert exp.terms == ()
        assert exp.s1 is None and exp.s2 is None
        assert exp.terms == ()
        assert any("leading term only" in note for note in exp.notes)


class TestTransitionGrid:
    """L at the Lobatto points of [0, w], from one sample of its integrand."""

    NODES = 0.5 * saddle._chebyshev(64)[0]  # from t = 1 down to 0

    def test_every_node_matches_mpmath(self):
        chart = nonlinear_chart()
        for which in (1, 2):
            (got,) = transition(chart, which, 0.5).at(64, [0])
            with mpmath.workdps(30):
                log_l = mpmath.mpf(0)
                for j in range(63, -1, -1):
                    log_l += mp_log_l(chart, which, self.NODES[j + 1], self.NODES[j])
                    assert got[j] == pytest.approx(float(mpmath.exp(log_l)), rel=1e-13)
            assert got[64] == 1.0

    def test_complex_step_matches_mpmath_derivative(self):
        real, stepped = nonlinear_chart(), nonlinear_chart(1e-30j)
        for which in (1, 2):
            (got,) = transition(stepped, which, 0.5).at(64, [0])
            with mpmath.workdps(30):
                for j in (0, 3, 10, 20, 32, 45, 56, 62, 64):
                    s = self.NODES[j]
                    d_log_l = mpmath.diff(lambda e: mp_log_l(real, which, 0.0, s, e), 0)
                    want = float(mpmath.exp(mp_log_l(real, which, 0.0, s)) * d_log_l)
                    assert abs(got[j].imag / 1e-30 - want) <= 1e-10 * max(1.0, abs(want))

    def test_finer_grid_agrees_with_the_converged_one(self, monkeypatch):
        # past the converged 64-node grid, at(128) samples the integrand
        # once on its own 129 points and leaves the grid as it was
        data = transition(nonlinear_chart(), 1, 0.5)
        (coarse,) = data.at(64, [0])
        calls = []
        integrand = saddle._Transition.integrand

        def counted(self, t, lanes):
            calls.append(t.shape)
            return integrand(self, t, lanes)

        monkeypatch.setattr(saddle._Transition, "integrand", counted)
        (fine,) = data.at(128, [0])
        assert calls == [(1, 129)]
        np.testing.assert_allclose(fine[::2], coarse, rtol=1e-14)
        np.testing.assert_array_equal(data.at(64, [0])[0], coarse)

    def test_unconverged_rule_raises(self, monkeypatch):
        # Q(0, y) = -1 + 1.98 y vanishes at y = 0.505, just past the grid:
        # 32 against 64 nodes differ by about 1e-3
        chart = LocalChart(p_poly=poly("1"), q_poly=poly("-1 + 1.98*y"))
        assert transition(chart, 1, 0.5).end(0) > 0.0
        monkeypatch.setattr(saddle, "QUAD_MAX_NODES", 64)
        with pytest.raises(NumericError, match="transition integral did not converge"):
            raise transition(chart, 1, 0.5).failed[0]


@pytest.fixture(scope="module")
def quad_expansion():
    return expand(nonlinear_chart(), 0.5, 0.5)


class TestQuadraticSaddle:
    """Frozen values for a saddle with quadratic corrections (lam = 2)."""

    def test_frozen_coefficients(self, quad_expansion):
        assert quad_expansion.ratio == pytest.approx(2.0, rel=1e-15)
        assert quad_expansion.leading == pytest.approx(2.290197411685132, rel=1e-10)
        assert quad_expansion.s1 == pytest.approx(-0.326986673475821, rel=1e-10)

    def test_second_coefficient_ties_to_s1(self, quad_expansion):
        assert quad_expansion.terms[0][0] == 1.0
        assert quad_expansion.terms[0][1] == pytest.approx(
            quad_expansion.ratio * quad_expansion.leading * quad_expansion.s1,
            rel=1e-14)

    def test_integer_ratio_pole(self, quad_expansion):
        # alpha = lam = 2 sits on a Mellin pole, so S2 is withheld
        assert quad_expansion.s2 is None
        assert any(note.startswith("S2 unavailable") for note in quad_expansion.notes)


class TestPoleGuards:
    def test_below_one_s1_on_a_pole(self):
        # lam = 0.5: S1's Mellin order 1/lam = 2 is a pole, S2 (order 0.5) is not
        exp = expand(linear_saddle(0.5), 0.5, 0.5)
        assert exp.case == "below-one"
        assert exp.s1 is None
        assert exp.notes == ("S1 unavailable: Mellin order alpha=2.0 is within 1e-06 "
                             "of the pole at 2",)
        assert exp.s2 == pytest.approx(0.0, abs=1e-12)
        assert exp.terms[0][0] == 0.5
        assert exp.terms[0][1] == pytest.approx(0.0, abs=1e-12)


def quadratic_chart(lam, c):
    """A chart with P = 1 + ... and Q = -(lam + ...), each of degree 2."""
    p = np.array([[1.0, c[0], c[1]], [c[2], c[3], 0.0], [c[4], 0.0, 0.0]])
    q = -np.array([[lam, c[5], c[6]], [c[7], c[8], 0.0], [c[9], 0.0, 0.0]])
    return LocalChart(p_poly=p, q_poly=q)


class TestTimeReversal:
    """A corner's inverse is the Dulac map of the time-reversed corner, the
    chart mirrored u <-> v with the field negated and ratio 1/lam.

    This ties S1 of one chart to S2 of the other, and both to the
    calculus's inverse.  Each tolerance is at most ten times the largest
    deviation in 10,000 seeded charts from these ranges, many drawn at
    their bounds: leading coefficients 1.7e-15 relative, next exponents
    and ell 1.1e-16 relative, next coefficients 6.0e-15 of
    unit * max(1, |S|), where unit = |lam D00| above one and D00^2 below
    one is the coefficient per unit S.  (Relative to the coefficient
    itself the deviation is unbounded: S may nearly cancel.)
    """

    @given(lam=st.one_of(st.floats(0.3, 0.9), st.floats(1.15, 2.8)),
           c=st.lists(st.floats(-0.2, 0.2), min_size=10, max_size=10),
           h_in=st.floats(0.3, 0.6), h_out=st.floats(0.3, 0.6))
    @settings(max_examples=100, deadline=None)
    def test_inverse_is_the_reversed_corner(self, lam, c, h_in, h_out):
        chart = quadratic_chart(lam, c)
        reversed_chart = LocalChart(p_poly=-chart.q_poly.T, q_poly=-chart.p_poly.T)
        want = inverse_dulac(expand(chart, h_in, h_out))
        got = expand(reversed_chart, h_out, h_in)
        assert got.ratio == want.ratio
        assert got.leading == pytest.approx(want.leading, rel=1e-14)
        assert got.terms[0][0] == pytest.approx(want.terms[0][0], rel=1e-15)
        assert got.ell == pytest.approx(want.ell, rel=1e-15)
        s = got.s1 if got.case == "above-one" else got.s2
        unit = abs(got.ratio * got.leading) if got.case == "above-one" else got.leading ** 2
        assert abs(got.terms[0][1] - want.terms[0][1]) <= 5e-14 * unit * max(1.0, abs(s))


def mellin(fun, series, alpha, x):
    """mellin_hat of a function of s, sampled on the rule's nodes, as a batch
    of one; a failed lane raises its error."""
    (lane,) = mellin_hat(lambda n, lanes: np.array([fun(x * saddle._chebyshev(n)[0])]),
                         [np.asarray(series)], [alpha], [x])
    if isinstance(lane, Exception):
        raise lane
    return lane


class TestMellin:
    """The transform solves x*g' - alpha*g = f with g smooth at 0."""

    @staticmethod
    def monomial(k, order=12):
        coeffs = [0.0] * (order + 1)
        coeffs[k] = 1.0
        return (lambda s: s ** k), coeffs

    def test_monomial_solutions(self):
        g = self.monomial(2)
        assert mellin(*g, 0.5, 0.3) == pytest.approx(0.3 ** 2 / 1.5, rel=1e-12)
        assert mellin(*g, 1.7, 0.4) == pytest.approx(0.4 ** 2 / 0.3, rel=1e-12)
        assert mellin(*g, -0.5, 0.3) == pytest.approx(0.3 ** 2 / 2.5, rel=1e-12)

    def test_defining_ode(self):
        coeffs = [1.0 / math.factorial(k) for k in range(13)]
        alpha, x, h = 0.37, 0.4, 1e-5
        deriv = (mellin(np.exp, coeffs, alpha, x + h)
                 - mellin(np.exp, coeffs, alpha, x - h)) / (2.0 * h)
        assert x * deriv - alpha * mellin(np.exp, coeffs, alpha, x) == pytest.approx(
            math.exp(x), rel=1e-6)

    @pytest.mark.parametrize("alpha", [0.37, 1.5, 2.7])
    def test_exp_matches_its_series(self, alpha):
        # exp is entire, so the smooth solution is sum_i x^i / (i! (i - alpha))
        coeffs = [1.0 / math.factorial(k) for k in range(17)]
        for x in (0.4, 0.9):
            exact = math.fsum(x**i / (math.factorial(i) * (i - alpha)) for i in range(40))
            assert mellin(np.exp, coeffs, alpha, x) == pytest.approx(exact, rel=1e-13)

    def test_rough_germ_fails_the_node_doubling_check(self):
        # a jump at s = 0.2: the rules hardly converge, and 512 against
        # 1024 nodes still differ by 3e-3
        def step(s):
            return np.where(s > 0.2, 1.0, 0.0)

        with pytest.raises(NumericError, match="Mellin tail quadrature did not converge"):
            mellin(step, [0.0] * 3, 0.5, 0.4)

    def test_pole_guards(self):
        g = self.monomial(2)
        with pytest.raises(PoleError, match="pole at 1"):
            mellin(*g, 1.0 + 5e-7, 0.3)
        with pytest.raises(PoleError, match="pole at 0"):
            mellin(*g, 3e-7, 0.3)
        # negative integers are not poles of the smooth solution
        assert mellin(*g, -1.0, 0.3) == pytest.approx(0.3 ** 2 / 3.0, rel=1e-12)

    def test_domain_guard(self):
        with pytest.raises(ValueError, match="expects x > 0"):
            mellin(*self.monomial(2), 0.5, 0.0)


# frozen via a direct run of the closed-form route; the numeric
# cross-check of these numbers lives in the flow and pipeline tests
GAME_CORNERS = [
    (1, (0.0, 1.0), "below-one", 0.2962962962962963, 0.016677480416609002,
     -2.3001054272471, -11.373936061515591),
    (2, (0.0, 0.0), "above-one", 1.5, 230.40973358326647,
     -5.173622426086253, -0.47944856811444964),
    (3, (1.0, 0.0), "above-one", 1.5, 169.4306590484169,
     -34.35798143767758, 5.557386105238646),
    (4, (1.0, 1.0), "above-one", 1.5, 0.002193789320397522,
     5.020519411935063, -2260.2814033119475),
]


class TestFourSaddleCorners:
    @pytest.mark.parametrize("idx, corner, case, ratio, leading, s1, s2",
                             GAME_CORNERS)
    def test_frozen_expansions(self, game_mf, game_chain, idx, corner, case,
                               ratio, leading, s1, s2):
        assert game_mf.corners[idx - 1] == corner
        exp = game_chain[idx - 1]
        assert exp.case == case
        assert exp.ratio == pytest.approx(ratio, rel=1e-12)
        assert exp.leading == pytest.approx(leading, rel=1e-9)
        assert exp.s1 == pytest.approx(s1, rel=1e-9)
        assert exp.s2 == pytest.approx(s2, rel=1e-9)

    def test_second_coefficients_follow_case(self, game_chain):
        for exp in game_chain:
            if exp.case == "above-one":
                assert exp.terms[0][1] == pytest.approx(
                    exp.ratio * exp.leading * exp.s1, rel=1e-12)
            else:
                assert exp.terms[0][1] == pytest.approx(
                    -(exp.leading ** 2) * exp.s2, rel=1e-12)

    def test_graphic_number(self, game_chain):
        r = math.prod(exp.ratio for exp in game_chain)
        assert r == pytest.approx(1.0, abs=1e-12)


# four_saddle at l1 = 0.152, m1 = 5.9 (corner 1 has lam = 0.152, so S1 needs
# a Mellin transform of order 1/lam = 6.6).  (D00, S1, S2) per corner, frozen
# from the nested adaptive quadrature this module used before, which took
# 30-40 s on this point.  Corner 1's S1 is the exception: the adaptive value,
# -2.3828727149525486, is 7.2e-7 off a 60-digit evaluation of the same
# formula, because rounding in f - T_{k-1}f near s = 1e-3 swamped its Mellin
# tail; the entry below is the 60-digit value.
SLOW_POINT = {"l1": "0.152", "m1": "5.9"}
SLOW_CORNERS = [
    (0.05846745775195955, -2.3828744342983064, -8.85545075928604),
    (37.63551500212456, -3.6314843917044315, -0.5074730344927826),
    (18.86681490677053, -4.929833382228606, 3.0242126527747355),
    (0.022646706082231335, 2.5747599628057007, -101.5195115725831),
]


def test_slow_point_in_budget(game_mf):
    start = time.perf_counter()
    (corners,) = build_corners([bind(game_mf, SLOW_POINT)], both_s=True)
    elapsed = time.perf_counter() - start
    for exp, expected in zip(corners, SLOW_CORNERS, strict=True):
        assert (exp.leading, exp.s1, exp.s2) == pytest.approx(expected, rel=1e-9)
    assert elapsed < 5.0


def test_one_integrand_pass_per_rule_pair(game_mf, monkeypatch):
    # four corners, each with L1 on [0, h_in] and L2 on [0, h_out]: one
    # pass per corner, a row per transition, over the 65 points of the
    # 64-node rule, every other one of which is the 32-node rule.  D00 and
    # both Mellin tails, which converge at 32 against 64 nodes, read L from
    # those grids, so the transition integrand is sampled at 520 points in all
    calls = []
    integrand = saddle._Transition.integrand

    def counted(self, t, lanes):
        calls.append(t.shape)
        return integrand(self, t, lanes)

    monkeypatch.setattr(saddle._Transition, "integrand", counted)
    build_corners([bind(game_mf)])
    assert calls == [(2, 65)] * 4


@pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, 1.999, 1.3 + 1e-30j])
def test_moments_match_mpmath(beta):
    # T_k(x) = 2F1(-k, k; 1/2; (1 - x)/2) integrates term by term to
    # M_k = 2^(beta+1)/(beta+1) 3F2(-k, k, 1; 1/2, beta+2; 1); the complex
    # beta checks the imaginary part a complex step carries
    got = saddle._moments(beta, 1025)
    b = mpmath.mpmathify(beta)
    with mpmath.workdps(30):
        for k in list(range(65)) + list(range(96, 1025, 32)):
            ref = 2**(b + 1) / (b + 1) * mpmath.hyp3f2(-k, k, 1, 0.5, b + 2, 1, zeroprec=200)
            assert abs(got[k].real - float(mpmath.re(ref))) <= 4e-15 * max(1.0, abs(ref))
            d_ref = float(mpmath.im(ref)) / 1e-30
            assert abs(got[k].imag / 1e-30 - d_ref) <= 1e-13 * max(1.0, abs(d_ref))


def test_complex_step_quotients_keep_the_real_quotient():
    # numpy divides complex numbers by a reciprocal, one ulp off the real
    # quotient in about a quarter of cases; _divide's real part is the real
    # quotient bit for bit, on arrays and on numpy scalars
    rng = np.random.default_rng(3)
    a, b = rng.uniform(-3.0, 3.0, 400), rng.uniform(0.5, 3.0, 400)
    da, db = rng.uniform(-1.0, 1.0, 400), rng.uniform(-1.0, 1.0, 400)
    h = 1e-30
    for den, d_den in ((b + 1j * h * db, db), (b, 0.0 * db)):
        q = saddle._divide(a + 1j * h * da, den)
        assert q.real.tolist() == (a / b).tolist()
        np.testing.assert_allclose(q.imag / h, (da * b - a * d_den) / b**2, rtol=1e-14)
        assert [saddle._divide(np.complex128(x), y).real for x, y in zip(a + 1j * h * da, den)] \
            == (a / b).tolist()


def test_cumulative_rule_weights():
    # the cumulative rule integrates t^j exactly from 0 to every node, for
    # j up to the rule's degree
    t = saddle._chebyshev(32)[0]
    cumulative = saddle._cumulative(32)
    for j in (0, 1, 7, 32):
        np.testing.assert_allclose(cumulative @ t**j, t**(j + 1) / (j + 1), rtol=1e-14, atol=1e-16)
    assert not cumulative[32].any()  # nothing is integrated up to t = 0


def test_product_rule_weights():
    # beta = 0 is Clenshaw-Curtis; the moment weights integrate t^(beta+j)
    # exactly for j up to the rule's degree
    t, to_coeffs = saddle._chebyshev(32)
    for beta in (0.0, 1.37):
        w = saddle._moments(beta, 33) @ to_coeffs / 2.0 ** (beta + 1.0)
        for j in (0, 1, 7, 32):
            assert w @ t**j == pytest.approx(1.0 / (beta + j + 1.0), rel=1e-14)


def test_mellin_order_above_the_default_series(game_mf):
    # l1 = 0.045 puts corner 1's S1 at alpha = 1/l1 = 22.2, past what a
    # 16-term germ series can split off; 60-digit value of the same formula
    (corners,) = build_corners([bind(game_mf, {"l1": "0.045"})], both_s=True)
    assert corners[0].s1 == pytest.approx(-2.4831988484826426, rel=1e-12)


def fail_lane(monkeypatch, call, lane):
    """saddle.mellin_hat with one lane of one call (both counted from 0) a
    tail that does not converge."""
    real, calls = saddle.mellin_hat, []

    def wrapped(*args):
        out = real(*args)
        calls.append(None)
        if len(calls) == call + 1:
            out[lane] = NumericError("Mellin tail quadrature did not converge (err=2.15e-03)")
        return out
    monkeypatch.setattr(saddle, "mellin_hat", wrapped)


# four_saddle corner 2 is above one: its second call's lanes are its S1,
# which the corner needs, then its S2, which it does not

def test_a_failing_unused_s_is_a_note(game_mf, game_chain, monkeypatch):
    fail_lane(monkeypatch, call=1, lane=-1)
    (chain,) = build_corners([bind(game_mf)], both_s=True)
    d = chain[1]
    assert (d.case, d.s2) == ("above-one", None)
    assert d.notes == ("S2 unavailable: Mellin tail quadrature did not converge (err=2.15e-03)",)
    assert (d.leading, d.s1, d.terms[0][1]) == (game_chain[1].leading, game_chain[1].s1,
                                              game_chain[1].terms[0][1])
    assert chain[0] == game_chain[0] and chain[2:] == game_chain[2:]


def test_a_failing_needed_s_fails_the_corner(game_mf, monkeypatch):
    fail_lane(monkeypatch, call=1, lane=0)
    (lane,) = build_corners([bind(game_mf)])
    assert isinstance(lane, NumericError)
    assert str(lane) == "Mellin tail quadrature did not converge (err=2.15e-03)"


def test_a_transition_that_does_not_converge_fails_its_lane_alone():
    # Q(0, v) = -(1/16 + 1e-8) + v/2 - v^2 nearly vanishes at v = 1/4, so the
    # first lane's transition integral on [0, 1/2] does not converge
    bad = LocalChart(np.array([[1.0]]), np.array([[-(0.0625 + 1e-8), 0.5, -1.0]]))
    good = nonlinear_chart()
    failed, lane = dulac_coefficients([bad, good], 0.5, 0.5, both_s=True)
    assert isinstance(failed, NumericError)
    assert str(failed).startswith("transition integral did not converge")
    assert lane == expand(good, 0.5, 0.5)
