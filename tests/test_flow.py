"""Integration oracle: crossings, transitions, fits, and cycle counting.

The linear saddle x' = x, y' = -2y has the exact transition map
D(s) = D00 * s^2, so every numeric route here can be checked against pencil
and paper; the circle field provides one genuine limit cycle at r = 1.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polycycles
from polycycles import flow
from polycycles.errors import NumericError, OutOfBasinError
from polycycles.expressions import instantiate, parse_expression
from polycycles.flow import (
    PRE_STEP,
    LineSection,
    Trajectory,
    chart_field,
    count_limit_cycles,
    crossing_map,
    dulac_lattice,
    field_callable,
    fit_expansion,
    integrate,
    numeric_dulac,
    numeric_return,
)
from polycycles.model import bind
from polycycles.saddle import LocalChart, normalize_saddle


def poly(source):
    return instantiate(parse_expression(source), {})


@pytest.fixture(scope="module")
def saddle_fun():
    return field_callable(poly("x"), poly("-2*y"))


@pytest.fixture(scope="module")
def exit_section():
    return LineSection.make((1.0, 0.0), (0.0, 1.0), (0.0, 2.0))


class TestLineSection:
    def test_geometry(self):
        sect = LineSection.make((1.0, 0.0), (0.0, 1.0), (0.0, 2.0))
        assert sect.point(0.5) == (1.0, 0.5)
        assert sect.param((1.0, 0.7)) == pytest.approx(0.7)
        assert sect.normal == (-1.0, 0.0)
        (nx, ny), (dx, dy) = sect.normal, sect.direction
        assert nx * dx + ny * dy == 0.0

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError, match="direction must be nonzero"):
            LineSection.make((0.0, 0.0), (0.0, 0.0), (0.0, 1.0))

    @pytest.mark.parametrize("direction", [(1e-300, 0.0), (1e200, 0.0)],
                             ids=["underflow", "overflow"])
    def test_squared_length_must_be_a_positive_finite_float(self, direction):
        # param divides by dx*dx + dy*dy, which is 0 or inf here
        with pytest.raises(ValueError, match="positive and finite squared length"):
            LineSection.make((0.0, 0.0), direction, (0.0, 1.0))


class TestCrossing:
    def test_linear_saddle_transition(self, saddle_fun, exit_section):
        # from (0.01, 1): x = 0.01 e^t hits 1 at t = ln 100, y = 1e-4 there
        u, t = crossing_map(saddle_fun, (0.01, 1.0), exit_section)
        assert u == pytest.approx(1e-4, rel=1e-8)
        assert t == pytest.approx(math.log(100.0), abs=1e-9)

    def test_stable_axis_never_crosses(self, saddle_fun, exit_section):
        with pytest.raises(OutOfBasinError, match="did not return"):
            crossing_map(saddle_fun, (0.0, 1.0), exit_section, t_max=5.0)

    def test_crossing_outside_window_does_not_stop_the_run(self):
        # x' = y, y' = x - x^3 keeps y^2/2 - x^2/2 + x^4/4, so on y = 0.6 the
        # orbit from (0.45, 0.6) meets x^2 = 0.45^2 and x^2 = 2 - 0.45^2.  It
        # crosses upward at x = -1.341 first; with the window (0.3, 0.6) the
        # same run goes on to its return at x = 0.45
        fun = field_callable(poly("y"), poly("x - x^3"))
        start = integrate(fun, (0.45, 0.6), PRE_STEP).state
        windowed = LineSection.make((0.0, 0.6), (1.0, 0.0), (0.3, 0.6))
        unbounded = LineSection.make((0.0, 0.6), (1.0, 0.0), (-np.inf, np.inf))
        back = integrate(fun, start, 100.0, section=windowed, direction=1.0)
        first = integrate(fun, start, 100.0, section=unbounded, direction=1.0)
        assert back.status == first.status == "event"
        assert back.state[0] == pytest.approx(0.45, abs=1e-8)
        assert first.state[0] == pytest.approx(-math.sqrt(2.0 - 0.45**2), abs=1e-8)
        assert first.t < back.t

    def test_span_within_the_first_step_off_the_line(self, saddle_fun, exit_section):
        with pytest.raises(OutOfBasinError, match="did not return"):
            crossing_map(saddle_fun, (0.01, 1.0), exit_section, t_max=1e-7)

    def test_return_start_must_be_in_window(self, saddle_fun, exit_section):
        with pytest.raises(ValueError, match="outside the section window"):
            numeric_return(saddle_fun, exit_section, 5.0)


@pytest.fixture(scope="module")
def chart():
    return normalize_saddle(poly("x"), poly("-2*y"),
                            (0.0, 0.0), (0.0, 1.0), (1.0, 0.0))


class TestNumericDulac:

    def test_exit_line_crossing(self, chart):
        # from (s, h_in): u = s e^t reaches h_out when v = h_in (s/h_out)^2
        assert numeric_dulac(chart_field(chart), 0.3, 0.7, 0.01) == pytest.approx(
            0.3 * (0.01 / 0.7) ** 2, rel=1e-8)

    def test_homogeneity(self, chart):
        fun = chart_field(chart)
        ratio = numeric_dulac(fun, 0.5, 0.5, 0.01) / numeric_dulac(fun, 0.5, 0.5, 0.005)
        assert ratio == pytest.approx(2.0 ** 2, rel=1e-8)

    def test_domain_guard(self, chart):
        with pytest.raises(ValueError, match="expects s > 0"):
            numeric_dulac(chart_field(chart), 0.5, 0.5, 0.0)

    def test_chart_field_matches_local_velocity(self):
        chart = normalize_saddle(poly("x*(1 + 0.3*x - 0.2*y)"),
                                 poly("-y*(2 - 0.1*x + 0.4*y)"),
                                 (0.0, 0.0), (0.0, 1.0), (1.0, 0.0))
        fun = chart_field(chart)
        u, v = 0.1, 0.2
        np.testing.assert_allclose(fun(u, v), (u * (1 + 0.3 * u - 0.2 * v),
                                               -v * (2 - 0.1 * u + 0.4 * v)), rtol=1e-15)


class TestFitExpansion:
    def test_free_form_recovery(self):
        s = np.geomspace(1e-3, 1e-1, 12)
        fit = fit_expansion(s, s ** 2 * (3.0 + 5.0 * s))
        assert fit.exponent == pytest.approx(2.0, rel=1e-6)
        assert fit.leading == pytest.approx(3.0, rel=1e-6)
        assert fit.second_exponent == pytest.approx(1.0, rel=1e-4)
        assert fit.second_coeff == pytest.approx(5.0, rel=1e-4)
        assert fit.confident

    def test_lattice_fit_is_sharper(self):
        s = np.geomspace(1e-3, 1e-1, 12)
        fit = fit_expansion(s, s ** 2 * (3.0 + 5.0 * s),
                            exponent=2.0, lattice=(0.0, 1.0, 2.0))
        assert fit.leading == pytest.approx(3.0, rel=1e-12)
        assert fit.second_coeff == pytest.approx(5.0, rel=1e-12)
        assert fit.second_exponent == 1.0
        assert fit.rel_residual < 1e-12

    def test_negative_values_allowed(self):
        s = np.geomspace(1e-3, 1e-1, 10)
        fit = fit_expansion(s, -2.0 * s ** 1.5)
        assert fit.exponent == pytest.approx(1.5, rel=1e-6)
        assert fit.leading == pytest.approx(-2.0, rel=1e-6)

    def test_guards(self):
        with pytest.raises(ValueError, match="at least 4 samples"):
            fit_expansion([0.1, 0.2, 0.4], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="nonzero values"):
            fit_expansion([0.1, 0.2, 0.4, 0.8], [1.0, 0.0, 3.0, 4.0])
        for partial in ({"lattice": (0.0, 1.0)}, {"exponent": 1.0}):
            with pytest.raises(ValueError, match="needs both the leading exponent"):
                fit_expansion([0.1, 0.2, 0.4, 0.8], [1.0, 2.0, 3.0, 4.0], **partial)

    def test_non_monotone_samples_flagged(self):
        fit = fit_expansion([0.1, 0.2, 0.4, 0.8], [1.0, 2.0, 1.5, 3.0])
        assert not fit.confident
        assert any("not monotone" in n for n in fit.notes)

    def test_lattice_values(self):
        assert dulac_lattice(1.5) == (0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)
        # integer ratios collapse onto the integer offsets
        assert dulac_lattice(1.0) == (0.0, 1.0, 2.0, 3.0)
        with pytest.raises(ValueError, match="must be positive"):
            dulac_lattice(0.0)


class TestCountCycles:
    def test_two_roots_with_stability(self):
        count = count_limit_cycles(lambda s: (s - 0.3) * (s - 0.7), 0.1, 1.0)
        assert [c.stability for c in count.cycles] == ["stable", "unstable"]
        assert count.cycles[0].s == pytest.approx(0.3, abs=1e-9)
        assert count.cycles[1].s == pytest.approx(0.7, abs=1e-9)
        assert count.scanned == (0.1, 1.0)

    def test_few_returns_per_root(self):
        calls = []

        def disp(s):
            calls.append(s)
            return (s - 0.3) * (s - 0.7)

        count = count_limit_cycles(disp, 0.1, 1.0, samples=200)
        assert len(count.cycles) == 2
        # bisection to tol from a grid cell took about 27 calls per root
        assert (len(calls) - 200) / 2 <= 12

    def test_small_root_located_to_relative_width(self):
        # an absolute width tol*max(1, s) would leave this root 1e-2 of itself wide
        count = count_limit_cycles(lambda s: math.sqrt(s) - 1e-4, 1e-9, 1e-6,
                                   samples=20, tol=1e-10)
        assert len(count.cycles) == 1
        assert count.cycles[0].s == pytest.approx(1e-8, rel=1e-9)
        assert count.warnings == ()

    def test_no_sign_change(self):
        count = count_limit_cycles(lambda s: 1.0 + s, 0.1, 1.0)
        assert count.cycles == ()

    def test_near_zero_samples_warn(self):
        count = count_limit_cycles(lambda s: 1e-12, 0.1, 1.0, tol=1e-10)
        assert count.cycles == ()
        assert any("within tolerance" in w for w in count.warnings)

    def test_failing_samples_are_skipped(self):
        def disp(s):
            if s < 0.2:
                raise OutOfBasinError("left the basin")
            return s - 0.5

        count = count_limit_cycles(disp, 0.1, 1.0, samples=50)
        assert len(count.cycles) == 1
        assert count.cycles[0].s == pytest.approx(0.5, abs=1e-9)
        assert any("failed" in w for w in count.warnings)

    @pytest.mark.parametrize("slope", [1.0, -1.0])
    def test_non_finite_samples_are_skipped(self, slope):
        # a NaN cell next to no root: no bracket may be built on it
        def disp(s):
            return math.nan if 0.3 < s < 0.32 else slope * (s - 0.5)

        count = count_limit_cycles(disp, 0.1, 1.0, samples=200)
        assert len(count.cycles) == 1
        assert count.cycles[0].s == pytest.approx(0.5, abs=1e-9)
        assert count.cycles[0].stability == ("unstable" if slope > 0 else "stable")
        assert any("failed" in w and "nan" in w for w in count.warnings)

    def test_nan_inside_a_bracket_drops_it(self):
        # both grid ends of the bracket around 0.5 are finite, but Brent
        # lands in the NaN window: the root found there would be no root
        def disp(s):
            return math.nan if 0.4995 < s < 0.5005 else s - 0.5

        count = count_limit_cycles(disp, 0.1, 1.0, samples=200)
        assert count.cycles == ()
        dropped = [w for w in count.warnings if "dropped" in w]
        assert len(dropped) == 1 and "nan" in dropped[0]
        a, b = (float(x) for x in dropped[0].split("[")[1].split("]")[0].split(","))
        assert a < 0.5 < b

    def test_bracket_root_ends(self):
        # a root at the right end is returned without a call; ends of one
        # sign are no bracket
        def unexpected(x):
            raise AssertionError(f"f called at {x}")

        assert flow._bracket_root(unexpected, 0.0, 1.0, -1.0, 0.0, 1e-12) == 1.0
        with pytest.raises(ValueError, match="root is not bracketed"):
            flow._bracket_root(unexpected, 0.0, 1.0, 1.0, 2.0, 1e-12)

    def test_all_samples_failing(self):
        def disp(s):
            raise OutOfBasinError("nope")

        with pytest.raises(NumericError, match="too few displacement samples"):
            count_limit_cycles(disp, 0.1, 1.0, samples=10)

    def test_programming_errors_propagate(self):
        def disp(s):
            raise TypeError("bad callback")

        with pytest.raises(TypeError, match="bad callback"):
            count_limit_cycles(disp, 0.1, 1.0, samples=10)

    def test_range_guard(self):
        with pytest.raises(ValueError, match="0 < s_min < s_max"):
            count_limit_cycles(lambda s: s, 1.0, 0.5)


@pytest.fixture(scope="module")
def circle(circle_mf):
    model = bind(circle_mf)
    fun = field_callable(model.field_x, model.field_y)
    return fun, circle_mf.base_section


class TestCircleField:
    """r' = r(1 - r^2): one attracting cycle on the unit circle."""

    def test_fixed_point_of_return_map(self, circle):
        fun, section = circle
        # the start sits exactly on the section; one revolution returns
        assert numeric_return(fun, section, 1.0) == pytest.approx(1.0, rel=1e-8)

    def test_one_stable_cycle(self, circle):
        fun, section = circle
        count = count_limit_cycles(lambda s: numeric_return(fun, section, s) - s,
                                   0.3, 2.0, samples=25, tol=1e-9)
        assert len(count.cycles) == 1
        cycle = count.cycles[0]
        assert cycle.stability == "stable"
        assert cycle.s == pytest.approx(1.0, abs=1e-8)


class TestCrossingsOnTheLine:
    """A crossing is the root of the line function on the last step's
    interpolant, so every event state lies on its section line to rounding;
    crossing_map reads the parameter off that state as it is."""

    @staticmethod
    def record_events(monkeypatch):
        found = []
        real = flow.integrate

        def recording(*args, **kwargs):
            traj = real(*args, **kwargs)
            if traj.status == "event":
                found.append((traj.state, kwargs["section"]))
            return traj

        monkeypatch.setattr(flow, "integrate", recording)
        return found

    @staticmethod
    def assert_on_line(found, samples):
        assert len(found) >= samples
        for state, section in found:
            offset = (np.asarray(state) - section.anchor) @ section.normal
            assert abs(offset) <= 1e-12 * max(1.0, math.hypot(*state))

    def test_four_saddle_return(self, monkeypatch, game_mf):
        from polycycles.pipeline import return_section

        model = bind(game_mf)
        fun = field_callable(model.field_x, model.field_y)
        section = return_section(model)
        found = self.record_events(monkeypatch)
        svals = 1e-2 * 2.0 ** -np.arange(13)  # the default fit grid
        for s in svals:
            numeric_return(fun, section, float(s))
        self.assert_on_line(found, len(svals))

    def test_circle_return(self, monkeypatch, circle):
        fun, section = circle
        found = self.record_events(monkeypatch)
        svals = np.geomspace(0.3, 2.0, 25)
        for s in svals:
            numeric_return(fun, section, float(s))
        self.assert_on_line(found, len(svals))


class TestIntegrate:
    def test_tmax_state_and_interpolant(self, saddle_fun):
        # x = 0.5 e^t, y = e^(-2t)
        traj = integrate(saddle_fun, (0.5, 1.0), 1.0)
        assert traj.status == "tmax"
        assert traj.t == 1.0
        np.testing.assert_allclose(traj.state, (0.5 * math.e, math.exp(-2.0)), rtol=1e-9)

    def test_event_on_the_interpolant(self, saddle_fun, exit_section):
        # x = 0.25 e^t reaches the line x = 1 at t = ln 4, moving up through
        # (x - 1)·n with n = (-1, 0), i.e. downward
        for direction in (-1.0, 0.0):
            traj = integrate(saddle_fun, (0.25, 1.0), 10.0, section=exit_section,
                             direction=direction)
            assert traj.status == "event"
            assert traj.t == pytest.approx(math.log(4.0), abs=1e-9)
            assert traj.state[0] == pytest.approx(1.0, abs=1e-12)
            assert traj.state[1] == pytest.approx(1.0 / 16.0, rel=1e-9)
        traj = integrate(saddle_fun, (0.25, 1.0), 10.0, section=exit_section, direction=1.0)
        assert traj.status == "tmax"

    def test_span_must_be_positive(self, saddle_fun):
        with pytest.raises(ValueError, match="must be positive"):
            integrate(saddle_fun, (0.5, 1.0), 0.0)

    @pytest.mark.parametrize("source, start, why", [
        ("10^308*x^2", (2.0, 0.0), r"the field is \(inf, 0.0\) at the start \(2, 0\)"),
        # finite, but |fx| over atol + |x|*rtol overflows, so the first trial step is 0
        ("10^308*x^2", (0.3, 0.0), r"the first trial step is 0 at the start \(0.3, 0\)"),
    ], ids=["field-not-finite", "first-step-0"])
    def test_a_start_the_step_rule_cannot_leave_is_a_numeric_error(self, source, start, why):
        with pytest.raises(NumericError, match=why):
            integrate(field_callable(poly(source), poly("0")), start, 1.0)

    def test_a_complex_field_is_a_value_error(self):
        # a complex coefficient gives a field that returns complex values
        c = poly("1 + x") + 0j
        c[0, 0] = 1.0 + 0.5j
        with pytest.raises(ValueError, match=r"the field is complex, \(\(1\.1\+0\.5j\), "
                                             r"0\.0\), at the start \(0\.1, 0\.1\)"):
            integrate(field_callable(c, poly("0")), (0.1, 0.1), 1.0)

    def test_underflowed_interpolation_bisects(self):
        # u' = u from a subnormal u: the root refinement's inverse quadratic
        # denominator underflows to 0.0, where Brent's method bisects
        fun = chart_field(LocalChart(np.array([[1.0]]), np.array([[0.0]])))
        start = (2.2250738585e-313, 0.0)
        section = LineSection.make(integrate(fun, start, 0.25).state, (1.0, 0.5), (-0.3, 0.3))
        try:
            traj = integrate(fun, start, 0.5, section=section, direction=-1.0)
        except NumericError:
            return
        assert isinstance(traj, Trajectory)

    def test_blow_up_is_a_numeric_error(self):
        # x' = x^2 from x = 1 blows up at t = 1
        with pytest.raises(NumericError, match="step size"):
            integrate(field_callable(poly("x^2"), poly("0")), (1.0, 0.0), 2.0)


def test_import_needs_no_scipy():
    src = str(Path(polycycles.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import polycycles; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


class TestScipyParity:
    """The kernel keeps scipy RK45's tableau and step rules, so it takes the
    same steps as solve_ivp; scipy is only the reference here."""

    def test_tableau(self):
        rk45 = pytest.importorskip("scipy.integrate").RK45
        for mine, theirs in ((flow.A, rk45.A), (flow.B, rk45.B), (flow.E, rk45.E),
                             (flow.P, rk45.P)):
            np.testing.assert_array_equal(np.array(mine), theirs)

    @staticmethod
    def counted(fun):
        calls = [0]

        def wrapped(x, y):
            calls[0] += 1
            return fun(x, y)

        return wrapped, calls

    def test_circle_turn(self, circle):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        fun, section = circle
        start = section.point(1.3)
        counted, calls = self.counted(fun)
        traj = integrate(counted, start, 2.0 * math.pi)
        ref = solve_ivp(lambda t, y: fun(*y.tolist()), (0.0, 2.0 * math.pi), start,
                        method="RK45", atol=flow.ATOL, rtol=flow.RTOL)
        assert abs(calls[0] - ref.nfev) <= 0.01 * ref.nfev
        end = ref.y[:, -1]
        np.testing.assert_allclose(traj.state, end, rtol=0.0, atol=1e-12 * np.max(np.abs(end)))

    def test_four_saddle_return(self, game_mf):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        from polycycles.pipeline import return_section

        model = bind(game_mf)
        fun = field_callable(model.field_x, model.field_y)
        section = return_section(model)
        (ax, ay), (nx, ny) = section.anchor, section.normal
        start = integrate(fun, section.point(1e-2), PRE_STEP).state
        vx, vy = fun(*start)
        direction = math.copysign(1.0, vx * nx + vy * ny)

        def line(t, y):
            return (y[0] - ax) * nx + (y[1] - ay) * ny

        line.terminal, line.direction = True, direction
        counted, calls = self.counted(fun)
        traj = integrate(counted, start, 200.0, section=section, direction=direction)
        ref = solve_ivp(lambda t, y: fun(*y.tolist()), (0.0, 200.0), start,
                        method="RK45", events=line, atol=flow.ATOL, rtol=flow.RTOL)
        assert traj.status == "event" and ref.status == 1
        assert abs(calls[0] - ref.nfev) <= 0.01 * ref.nfev
        assert traj.t == pytest.approx(ref.t_events[0][0], rel=1e-12)
        end = ref.y_events[0][0]
        np.testing.assert_allclose(traj.state, end, rtol=0.0, atol=1e-12 * np.max(np.abs(end)))


def horner_loop(c, x, y):
    """sum_ij c[i, j] x^i y^j by the nested loop: Horner in x over Horner
    rows in y, every coefficient taken, zero ones too."""
    acc = 0.0
    for row in reversed(c.tolist()):
        rv = 0.0
        for a in reversed(row):
            rv = rv * y + a
        acc = acc * x + rv
    return acc


def loop_field(fx, fy):
    return lambda x, y: (horner_loop(fx, x, y), horner_loop(fy, x, y))


def loop_chart_field(chart):
    return lambda u, v: (u * horner_loop(chart.p_poly, u, v),
                         v * horner_loop(chart.q_poly, u, v))


def make_chart(p, q):
    return LocalChart(p, q)


def same(a, b):
    """a == b, or both not a number."""
    return a == b or (a != a and b != b)


FINITE = st.one_of(st.just(0.0), st.floats(-8.0, 8.0))
NONFINITE = st.one_of(FINITE, st.sampled_from([math.inf, -math.inf, math.nan]))
POINT = st.floats(-4.0, 4.0)


@st.composite
def coefficient_arrays(draw, elements=FINITE):
    """Arrays up to 5 x 5 with some rows and columns zeroed, the last ones
    (leading zeros) included."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    c = np.array(draw(st.lists(elements, min_size=rows * cols, max_size=rows * cols)),
                 dtype=float).reshape(rows, cols)
    c[draw(st.lists(st.integers(0, rows - 1), max_size=rows)), :] = 0.0
    c[:, draw(st.lists(st.integers(0, cols - 1), max_size=cols))] = 0.0
    return c


class TestGeneratedField:
    """field_callable and chart_field compile one Horner expression per
    coefficient array, cut into statements when it nests too deep; its
    values are those of the nested loop."""

    @staticmethod
    def assert_same(fields, arrays, points):
        got, want = fields
        for x, y in points:
            g, w = got(x, y), want(x, y)
            assert all(same(a, b) for a, b in zip(g, w)), (arrays, x, y, g, w)

    @given(fx=coefficient_arrays(), fy=coefficient_arrays(), x=POINT, y=POINT)
    @settings(max_examples=100)
    def test_finite_coefficients(self, fx, fy, x, y):
        points = [(x, y), (0.0, y), (x, -0.0)]
        self.assert_same((field_callable(fx, fy), loop_field(fx, fy)), (fx, fy), points)
        chart = make_chart(fx, fy)
        self.assert_same((chart_field(chart), loop_chart_field(chart)), (fx, fy), points)

    @given(fx=coefficient_arrays(NONFINITE), fy=coefficient_arrays(NONFINITE),
           x=POINT, y=POINT)
    @settings(max_examples=60)
    def test_non_finite_coefficients(self, fx, fy, x, y):
        chart = make_chart(fx, fy)
        self.assert_same((field_callable(fx, fy), loop_field(fx, fy)), (fx, fy), [(x, y)])
        self.assert_same((chart_field(chart), loop_chart_field(chart)), (fx, fy), [(x, y)])

    @given(re=coefficient_arrays(), x=POINT, y=POINT)
    @settings(max_examples=40)
    def test_complex_array(self, re, x, y):
        c = re + 1j * re[::-1, ::-1]
        c[0, 0] = complex(-0.0, math.inf)
        field = field_callable(c, re)
        self.assert_same((field, loop_field(c, re)), c, [(x, y)])
        # a complex field has the pattern of a real one with its zeros, and
        # carries its complex values
        real = field_callable(np.where(c != 0, 1.0, 0.0), re)
        assert field.pattern == real.pattern
        assert field.coefficients == (*c[c != 0].tolist(), *re[re != 0].tolist())

    @pytest.mark.parametrize("c", [np.array([[2.5]]), np.array([[0.0]]), np.zeros((3, 2)),
                                   np.array([[math.nan]]), np.array([[0.0, -math.inf]])])
    def test_small_arrays(self, c):
        points = [(1.5, -2.0), (0.0, 0.0), (-0.0, 3.0)]
        self.assert_same((field_callable(c, c.T), loop_field(c, c.T)), c, points)
        chart = make_chart(c, c.T)
        self.assert_same((chart_field(chart), loop_chart_field(chart)), c, points)

    def test_high_degree_array(self):
        # degrees in x and y summing to 240 nest deeper than the 200
        # parentheses Python parses in one expression
        rng = np.random.default_rng(121)
        c = rng.uniform(-1.0, 1.0, size=(121, 121))
        c[rng.random(c.shape) < 0.2] = 0.0
        points = [(0.7, -0.9), (-0.95, 0.4), (0.0, 0.99)]
        self.assert_same((field_callable(c, c.T), loop_field(c, c.T)), c, points)
        chart = make_chart(c, c.T)
        self.assert_same((chart_field(chart), loop_chart_field(chart)), c, points)

    @staticmethod
    def assert_same_run(got, want, start, t_max, **kwargs):
        got, got_calls = TestScipyParity.counted(got)
        want, want_calls = TestScipyParity.counted(want)
        traj = integrate(got, start, t_max, **kwargs)
        assert traj == integrate(want, start, t_max, **kwargs)
        assert got_calls[0] == want_calls[0]
        return traj

    def test_four_saddle_return(self, game_mf):
        from polycycles.pipeline import return_section

        model = bind(game_mf)
        section = return_section(model)
        fun = field_callable(model.field_x, model.field_y)
        for s in (1e-2, 1e-4):
            start = integrate(fun, section.point(s), PRE_STEP).state
            vx, vy = fun(*start)
            direction = math.copysign(1.0, vx * section.normal[0] + vy * section.normal[1])
            traj = self.assert_same_run(fun, loop_field(model.field_x, model.field_y),
                                        start, 200.0, section=section, direction=direction)
            assert traj.status == "event"

    def test_four_saddle_corners(self, game_mf):
        from polycycles.pipeline import _geometry

        model = bind(game_mf)
        for geo in _geometry(game_mf):
            chart = normalize_saddle(model.field_x, model.field_y, geo.corner, geo.incoming,
                                     geo.outgoing)
            exit_line = LineSection.make((geo.h_out, 0.0), (0.0, 1.0), (-np.inf, np.inf))
            traj = self.assert_same_run(chart_field(chart), loop_chart_field(chart),
                                        (1e-3, geo.h_in), 200.0, section=exit_line)
            assert traj.status == "event"


@st.composite
def deep_arrays(draw):
    """30 x 30 arrays, a few rows and columns zeroed: their Horner
    expressions nest past _MAX_DEPTH and are cut into temporaries.  The
    coefficients fall off as 2^-(i+j), so the field stays moderate."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i, j = np.indices((30, 30))
    c = rng.uniform(-1.0, 1.0, size=(30, 30)) * 0.5 ** (i + j)
    c[draw(st.lists(st.integers(0, 29), max_size=3)), :] = 0.0
    c[:, draw(st.lists(st.integers(0, 29), max_size=3))] = 0.0
    return c


def run_bits(fun, start, t_max, **kwargs):
    """The Trajectory integrate returns, its floats as hex so that signed
    zeros differ, or the error it raises."""
    try:
        traj = integrate(fun, start, t_max, **kwargs)
    except (NumericError, ArithmeticError) as exc:
        return repr(exc)
    return traj.status, traj.t.hex(), tuple(v.hex() for v in traj.state)


class TestGeneratedKernel:
    """A field_callable or chart_field field runs in the kernel of its
    pattern, with the field inlined; any other callable runs in the kernel
    that calls it at each stage.  Both take the same steps bit for bit, so
    the RHS counts that TestScipyParity takes with wrappers, which run in
    the calling kernel, hold for the inlined one too."""

    @given(kind=st.sampled_from([field_callable, lambda fx, fy: chart_field(make_chart(fx, fy))]),
           arrays=st.one_of(st.tuples(coefficient_arrays(), coefficient_arrays()),
                            st.tuples(deep_arrays(), deep_arrays())),
           start=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
           window=st.sampled_from([None, (-0.3, 0.3), (1e-3, 0.3)]),
           direction=st.sampled_from([-1.0, 0.0, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_inlined_equals_called(self, kind, arrays, start, window, direction):
        fun = kind(*arrays)
        assert fun.pattern is not None
        calls = [0]

        def called(x, y):
            # a budget of field evaluations keeps a stiff draw from running on
            calls[0] += 1
            assume(calls[0] <= 5000)
            return fun(x, y)

        kwargs = {}
        if window is not None:
            # a section line through the orbit's point at t = 0.25, so that
            # most runs cross it, inside the window or past its end
            mid = run_bits(called, start, 0.25)
            anchor = tuple(map(float.fromhex, mid[2])) if mid[0] == "tmax" else start
            kwargs = {"section": LineSection.make(anchor, (1.0, 0.5), window),
                      "direction": direction}
        want = run_bits(called, start, 0.5, **kwargs)
        assert run_bits(fun, start, 0.5, **kwargs) == want

    def test_one_kernel_per_pattern(self):
        f = field_callable(poly("x - 2*y"), poly("3*x*y"))
        g = field_callable(poly("5*x + y/2"), poly("-x*y"))
        assert f.pattern == g.pattern and f.coefficients != g.coefficients
        flow._KERNELS.pop(f.pattern, None)
        count = len(flow._KERNELS)
        first = integrate(f, (0.1, 0.2), 0.5)
        kernel = flow._KERNELS[f.pattern]
        assert integrate(g, (0.1, 0.2), 0.5) != first
        assert flow._KERNELS[g.pattern] is kernel and len(flow._KERNELS) == count + 1

    def test_import_and_bind_compile_no_kernel(self):
        src = str(Path(polycycles.__file__).resolve().parents[1])
        models = [str(p) for p in sorted((Path(src).parent / "models").glob("*.model"))]
        code = (f"import sys; sys.path.insert(0, {src!r}); import polycycles.cli; "
                "from polycycles import flow; from polycycles.model import bind, load_model; "
                f"[bind(load_model(p)) for p in {models!r}]; print(len(flow._KERNELS))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "0"
