"""Composition algebra of Dulac-type expansions.

Spot values pin the hand-checkable compositions and inversions; the
hypothesis properties cover the laws that must hold on generic data
(associativity, inverse cancellation, the compensator identity).  The
return and displacement expansions come from the composition fold; the
paper's closed forms for block chains, written out below, are the
reference they are checked against.
"""

import math

import mpmath as mp
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from polycycles.calculus import (
    EXPONENT_DEAD_BAND,
    CompensatorTerm,
    DulacExpansion,
    ReturnExpansion,
    compensator,
    compose_chain,
    compose_pair,
    displacement_expansion,
    inverse_dulac,
    return_expansion,
)
from polycycles.errors import DegeneracyError, NumericError, UnsupportedGeometryError


def dmap(ratio, leading, w=None, c=None, s1=None, s2=None):
    """Raw two-term map for algebra tests, with saddle-like defaults."""
    if w is None and c is None:
        return DulacExpansion(ratio=ratio, leading=leading, ell=(1.0, 1.0), s1=s1, s2=s2)
    lo = w
    hi = min(ratio, 2.0) if ratio > 1.0 else min(2.0 * ratio, 1.0)
    return DulacExpansion(ratio=ratio, leading=leading,
                          terms=((w, c),),
                          ell=(lo, max(hi, lo)), s1=s1, s2=s2)


def above(lam, a, s1, s2=0.0):
    """Corner-style map with ratio > 1: second term at offset 1."""
    return dmap(lam, a, w=1.0, c=lam * a * s1, s1=s1, s2=s2)


def below(lam, a, s2, s1=0.0):
    """Corner-style map with ratio < 1: second term at offset lam."""
    return dmap(lam, a, w=lam, c=-(a * a) * s2, s1=s1, s2=s2)


# ---------------------------------------------------------------------------
# The paper's closed forms for block chains (1-based corner indices)


def lambda_product(lams, i, k):
    """Lambda_{i,k}: product of the ratios with index i+1 through k."""
    return math.prod(lams[i:k], start=1.0)


def a_product(lams, d00s, j, k):
    """A_{j,k}: leading coefficient of D_k o ... o D_j, prod_i D00_i^Lambda_{i,k}."""
    return math.prod((d00s[i - 1] ** lambda_product(lams, i, k) for i in range(j, k + 1)),
                     start=1.0)


def a_star(lams, d00s, j, k):
    """A*_{j,k}: leading coefficient of (D_k o ... o D_j)^-1,
    prod_l D00_l^(-1/Lambda_{j-1,l})."""
    return math.prod((d00s[l - 1] ** (-1.0 / lambda_product(lams, j - 1, l))
                      for l in range(j, k + 1)), start=1.0)


def paper_return(ds):
    """(r, A, kind, exponent, coefficient, scale) of a block chain's return map.

    B: the first expanding corner's term at offset 1, r A S1_1.
    C: the last contracting corner's term at offset r, -A^2 S2_n.
    A: below-then-above with split m, Lambda_{m,n} A_{1,m} A (S1_{m+1} - S2_m)
    at offset Lambda_{0,m}.  Above-then-below keeps B or C by r.
    """
    n, lams, d00s = len(ds), [d.ratio for d in ds], [d.leading for d in ds]
    r, lead = lambda_product(lams, 0, n), a_product(lams, d00s, 1, n)
    b = (r, lead, "B", 1.0, r * lead * ds[0].s1, abs(r * lead))
    c = (r, lead, "C", r, -(lead ** 2) * ds[-1].s2, lead ** 2)
    up = [d.ratio > 1.0 for d in ds]
    if all(up) or (up[0] and r > 1.0):
        return b
    if up[0] or not any(up):
        return c
    m = up.index(True)
    pre = lambda_product(lams, m, n) * a_product(lams, d00s, 1, m) * lead
    return (r, lead, "A", lambda_product(lams, 0, m), pre * (ds[m].s1 - ds[m - 1].s2), abs(pre))


def paper_displacement(ds, m):
    """(exponents, psi1, psi2, psi3, scale, psi3 size) of an expanding block
    ds[:m] followed by a contracting block ds[m:]; the size is that of the
    two terms psi3 is the difference of."""
    n, lams, d00s = len(ds), [d.ratio for d in ds], [d.leading for d in ds]
    lam_0m, lam_mn = lambda_product(lams, 0, m), lambda_product(lams, m, n)
    a_1m, astar = a_product(lams, d00s, 1, m), a_star(lams, d00s, m + 1, n)
    term1 = lam_0m * ds[0].s1 if m >= 1 else 0.0
    term2 = ds[-1].s2 / lam_mn if m < n else 0.0
    scale = max(abs(a_1m), abs(astar))
    return ((lam_0m, 1.0 / lam_mn), (1.0 / lam_mn - lam_0m) * a_1m, a_1m - astar,
            astar * (term1 - term2), scale, scale * (abs(term1) + abs(term2)))


def log_size(x):
    """1 + |ln |x||.  A power x = b^y carries a rounding of order eps |ln x|,
    so two ways of forming one differ by that much relative to x."""
    return 1.0 + abs(math.log(abs(x)))


# 1-5 corners in at most two blocks: k corners on one side of 1, then the rest
block_chains = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.booleans(), st.integers(0, n),
    st.lists(st.tuples(*[st.floats(lo, hi, allow_subnormal=False)
                         for lo, hi in ((0.2, 0.95), (1.05, 3.0), (0.5, 2.0),
                                        (-2.0, 2.0), (-2.0, 2.0))]),
             min_size=n, max_size=n)))


def make_block_chain(first_up, k, draws):
    """Corners before k expand when first_up is set, the rest the other way."""
    return [above(hi, a, s1, s2=s2) if first_up == (i < k) else below(lo, a, s2, s1=s1)
            for i, (lo, hi, a, s1, s2) in enumerate(draws)]


class TestCompensator:
    def test_log_limit(self):
        for s in (0.01, 0.1, 0.5, 1.0):
            assert compensator(s, 0.0) == pytest.approx(-math.log(s), abs=1e-15)

    def test_spot_values(self):
        assert compensator(1.0, 0.3) == 0.0
        assert compensator(0.5, 1.0) == pytest.approx(1.0, rel=1e-15)
        assert compensator(0.25, -1.0) == pytest.approx(0.75, rel=1e-15)

    def test_continuity_in_alpha(self):
        # |omega(s; alpha) + ln s| <= |alpha| ln^2 s on s in [0.1, 1]
        for alpha in (1e-3, -1e-3, 1e-6, -1e-6, 1e-9, 1e-12):
            for s in (0.1, 0.2, 0.5, 0.9, 1.0):
                err = abs(compensator(s, alpha) + math.log(s))
                assert err <= abs(alpha) * math.log(s) ** 2 + 1e-15

    def test_derivative(self):
        # d/ds omega = -s^(-alpha-1), checked by central differences
        for alpha in (-0.5, -0.1, 0.0, 0.2, 0.5):
            for s in (0.1, 0.3, 0.7, 1.0):
                h = 1e-6 * s
                diff = (compensator(s + h, alpha) - compensator(s - h, alpha)) / (2 * h)
                assert diff == pytest.approx(-s ** (-alpha - 1.0), rel=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError, match="requires s > 0"):
            compensator(0.0, 0.1)
        with pytest.raises(ValueError, match="requires s > 0"):
            compensator(-1.0, 0.0)

    @given(s=st.floats(1e-6, 1.0), alpha=st.floats(-0.5, 0.5),
           plain=st.floats(-10, 10), wrapped=st.floats(-10, 10))
    def test_term_identity(self, s, alpha, plain, wrapped):
        # the compensator term is exactly plain*s^e + wrapped*s^(e-alpha)
        assume(alpha != 0.0)
        term = CompensatorTerm(exponent=0.7, alpha=alpha, plain=plain, wrapped=wrapped)
        direct = plain * s ** 0.7 + wrapped * s ** (0.7 - alpha)
        assert term.value(s) == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestComposePair:
    def test_integer_ratios(self):
        # (s^2(2 + 3s)) then (s^3(5 + 7s)): the first factor's second
        # term lands at offset 1, below the transported offset 2
        d1 = dmap(2.0, 2.0, w=1.0, c=3.0)
        d2 = dmap(3.0, 5.0, w=1.0, c=7.0)
        out = compose_pair(d1, d2)
        assert out.ratio == pytest.approx(6.0)
        assert out.leading == pytest.approx(40.0)
        assert out.terms[0][0] == pytest.approx(1.0)
        assert out.terms[0][1] == pytest.approx(180.0, rel=1e-13)
        assert out.case == "above-one"
        assert out.ell == pytest.approx((1.0, 2.0))

    def test_contracting_ratios(self):
        d1 = dmap(0.5, 2.0, w=0.5, c=1.0)
        d2 = dmap(1.0 / 3.0, 3.0, w=1.0 / 3.0, c=-1.0)
        out = compose_pair(d1, d2)
        assert out.ratio == pytest.approx(1.0 / 6.0)
        assert out.leading == pytest.approx(3.0 * 2.0 ** (1.0 / 3.0), rel=1e-14)
        assert out.terms[0][0] == pytest.approx(1.0 / 6.0)
        assert out.terms[0][1] == pytest.approx(-(2.0 ** (2.0 / 3.0)), rel=1e-13)

    def test_resonant_offsets_add(self):
        # transported offsets collide exactly: 1.0 and 2.0 * 0.5
        d1 = dmap(2.0, 3.0, w=1.0, c=5.0)
        d2 = dmap(0.5, 2.0, w=0.5, c=7.0)
        out = compose_pair(d1, d2)
        expected = 0.5 * 3.0 ** -0.5 * 2.0 * 5.0 + 3.0 * 7.0
        assert out.terms[0][0] == pytest.approx(1.0)
        assert out.terms[0][1] == pytest.approx(expected, rel=1e-13)
        assert out.comp is None

    def test_near_collision_keeps_both(self):
        d1 = dmap(2.0, 3.0, w=1.0, c=5.0)
        d2 = dmap(0.5, 2.0, w=0.5 * (1.0 + 2e-10), c=7.0)
        out = compose_pair(d1, d2)
        assert out.terms == ()
        comp = out.comp
        assert comp is not None
        assert comp.exponent == pytest.approx(1.0)
        assert comp.alpha == pytest.approx(-2e-10, rel=1e-3)
        s = 0.37
        w2 = 0.5 * (1.0 + 2e-10)
        direct = (0.5 * 3.0 ** -0.5 * 2.0 * 5.0 * s ** 1.0
                  + 3.0 ** (0.5 + w2) * 7.0 * s ** (2.0 * w2))
        assert comp.value(s) == pytest.approx(direct, rel=1e-12)

    def test_truncated_factor_rejected(self):
        # a missing second term may dominate any surviving candidate, so a
        # factor truncated to leading order does not compose, on either side
        truncated, full = dmap(2.0, 3.0), dmap(1.5, 2.0, w=1.0, c=4.0)
        for d1, d2 in ((truncated, full), (full, truncated)):
            with pytest.raises(ValueError, match="cannot be composed further"):
                compose_pair(d1, d2)

    def test_compensator_factor_rejected(self):
        d1 = dmap(2.0, 3.0, w=1.0, c=5.0)
        d2 = dmap(0.5, 2.0, w=0.5 * (1.0 + 2e-10), c=7.0)
        frozen = compose_pair(d1, d2)
        with pytest.raises(ValueError, match="cannot be composed further"):
            compose_pair(frozen, dmap(1.5, 1.0, w=1.0, c=1.0))

    def test_compensator_factor_beaten(self):
        # a compensator-form left factor composes when the right factor's
        # candidate lands below the joint term, outside the dead band
        d1 = dmap(2.0, 3.0, w=1.0, c=5.0)
        d2 = dmap(0.5, 2.0, w=0.5 * (1.0 + 2e-10), c=7.0)
        frozen = compose_pair(d1, d2)
        out = compose_pair(frozen, dmap(0.6, 1.5, w=0.6, c=-2.0))
        assert out.comp is None
        assert out.terms[0][0] == frozen.ratio * 0.6
        assert out.terms[0][1] == pytest.approx(frozen.leading ** 1.2 * -2.0, rel=1e-15)
        assert out.ell == (out.terms[0][0], frozen.comp.exponent)

    def test_chain_fold_matches_pair(self):
        d1, d2, d3 = above(1.5, 2.0, 0.3), above(2.0, 1.5, -0.2), below(0.4, 3.0, 0.5)
        folded = compose_chain([d1, d2, d3])
        paired = compose_pair(compose_pair(d1, d2), d3)
        assert folded.ratio == paired.ratio
        assert folded.leading == paired.leading
        assert folded.terms[0][1] == paired.terms[0][1]
        with pytest.raises(ValueError, match="empty chain"):
            compose_chain([])


class TestInverse:
    def test_spot_value(self):
        inv = inverse_dulac(dmap(2.0, 4.0, w=1.0, c=1.0))
        assert inv.ratio == pytest.approx(0.5)
        assert inv.leading == pytest.approx(0.5)
        assert inv.terms[0][0] == pytest.approx(0.5)
        assert inv.terms[0][1] == pytest.approx(-1.0 / 32.0, rel=1e-14)
        assert inv.case == "below-one"

    def test_truncated_inverse(self):
        with pytest.raises(ValueError, match="cannot be inverted"):
            inverse_dulac(dmap(2.0, 4.0))

    def test_compensator_rejected(self):
        d1 = dmap(2.0, 3.0, w=1.0, c=5.0)
        d2 = dmap(0.5, 2.0, w=0.5 * (1.0 + 2e-10), c=7.0)
        with pytest.raises(ValueError, match="cannot be inverted"):
            inverse_dulac(compose_pair(d1, d2))

    @given(lam=st.floats(0.4, 2.5), a=st.floats(0.5, 3.0), c=st.floats(-4.0, 4.0))
    @settings(max_examples=60)
    def test_inverse_laws(self, lam, a, c):
        assume(abs(lam - 1.0) > 1e-3 and abs(c) > 1e-3)
        w = 1.0 if lam > 1.0 else lam
        d = dmap(lam, a, w=w, c=c)

        twice = inverse_dulac(inverse_dulac(d))
        assert twice.ratio == pytest.approx(lam, rel=1e-12)
        assert twice.leading == pytest.approx(a, rel=1e-12)
        assert twice.terms[0][0] == pytest.approx(w, rel=1e-12)
        assert twice.terms[0][1] == pytest.approx(c, rel=1e-10)

        for ident in (compose_pair(d, inverse_dulac(d)),
                      compose_pair(inverse_dulac(d), d)):
            assert ident.ratio == pytest.approx(1.0, rel=1e-12)
            assert ident.leading == pytest.approx(1.0, rel=1e-12)
            second = (ident.comp.value(0.01) if ident.comp is not None
                      else ident.terms[0][1] * 0.01 ** ident.terms[0][0])
            assert abs(second) < 1e-9


class TestAssociativity:
    @given(data=st.tuples(*[st.tuples(st.floats(0.4, 2.5), st.floats(0.5, 3.0),
                                      st.floats(-4.0, 4.0)) for _ in range(3)]))
    @settings(max_examples=80)
    def test_compose_is_associative(self, data):
        maps, offsets, carry = [], [], 1.0
        for lam, a, c in data:
            assume(abs(lam - 1.0) > 1e-3 and abs(c) > 1e-3)
            w = 1.0 if lam > 1.0 else lam
            maps.append(dmap(lam, a, w=w, c=c))
            offsets.append(carry * w)
            carry *= lam
        # transported offsets must tie exactly (resonance: both orders sum
        # the coefficients) or be cleanly separated; gaps inside the dead
        # band make the two association orders legitimately differ
        gaps = [abs(x - y) for i, x in enumerate(offsets) for y in offsets[i + 1:]]
        assume(all(g == 0.0 or g > 1e-6 for g in gaps))

        d1, d2, d3 = maps
        left = compose_pair(compose_pair(d1, d2), d3)
        right = compose_pair(d1, compose_pair(d2, d3))
        assert left.ratio == pytest.approx(right.ratio, rel=1e-12)
        assert left.leading == pytest.approx(right.leading, rel=1e-12)
        assert left.terms[0][0] == pytest.approx(right.terms[0][0], rel=1e-12)
        assert left.terms[0][1] == pytest.approx(right.terms[0][1], rel=1e-9)


def hand_listed_ell(d1, d2):
    """The remainder interval of d2 o d1 by the rule that held while a factor
    kept one term in two fields: the least of five hand-listed exponents,
    one of them the larger of two clearly separated candidates."""
    nu1, ((w2, _),) = d1.ratio, d2.terms
    w1 = d1.terms[0][0] if d1.terms else d1.comp.exponent
    if d1.terms:
        e_lo, e_hi = sorted([w1, nu1 * w2], key=lambda e: e.real)
        clear = (e_hi - e_lo).real > EXPONENT_DEAD_BAND * max(1.0, abs(e_lo.real))
        beaten = e_hi if clear else None
    else:
        e_lo, beaten = nu1 * w2, w1
    hi_bounds = [d1.ell[1], nu1 * d2.ell[1], 2.0 * w1, w1 + nu1 * w2, beaten]
    his = [h.real for h in hi_bounds if h is not None and math.isfinite(h.real)]
    hi = min(his) if his else e_lo.real
    return (e_lo.real, max(hi, e_lo.real))


def one_term(lam, a, c, hi, w=None):
    """A one-term factor: its term at the corner exponent unless w is given,
    its remainder from ``hi``, or the corner rule when that is None."""
    w = (lam if lam < 1.0 else 1.0) if w is None else w
    hi = (min(2.0 * lam, 1.0) if lam < 1.0 else min(lam, 2.0)) if hi is None else hi
    return DulacExpansion(ratio=lam, leading=a, terms=((w, c),), ell=(w, max(hi, w)))


one_term_args = st.tuples(st.floats(0.2, 3.0), st.floats(0.5, 2.0), st.floats(-2.0, 2.0),
                          st.one_of(st.none(), st.just(math.inf), st.floats(0.1, 5.0)))


class TestRemainderRule:
    """compose_pair's one rule gives the hand-listed interval on one-term factors."""

    # None: the corner exponents; else d2's term lands at (1 + shift) d1's:
    # a bit-equal tie, a rounding-level tie, inside the dead band, or past it
    @given(f1=one_term_args, f2=one_term_args,
           shift=st.sampled_from([None, 0.0, 1e-16, 3e-10, -3e-10, 2e-9, -2e-9, 1e-6]))
    @settings(max_examples=300)
    def test_one_term_factors(self, f1, f2, shift):
        d1 = one_term(*f1)
        d2 = one_term(*f2, w=None if shift is None else d1.terms[0][0] / d1.ratio * (1 + shift))
        assert compose_pair(d1, d2).ell == hand_listed_ell(d1, d2)

    @given(f1=one_term_args, f2=one_term_args, f3=one_term_args,
           shift=st.sampled_from([3e-10, -3e-10, 8e-10]), frac=st.floats(0.05, 0.95))
    @settings(max_examples=150)
    def test_compensator_left_factor(self, f1, f2, f3, shift, frac):
        # a dead-band collision freezes a compensator factor, which composes
        # with a right factor whose term lands clearly below its exponent
        d1 = one_term(*f1)
        d2 = one_term(*f2, w=d1.terms[0][0] / d1.ratio * (1 + shift))
        frozen = compose_pair(d1, d2)
        assert frozen.comp is not None and frozen.ell == hand_listed_ell(d1, d2)
        d3 = one_term(*f3, w=frac * frozen.comp.exponent / frozen.ratio)
        assert compose_pair(frozen, d3).ell == hand_listed_ell(frozen, d3)


class TestChainProducts:
    """The reference products on hand-checkable chains."""

    LAMS = [2.0, 3.0]
    D00S = [2.0, 5.0]

    def test_lambda_product(self):
        assert lambda_product(self.LAMS, 0, 2) == pytest.approx(6.0)
        assert lambda_product(self.LAMS, 1, 2) == pytest.approx(3.0)
        assert lambda_product(self.LAMS, 2, 2) == 1.0

    def test_a_product_matches_composition(self):
        assert a_product(self.LAMS, self.D00S, 1, 2) == pytest.approx(40.0)
        out = compose_pair(dmap(2.0, 2.0, w=1.0, c=3.0), dmap(3.0, 5.0, w=1.0, c=7.0))
        assert a_product(self.LAMS, self.D00S, 1, 2) == pytest.approx(out.leading)
        assert a_product(self.LAMS, self.D00S, 3, 2) == 1.0

    def test_a_star_matches_inverse(self):
        lams, d00s = [0.5, 1.0 / 3.0], [2.0, 3.0]
        out = compose_pair(dmap(0.5, 2.0, w=0.5, c=1.0),
                           dmap(1.0 / 3.0, 3.0, w=1.0 / 3.0, c=-1.0))
        inv = inverse_dulac(out)
        assert a_star(lams, d00s, 1, 2) == pytest.approx(inv.leading, rel=1e-13)


class TestFoldAgainstPaper:
    """The fold against the paper's closed forms on random block chains.

    Ratios, exponents and alpha agree bit for bit.  Each tolerance is at
    most ten times the largest deviation measured in seeded runs of up to
    150,000 chains from these ranges, many drawn at their bounds: leading
    coefficients 1.3e-14 relative, second coefficients 3.5e-14 of
    ``second_scale``, psi2 2e-14 of the displacement scale and psi3 2e-14
    of the size of its two terms.  The last two are taken times
    log_size(scale), because the inverted contracting blocks reach 1e300,
    where a power rounds by hundreds of eps.  psi1 is the bit-equal alpha
    times the expanding block's leading coefficient, so it takes the
    leading tolerance.
    """

    @given(drawn=block_chains)
    @settings(max_examples=150)
    def test_return_map(self, drawn):
        chain = make_block_chain(*drawn)
        r, lead, kind, exponent, coeff, scale = paper_return(chain)
        # above-then-below at r = 1 (tie or dead band) is pinned separately
        assume(kind == "A" or abs(r - 1.0) > 1e-6)
        ret = return_expansion(chain)
        assert (ret.ratio, ret.kind, ret.second_exponent) == (r, kind, exponent)
        assert ret.leading == pytest.approx(lead, rel=6.5e-14)
        assert ret.second_scale == pytest.approx(scale, rel=6.5e-14)
        assert abs(ret.second_coeff - coeff) <= 1.6e-13 * scale

    @given(drawn=block_chains)
    @settings(max_examples=150)
    def test_displacement(self, drawn):
        first_up, k, _ = drawn
        chain = make_block_chain(*drawn)
        try:
            disp = displacement_expansion(chain)
            rds = chain[disp.rotation:] + chain[:disp.rotation]
            exponents, psi1, psi2, psi3, scale, size3 = paper_displacement(rds, disp.split)
        except (OverflowError, NumericError):  # an inverted block beyond the float range
            reject()
        # the rotation brings the expanding block to the front
        assert disp.rotation == (k if not first_up and 0 < k < len(chain) else 0)
        assert disp.split == sum(d.ratio > 1.0 for d in chain)
        assert disp.exponents == exponents
        assert disp.alpha == exponents[1] - exponents[0]
        assert disp.scale == pytest.approx(scale, rel=1.5e-13 * log_size(scale))
        assert abs(disp.psi1 - psi1) <= 6.5e-14 * abs(disp.alpha) * scale
        assert abs(disp.psi2 - psi2) <= 1.5e-13 * scale * log_size(scale)
        assert abs(disp.psi3 - psi3) <= 1.5e-13 * size3 * log_size(scale)


class TestSecondTerm:
    def test_plain_and_missing(self):
        ret = ReturnExpansion(pattern="above-block", ratio=1.5, leading=2.0,
                              kind="B", second_exponent=1.0, second_coeff=3.0)
        assert ret.second_value(0.1) == pytest.approx(0.3)
        assert ret.evaluate(0.1) == pytest.approx(0.1 ** 1.5 * 2.3)
        bare = ReturnExpansion(pattern="degenerate", ratio=1.5, leading=2.0)
        assert bare.second_value(0.1) == 0.0


class TestReturnExpansion:
    def test_expanding_block(self):
        chain = [above(1.5, 2.0, 0.3, s2=0.1), above(2.0, 1.5, -0.2, s2=0.4)]
        ret = return_expansion(chain)
        assert ret.pattern == "above-block"
        assert ret.kind == "B"
        assert ret.ratio == pytest.approx(3.0)
        leading = 2.0 ** 2.0 * 1.5
        assert ret.leading == pytest.approx(leading)
        assert ret.second_exponent == 1.0
        assert ret.second_coeff == pytest.approx(3.0 * leading * 0.3, rel=1e-13)

    def test_contracting_block(self):
        chain = [below(0.5, 2.0, 0.3, s1=0.1), below(0.4, 1.5, -0.2, s1=0.4)]
        ret = return_expansion(chain)
        assert ret.pattern == "below-block"
        assert ret.kind == "C"
        assert ret.ratio == pytest.approx(0.2)
        leading = 2.0 ** 0.4 * 1.5
        assert ret.leading == pytest.approx(leading, rel=1e-14)
        assert ret.second_exponent == pytest.approx(0.2)
        assert ret.second_coeff == pytest.approx(leading ** 2 * 0.2, rel=1e-13)

    def test_contraction_then_expansion(self, game_chain):
        ret = return_expansion(game_chain)
        assert ret.pattern == "below-then-above"
        assert ret.kind == "A"
        assert ret.split == 1
        assert ret.ratio == pytest.approx(1.0, abs=1e-12)
        assert ret.leading == pytest.approx(1.0, rel=1e-9)
        assert ret.second_exponent == pytest.approx(8.0 / 27.0, rel=1e-12)
        assert ret.second_coeff == pytest.approx(0.34899393115700983, rel=1e-9)
        # the second coefficient is the scaled S-difference across the split
        diff = game_chain[1].s1 - game_chain[0].s2
        assert ret.second_coeff == pytest.approx(ret.second_scale * diff, rel=1e-12)

    def test_contraction_then_expansion_flatness(self, game_chain):
        # Compose the four_saddle corners as exact three-term maps
        # s^lam (D00 + lam D00 S1 s - D00^2 S2 s^lam) in 80-digit arithmetic.
        # What the two-term form leaves over must decay at least as fast as
        # the remainder interval promises, and faster than the second term.
        ret = return_expansion(game_chain)
        assert ret.kind == "A"
        with mp.workdps(80):
            corners = [tuple(mp.mpf(v) for v in (d.ratio, d.leading, d.s1, d.s2))
                       for d in game_chain]
            r = mp.fprod(lam for lam, _, _, _ in corners)
            lead, coeff, exp = (mp.mpf(v) for v in (ret.leading, ret.second_coeff,
                                                    ret.second_exponent))

            def gap(s):
                x = s
                for lam, a, s1, s2 in corners:
                    x = x**lam * (a + lam * a * s1 * x - a * a * s2 * x**lam)
                return x / s**r - lead - coeff * s**exp

            s = mp.mpf(2) ** -70
            local = float(mp.log(gap(s) / gap(s / 2), 2))
        assert local >= ret.ell[1] - 0.02
        assert local >= ret.second_exponent + 0.1

    def test_expansion_then_contraction_generic(self):
        up, down = above(2.0, 1.5, 0.3, s2=0.1), below(0.4, 2.0, -0.5, s1=0.2)
        ret = return_expansion([up, down])
        assert ret.pattern == "above-then-below"
        assert ret.kind == "C"  # r = 0.8 < 1: the offset-r term leads
        assert ret.second_exponent == pytest.approx(0.8)
        ret2 = return_expansion([above(2.0, 1.5, 0.3), below(0.7, 2.0, -0.5)])
        assert ret2.kind == "B" and ret2.second_exponent == 1.0

    def test_expansion_then_contraction_resonant(self):
        # ratios 2.0 and 0.5 multiply to exactly 1: both terms survive
        up, down = above(2.0, 1.5, 0.3, s2=0.1), below(0.5, 2.0, -0.5, s1=0.2)
        ret = return_expansion([up, down])
        assert ret.kind == "A"
        assert ret.second_exponent == 1.0
        leading = 1.5 ** 0.5 * 2.0
        expected = 1.0 * leading * 0.3 - leading ** 2 * (-0.5)
        assert ret.second_coeff == pytest.approx(expected, rel=1e-13)

    def test_expansion_then_contraction_near_resonant(self):
        lam2 = 0.5 * (1.0 + 3e-10)
        ret = return_expansion([above(2.0, 1.5, 0.3, s2=0.1),
                                below(lam2, 2.0, -0.5, s1=0.2)])
        assert ret.kind == "compensator"
        assert ret.second_coeff is None and ret.comp is not None
        s = 0.02
        b = ret.ratio * ret.leading * 0.3
        c = -(ret.leading ** 2) * (-0.5)
        direct = b * s ** 1.0 + c * s ** ret.ratio
        assert ret.second_value(s) == pytest.approx(direct, rel=1e-10)

    def test_dead_band_partial_product_keeps_second_term(self):
        # the first two ratios multiply to within the dead band of 1, so the
        # fold holds a compensator after two corners; the third corner's
        # term lands clearly below it and is kept, the joint term bounds
        # the remainder
        chain = [above(2.0, 1.5, 0.3),
                 below(0.5 * (1.0 + 3e-10), 2.0, -0.5),
                 below(0.6, 1.2, 0.7)]
        ret = return_expansion(chain)
        assert ret.pattern == "above-then-below"
        assert ret.kind == "C"
        assert ret.second_exponent == ret.ratio
        assert ret.comp is None
        assert ret.second_coeff == pytest.approx(-2.953597300211753, rel=1e-13)
        assert ret.ell == pytest.approx((0.60000000018, 1.0), rel=1e-15)

    def test_resonant_corner_truncates(self):
        chain = [above(1.5, 2.0, 0.3),
                 DulacExpansion(ratio=1.0, leading=0.5)]
        ret = return_expansion(chain)
        assert ret.pattern == "degenerate"
        assert ret.kind is None and ret.second_coeff is None
        assert any("truncated to leading order" in n for n in ret.notes)

    def test_near_resonant_internal_collision_keeps_leading_order(self):
        # composed, the second corner's term at 0.5 + 5e-13 lands 1e-12 from
        # the first's at 1; the pair's compensator takes no third corner
        chain = [DulacExpansion(2.0, 1.5, ((1.0, 0.3),)),
                 DulacExpansion(1.5, 0.8, ((0.5 + 5e-13, -0.2),)),
                 DulacExpansion(1.25, 1.1, ((1.0, 0.4),))]
        with pytest.raises(ValueError):
            compose_chain(chain)
        ret = return_expansion(chain)
        assert ret.pattern == "above-block"
        assert ret.ratio == 2.0 * 1.5 * 1.25 == 3.75
        assert ret.leading == pytest.approx((1.5**1.5 * 0.8) ** 1.25 * 1.1, rel=1e-15)  # 1.78003
        assert ret.kind is None and ret.second_coeff is None
        assert ret.ell == (0.0, 0.0)
        assert ret.notes == ("near-resonant internal collision: leading order only",)

    def test_interleaved_falls_back_to_fold(self):
        chain = [above(1.5, 2.0, 0.3), below(0.4, 3.0, 0.5), above(2.0, 1.5, -0.2)]
        ret = return_expansion(chain)
        assert ret.pattern == "interleaved"
        assert ret.kind == "fold"
        fold = compose_chain(chain)
        assert ret.second_exponent == pytest.approx(fold.terms[0][0])
        assert ret.second_coeff == pytest.approx(fold.terms[0][1])
        assert any("generic composition" in n for n in ret.notes)

    def test_evaluate_consistency(self):
        ret = return_expansion([above(1.5, 2.0, 0.3), above(2.0, 1.5, -0.2)])
        s = 0.03
        assert ret.evaluate(s) == pytest.approx(
            s ** ret.ratio * (ret.leading + ret.second_value(s)), rel=1e-15)

    def test_empty_chain(self):
        with pytest.raises(ValueError, match="empty corner chain"):
            return_expansion([])


class TestDisplacementExpansion:
    def test_four_saddle_values(self, game_chain):
        disp = displacement_expansion(game_chain)
        assert disp.rotation == 1
        assert disp.split == 3
        assert disp.alpha == pytest.approx(0.0, abs=1e-12)
        assert disp.exponents == pytest.approx((3.375, 3.375))
        assert disp.psi1 == pytest.approx(0.0, abs=1e-9)
        assert disp.psi2 == pytest.approx(0.0, abs=1e-6 * disp.scale)
        assert disp.psi3 == pytest.approx(20940989.674412705, rel=1e-9)
        assert any("rotated by 1" in n for n in disp.notes)

    def test_pure_contracting_chain(self):
        chain = [below(0.5, 2.0, 0.3, s1=0.1), below(0.4, 1.5, -0.2, s1=0.4)]
        disp = displacement_expansion(chain)
        assert disp.rotation == 0 and disp.split == 0
        assert disp.alpha == pytest.approx(1.0 / 0.2 - 1.0)
        # with an empty expanding block, psi3 carries only the s2 term
        astar = a_star([0.5, 0.4], [2.0, 1.5], 1, 2)
        assert disp.psi3 == pytest.approx(-astar * (1.0 / 0.2) * (-0.2), rel=1e-12)

    def test_resonant_corner_rejected(self):
        chain = [above(1.5, 2.0, 0.3),
                 DulacExpansion(ratio=1.0, leading=0.5)]
        with pytest.raises(DegeneracyError, match="resonant corner"):
            displacement_expansion(chain)

    def test_near_resonant_block_rejected(self):
        # the contracting block's two terms sit 5e-10 apart: the fold keeps
        # them as a compensator, which cannot be inverted
        chain = [below(0.001, 1.5, 0.3), below(1.0 - 5e-7, 0.8, 0.2)]
        assert return_expansion(chain).kind == "compensator"
        with pytest.raises(DegeneracyError, match="near-resonant collision inside a block"):
            displacement_expansion(chain)

    def test_inverse_beyond_the_float_range(self):
        # the inverted block's leading coefficient 0.22 ** (-1/0.00152) is
        # itself beyond the float range; the error is a PolycycleError
        chain = [below(lam, 0.5, 0.3) for lam in (0.2, 0.2, 0.2, 0.2, 0.95)]
        with pytest.raises(NumericError, match="inverse map beyond the float range"):
            displacement_expansion(chain)

    def test_inverse_near_the_float_range(self):
        # A* = 4.3e307 is finite, and the inverse's second coefficient with
        # it; leading ** -(1 + 1/ratio + 1) in one power, 3.7e308, was not
        lams, d00s, s2s = (0.2, 0.2, 0.2, 0.2, 0.95), (0.5, 0.5, 0.5, 0.5, 0.775), \
            (0.3, 0.3, 0.3, 0.3, 1e-3)
        chain = [below(lam, a, s2) for lam, a, s2 in zip(lams, d00s, s2s)]
        disp = displacement_expansion(chain)
        exponents, psi1, psi2, psi3, scale, size3 = paper_displacement(chain, 0)
        astar = a_star(lams, d00s, 1, 5)
        assert 4e307 < astar < 5e307
        assert (disp.split, disp.exponents) == (0, exponents)
        assert all(math.isfinite(v) for v in (disp.psi1, disp.psi2, disp.psi3, disp.scale))
        assert disp.scale == pytest.approx(astar, rel=1.5e-13 * log_size(scale))
        assert abs(disp.psi2 - psi2) <= 1.5e-13 * scale * log_size(scale)
        assert abs(disp.psi3 - psi3) <= 1.5e-13 * size3 * log_size(scale)

    def test_alternating_chain_rejected(self):
        chain = [above(1.5, 2.0, 0.3), below(0.4, 3.0, 0.5),
                 above(2.0, 1.5, -0.2), below(0.6, 1.2, 0.1)]
        with pytest.raises(UnsupportedGeometryError, match="no rotation"):
            displacement_expansion(chain)

    def test_empty_chain(self):
        with pytest.raises(ValueError, match="empty corner chain"):
            displacement_expansion([])
