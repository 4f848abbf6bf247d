import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference_index import index_at_point, index_on_interval_exact

from levelgraph.cauchy import (
    HalfInteger,
    RationalFunction,
    index_on_interval,
    index_one_sided,
    one_sided_sign,
    phase_climb,
)
from levelgraph.errors import DenominatorIdenticallyZero, ZeroPolynomial
from levelgraph.poly import RealPolynomial

INF = math.inf


def rf(num, den):
    return RationalFunction(RealPolynomial(num), RealPolynomial(den))


# the library's index and the Fraction-chain reference it is checked against
ALL_BACKENDS = [index_on_interval, index_on_interval_exact]


# ---------------------------------------------------------------------------
# HalfInteger


def test_half_integer_str():
    assert str(HalfInteger(5)) == "5/2"
    assert str(HalfInteger(4)) == "2"
    assert str(HalfInteger(-3)) == "-3/2"
    assert str(HalfInteger(0)) == "0"


def test_half_integer_arithmetic():
    a = HalfInteger(3)  # 3/2
    b = HalfInteger.from_int(2)
    assert (a + b).twice_value == 7
    assert (a - b).twice_value == -1
    assert (-a).twice_value == -3
    assert abs(HalfInteger(-5)) == HalfInteger(5)
    assert a + 1 == HalfInteger(5)
    assert 1 + a == HalfInteger(5)
    assert float(a) == 1.5
    assert a.is_integer is False
    assert b.is_integer is True
    assert int(b) == 2
    with pytest.raises(ValueError):
        int(a)
    with pytest.raises(TypeError, match="twice_value must be an int"):
        HalfInteger(1.5)


def test_half_integer_ordering():
    assert HalfInteger(1) < HalfInteger(2)
    assert HalfInteger(4) == 2
    assert HalfInteger(4) <= 2
    assert HalfInteger(3) != 1
    assert sorted([HalfInteger(4), HalfInteger(-1)])[0] == HalfInteger(-1)


# ---------------------------------------------------------------------------
# frozen oracle values: simple poles


def test_one_over_y_full_interval():
    h = rf([1], [0, 1])  # 1/y: jump -inf -> +inf at 0
    for backend in ALL_BACKENDS:
        assert backend(h, -1, 1) == HalfInteger.from_int(1), backend.__name__


def test_one_over_y_point_and_sides():
    h = rf([1], [0, 1])
    assert index_at_point(h, 0.0) == HalfInteger.from_int(1)
    assert index_one_sided(h, 0.0, +1) == HalfInteger(1)  # +1/2
    assert index_one_sided(h, 0.0, -1) == HalfInteger(-1)  # -1/2
    assert index_one_sided(h, 0.5, +1) == HalfInteger(0)


def test_one_over_y_endpoint_poles():
    h = rf([1], [0, 1])
    # [c, 0]: only the left-limit term -ind_0^- = +1/2 contributes
    assert index_on_interval(h, -1, 0) == HalfInteger(1)
    # [0, d]: only ind_0^+ = +1/2
    assert index_on_interval(h, 0, 1) == HalfInteger(1)


def test_one_sided_sign_at_roots_and_infinity():
    p = RealPolynomial([0.0, 0.0, -1.0, 1.0])  # y^2 (y - 1)
    assert (one_sided_sign(p, 0.0, -1), one_sided_sign(p, 0.0, +1)) == (-1, -1)
    assert (one_sided_sign(p, 1.0, -1), one_sided_sign(p, 1.0, +1)) == (-1, 1)
    assert one_sided_sign(p, 0.5, +1) == -1
    assert (one_sided_sign(p, -INF, +1), one_sided_sign(p, INF, -1)) == (-1, 1)
    with pytest.raises(ZeroPolynomial, match="zero polynomial has no one-sided sign"):
        one_sided_sign(RealPolynomial([]), 0.0, 1)


def test_index_rejects_bad_sides_and_intervals():
    h = rf([1], [0, 1])
    with pytest.raises(ValueError, match="side must be"):
        index_one_sided(h, 0.0, 0)
    for c, d in ((1.0, 1.0), (1.0, 0.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="need c < d"):
            index_on_interval(h, c, d)


def test_even_pole_contributes_zero():
    h = rf([1], [0, 0, 1])  # 1/y^2: both one-sided limits +inf
    assert index_at_point(h, 0.0) == HalfInteger(0)
    for backend in ALL_BACKENDS:
        assert backend(h, -1, 1) == HalfInteger(0), backend.__name__


def test_odd_cube_pole():
    h = rf([1], [0, 0, 0, 1])  # 1/y^3: same jump as 1/y
    for backend in ALL_BACKENDS:
        assert backend(h, -1, 1) == HalfInteger.from_int(1), backend.__name__


def test_two_simple_poles():
    # y/(y^2-1): jumps -inf->+inf at both -1 and +1
    h = rf([0, 1], [-1, 0, 1])
    for backend in ALL_BACKENDS:
        assert backend(h, -2, 2) == HalfInteger.from_int(2), backend.__name__


def test_sign_flip_negates_index():
    h = rf([0, 1], [-1, 0, 1])
    for backend in ALL_BACKENDS:
        assert backend(-h, -2, 2) == HalfInteger.from_int(-2), backend.__name__


# ---------------------------------------------------------------------------
# logarithmic derivative counts distinct real roots


def _log_derivative(roots_):
    p = RealPolynomial([1.0])
    for r in roots_:
        p = p * RealPolynomial([-r, 1.0])
    dp = RealPolynomial([k * c for k, c in enumerate(p.coeffs)][1:])
    return RationalFunction(dp, p)


def test_log_derivative_three_roots():
    h = _log_derivative([0.0, 1.0, -2.0])
    for backend in ALL_BACKENDS:
        assert backend(h, -INF, INF) == HalfInteger.from_int(3), backend.__name__


def test_log_derivative_double_root_counts_once():
    h = _log_derivative([1.0, 1.0, -2.0])
    for backend in ALL_BACKENDS:
        assert backend(h, -INF, INF) == HalfInteger.from_int(2), backend.__name__


def test_log_derivative_no_real_roots():
    # p = y^2 + 1
    h = RationalFunction(RealPolynomial([0, 2]), RealPolynomial([1, 0, 1]))
    for backend in ALL_BACKENDS:
        assert backend(h, -INF, INF) == HalfInteger(0), backend.__name__


# ---------------------------------------------------------------------------
# cancellation of common factors


def test_full_cancellation():
    # (y^2 - y)/y == y - 1: no pole survives
    h = rf([0, -1, 1], [0, 1])
    assert index_at_point(h, 0.0) == HalfInteger(0)
    for backend in ALL_BACKENDS:
        assert backend(h, -2, 2) == HalfInteger(0), backend.__name__


def test_partial_cancellation():
    # y^2/y^3 == 1/y
    h = rf([0, 0, 1], [0, 0, 0, 1])
    assert index_at_point(h, 0.0) == HalfInteger.from_int(1)
    for backend in ALL_BACKENDS:
        assert backend(h, -1, 1) == HalfInteger.from_int(1), backend.__name__


# ---------------------------------------------------------------------------
# semi-infinite intervals, additivity across a pole


def test_semi_infinite_to_pole():
    h = rf([1], [0, 1])
    assert index_on_interval(h, -INF, 0) == HalfInteger(1)  # 1/2
    assert index_on_interval(h, -INF, -1) == HalfInteger(0)
    assert index_on_interval(h, 0, INF) == HalfInteger(1)


def test_additivity_through_pole():
    h = rf([1], [0, 1])
    left = index_on_interval(h, -1, 0)
    right = index_on_interval(h, 0, 1)
    assert left + right == index_on_interval(h, -1, 1)
    # (y^2 - 2)/(y^3 - y): simple poles at -1, 0, 1 jumping down, up, down;
    # additive off the poles and at the pole 0
    h = rf([-2, 0, 1], [0, -1, 0, 1])
    whole = index_on_interval(h, -3, 3)
    assert whole == HalfInteger.from_int(-1)
    for split in (0.5, 0.0):
        assert index_on_interval(h, -3, split) + index_on_interval(h, split, 3) == whole, split


def test_zero_numerator():
    h = rf([0], [0, 1])
    for backend in ALL_BACKENDS:
        assert backend(h, -1, 1) == HalfInteger(0), backend.__name__


def test_zero_denominator_rejected():
    with pytest.raises(DenominatorIdenticallyZero):
        rf([1], [0])


# ---------------------------------------------------------------------------
# property tests: backend agreement, additivity, antisymmetry

dyadic = st.integers(-80, 80).map(lambda k: k / 16)


def nonzero_poly(max_deg):
    return (
        st.lists(dyadic, min_size=1, max_size=max_deg + 1)
        .map(RealPolynomial)
        .filter(lambda p: not p.is_zero)
    )


@given(nonzero_poly(5), nonzero_poly(5), dyadic, dyadic)
@example(  # a pole 9.5e-7 from a numerator root: index -1, not 0
    num=RealPolynomial([-1 / 16, 1]),
    den=RealPolynomial([-1 / 16, 1, 0, 0, 1 / 16]),
    c=0.0,
    d=1 / 16,
)
@settings(max_examples=150, deadline=None)
def test_backends_agree(num, den, c, d):
    assume(c < d)
    # the reference refuses pole endpoints; skip them
    fc = sum(Fraction(x) * Fraction(c) ** k for k, x in enumerate(den.coeffs))
    fd = sum(Fraction(x) * Fraction(d) ** k for k, x in enumerate(den.coeffs))
    assume(fc != 0 and fd != 0)
    h = RationalFunction(num, den)
    assert index_on_interval(h, c, d) == index_on_interval_exact(h, c, d)


ordered_triple = st.tuples(
    st.integers(-80, 80), st.integers(1, 40), st.integers(1, 40)
).map(lambda t: (t[0] / 16, (t[0] + t[1]) / 16, (t[0] + t[1] + t[2]) / 16))


@given(nonzero_poly(4), nonzero_poly(4), ordered_triple)
@settings(max_examples=100, deadline=None)
def test_additivity(num, den, cmd):
    c, m, d = cmd
    h = RationalFunction(num, den)
    whole = index_on_interval(h, c, d)
    left = index_on_interval(h, c, m)
    right = index_on_interval(h, m, d)
    assert left + right == whole


@given(nonzero_poly(4), nonzero_poly(4), dyadic, dyadic)
@settings(max_examples=100, deadline=None)
def test_negation_antisymmetry(num, den, c, d):
    assume(c < d)
    h = RationalFunction(num, den)
    assert index_on_interval(h, c, d) == -index_on_interval(-h, c, d)


# ---------------------------------------------------------------------------
# the certified phase climb against 60-digit values


@st.composite
def climb_terms(draw):
    """1-6 (c, k, r) terms left of the imaginary axis: multiplicities up to 8,
    total degree up to 24, radius 0 or positive."""
    terms, degree = [], 0
    for _ in range(draw(st.integers(1, 6))):
        if degree == 24:
            break
        k = draw(st.integers(1, min(8, 24 - degree)))
        degree += k
        c = complex(draw(st.floats(-50.0, 0.0)), draw(st.floats(-50.0, 50.0)))
        r = draw(st.one_of(st.just(0.0), st.floats(1e-15, 1.0)))
        terms.append((c, k, r))
    return terms


@given(climb_terms(), st.floats(0.0, 50.0), st.floats(-100.0, 100.0))
@example([(-1 + 0.5j, 8, 0.0), (-2e-3 - 3j, 8, 1e-4), (-40 + 40j, 8, 0.5)], 1e-3, 0.5)
@example([(-1e-9 + 0j, 1, 0.0)], 0.0, -1e-300)
@settings(max_examples=150, deadline=None)
def test_phase_climb_within_its_rounding_bound(terms, x, y):
    mpmath = pytest.importorskip("mpmath")
    got = phase_climb(terms, x, y)
    assume(got is not None)
    climb, spread, n = got
    assert n == sum(k for _, k, _ in terms)
    u = 2.0**-53
    with mpmath.workdps(60):
        exact_climb = exact_spread = mpmath.mpf(0)
        for c, k, r in terms:
            dx, dy = mpmath.mpf(x) - c.real, mpmath.mpf(y) - c.imag
            exact_climb += k * (mpmath.pi / 2 - mpmath.atan2(dy, dx))
            exact_spread += k * mpmath.asin(r / mpmath.sqrt(dx * dx + dy * dy))
        # the bounds of phase_climb's docstring
        assert abs(climb - exact_climb) <= (7.6 * n + 2 * exact_climb) * u
        assert abs(spread - exact_spread) <= (n + 11) * u * exact_spread

