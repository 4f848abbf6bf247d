import cmath
import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference_index import index_at_point
from reference_product import antiderivative_coeffs

from levelgraph import cauchy, config, poly
from levelgraph.cauchy import HalfInteger, line_crossings
from levelgraph.errors import CriticalPointInRHP, DegenerateLine, LevelGraphError
from levelgraph.errors import ZeroPolynomial
from levelgraph.landscape import (
    Potential,
    _exact_index,
    _phase_ends,
    counting_function,
    on_axis_critical_points,
    validate_no_rhp_critical_points,
)
from levelgraph.poly import ComplexPolynomial, _horner, root_product
from levelgraph.poly import restrict_to_vertical_line
from levelgraph.stability import BoundaryData, classify, shift_to_zero_level

CUBE_THIRD = ComplexPolynomial([0, 0, 0, 1 / 3])
HALF_SQUARE = ComplexPolynomial([0, 0, 0.5])


# ---------------------------------------------------------------------------
# critical points on the axis


def test_cube_critical_point():
    cps = Potential(CUBE_THIRD).axis_critical_points
    assert len(cps) == 1
    cp = cps[0]
    assert cp.y0 == pytest.approx(0.0, abs=1e-9)
    assert cp.order == 2
    assert cp.genericity == "generic"


def test_no_critical_points():
    # w' = z + 2 has its only root off the axis at -2... on the real axis;
    # root -2 is NOT on the imaginary axis
    w = ComplexPolynomial([0, 2, 0.5])
    assert Potential(w).axis_critical_points == ()


def test_genericity_flip_with_rotated_leading_coeff():
    # w' = i z (z+1): first-order critical point at 0 with generic tangency
    w = ComplexPolynomial(antiderivative_coeffs([0, 1j, 1j]))
    assert Potential(w).axis_critical_points[0].genericity == "generic"
    # w' = z (z+1): the level set through 0 hugs the axis -- non-generic
    w = ComplexPolynomial(antiderivative_coeffs([0, 1, 1]))
    assert Potential(w).axis_critical_points[0].genericity == "non_generic"


def test_rhp_validation():
    # w = (z-1)^2/2 has w' = z-1 with a root at +1
    w = ComplexPolynomial([0.5, -1, 0.5])
    with pytest.raises(CriticalPointInRHP):
        Potential(w)
    Potential(CUBE_THIRD)  # root at 0 is allowed
    Potential(HALF_SQUARE)


def test_rhp_root_with_overflowing_rounding_bound_still_raises():
    # w' = 1e-290 (z - 1e300)(z + 1): the root at 1e300 keeps a finite
    # radius, so its band stays far narrower than its real part
    w = ComplexPolynomial(antiderivative_coeffs([1e-290 * c for c in root_product([1e300, -1.0])]))
    with pytest.raises(CriticalPointInRHP):
        Potential(w)


# input 413 of the verdicts benchmark, seed 1 (bench/gen.py): w' of degree 9
# with axis roots planted at heights 1.2263, 1.6967, 1.7297 and a double one
# at 1.7387.  The cluster near 1.70i-1.74i is ill-conditioned: the eigenvalue
# at 1.7297i stays 4.6e-8 left of the axis, inside its inclusion radius but
# far outside TOL.sign (1 + |r|), so the band alone would drop it.
W_ILL_CONDITIONED = ComplexPolynomial([
    complex(0.0, 0.0),
    complex(-4.760270952264252, -23.016257917738734),
    complex(31.20104102030051, -51.132583871056575),
    complex(105.50024766940557, -21.13262543287763),
    complex(101.80220264187975, 92.58803151649523),
    complex(-23.082388887173444, 121.09491421608627),
    complex(-73.29431613001707, 23.39383209445212),
    complex(-23.088157930929494, -23.656424386603728),
    complex(3.2804847021082977, -8.795059023769472),
    complex(1.593255153528022, -0.1059187695515777),
    complex(0.05710358996432, 0.11064687359437397),
])

# input 1299 of the verdicts benchmark, seed 6: w' of degree 10 with a double
# axis root planted at height 0.29288 and simple ones 2.0e-4 apart at
# 1.391294 and 1.391495, which Newton radii and clustering merged into one
# double root
W_CLOSE_AXIS_PAIR = ComplexPolynomial([
    complex(0.0, 0.0),
    complex(6.864134870777449, -0.6974604127172376),
    complex(8.486502158726056, 27.083992415362772),
    complex(-38.818695760946774, 35.12689938089331),
    complex(-57.526707162662305, 6.47872472309623),
    complex(-58.32468038451414, -19.93733536018985),
    complex(-30.741123951012344, -39.11555287726821),
    complex(-3.389097434255266, -28.027300459680475),
    complex(4.764935113559066, -11.016704240611366),
    complex(2.8212464747203883, -2.1076090556878),
    complex(0.6754582378465823, -0.1192764108093245),
    complex(0.06687306013816358, 0.02512709145527249),
])


@pytest.mark.parametrize(
    "w, z1, z2, heights, orders, labels",
    [
        (W_ILL_CONDITIONED, complex(0.0, -0.9102574988162893),
         complex(2.8030249465636152, -0.28341687592858505),
         [1.2262971101578344, 1.6966842697545943, 1.7296663533733343, 1.7386671917896541],
         [1, 1, 1, 2], ("2", "4")),
        (W_CLOSE_AXIS_PAIR, complex(0.0, -1.4249765596178583),
         complex(2.4913884424750727, 1.4363250164483885),
         [0.2928774775334604, 1.3912938964435193, 1.391494526046712],
         [2, 1, 1], ("3", "7")),
    ],
    ids=["seed1-input413", "seed6-input1299"],
)
def test_ill_conditioned_axis_cluster_keeps_every_planted_height(w, z1, z2, heights,
                                                                  orders, labels):
    data = BoundaryData(w, z1, z2)
    cps = Potential(shift_to_zero_level(data).w).axis_critical_points
    assert [cp.y0 for cp in cps] == pytest.approx(heights, abs=1e-6)
    assert [cp.order for cp in cps] == orders
    verdict = classify(data)
    assert (verdict.verdict, verdict.case) == ("unstable", "noncritical")
    assert (str(verdict.n1), str(verdict.n2)) == labels


def test_nine_axis_roots_are_nine_simple_critical_points():
    # w' = (z - i)(z - 2i)...(z - 9i): coefficients up to 1.2e6 in size
    w = ComplexPolynomial(antiderivative_coeffs(root_product([1j * k for k in range(1, 10)])))
    cps = Potential(w).axis_critical_points
    assert [cp.order for cp in cps] == [1] * 9
    assert [cp.y0 for cp in cps] == pytest.approx(range(1, 10), abs=1e-6)


def test_one_off_checks_agree_with_potential():
    assert on_axis_critical_points(CUBE_THIRD) == Potential(CUBE_THIRD).axis_critical_points
    validate_no_rhp_critical_points(CUBE_THIRD)
    with pytest.raises(CriticalPointInRHP):
        validate_no_rhp_critical_points(ComplexPolynomial([0.5, -1, 0.5]))


# ---------------------------------------------------------------------------
# index contribution of a single on-axis critical point (0 generic, -1 not)


@pytest.mark.parametrize(
    "wp_coeffs, expect",
    [
        ([0, 1j, 1j], 0),  # i z (z+1), k=1 generic
        ([0, 1, 1], -1),  # z (z+1), k=1 non-generic
        ([0, 0, 1, 1], 0),  # z^2 (z+1), k=2 generic
        ([0, 0, 1j, 1j], -1),  # i z^2 (z+1), k=2 non-generic
        ([0, 0, 0, 1j, 1j], 0),  # i z^3 (z+1), k=3 generic
        ([0, 0, 0, 1, 1], -1),  # z^3 (z+1), k=3 non-generic
    ],
)
def test_critical_point_index_contribution(wp_coeffs, expect):
    re, im = restrict_to_vertical_line(ComplexPolynomial(wp_coeffs), 0.0)
    assert index_at_point(im, re, 0.0) == HalfInteger.from_int(expect)


# ---------------------------------------------------------------------------
# counting function, frozen values for w = z^3/3


def test_count_off_axis_regular():
    res = counting_function(Potential(CUBE_THIRD), 1.0 + 0j)
    assert res.value == HalfInteger.from_int(2)
    assert res.interval_index == HalfInteger.from_int(-1)
    assert res.crit_sum == 0


def test_count_off_axis_on_curve():
    # 1+i lies on a level curve: half-integer count
    res = counting_function(Potential(CUBE_THIRD), 1.0 + 1.0j)
    assert res.value == HalfInteger(5)  # 5/2
    assert res.interval_index == HalfInteger(-3)  # -3/2


def test_count_on_axis_at_critical_point():
    res = counting_function(Potential(CUBE_THIRD), 0.0 + 0.0j)
    assert res.value == HalfInteger.from_int(3)
    assert res.interval_index == HalfInteger(0)
    assert res.crit_sum == 2


def test_count_on_axis_above_critical_point():
    res = counting_function(Potential(CUBE_THIRD), 1.0j)
    assert res.value == HalfInteger.from_int(3)
    assert res.crit_sum == 2


def test_count_matches_just_off_axis():
    # N is constant on each complement region, so nudging off the axis
    # without crossing a curve cannot change it
    on_axis = counting_function(Potential(CUBE_THIRD), 1.0j)
    off_axis = counting_function(Potential(CUBE_THIRD), 0.01 + 1.0j)
    assert on_axis.value == off_axis.value


def test_count_square():
    res = counting_function(Potential(HALF_SQUARE), 1.0 + 0j)
    assert res.value == HalfInteger.from_int(1)


def test_count_square_on_axis_degenerate():
    with pytest.raises(DegenerateLine):
        counting_function(Potential(HALF_SQUARE), 0.5j)


def test_count_nongeneric_critical_on_axis():
    # w' = z(z+1): non-generic order-1 critical point at 0.
    # index over (-inf, 1] picks up the surviving pole: |-1| + crit 1 + 1 = 3
    w = ComplexPolynomial(antiderivative_coeffs([0, 1, 1]))
    res = counting_function(Potential(w), 1.0j)
    assert res.interval_index == HalfInteger.from_int(-1)
    assert res.crit_sum == 1
    assert res.value == HalfInteger.from_int(3)


def test_count_rejects_left_half_plane():
    with pytest.raises(ValueError):
        counting_function(Potential(CUBE_THIRD), -1.0 + 0j)


def test_constant_w_has_no_verdict():
    w = ComplexPolynomial([1 + 2j])
    with pytest.raises(ZeroPolynomial, match="w is constant"):
        classify(BoundaryData(w, 0j, 1 + 0j))


@given(st.integers(2, 5), st.floats(-2, 2), st.floats(0.1, 2))
@settings(max_examples=50)
def test_count_region_constancy_near_point(n, y0, x0):
    # nudging the evaluation point by a hair never changes the count when
    # the point is well off every curve and every pole
    w = ComplexPolynomial([0] * n + [1.0 / n])
    z0 = complex(x0, y0)
    re, _ = restrict_to_vertical_line(w.derivative(), x0)
    assume(abs(_horner(re, y0, 0.0)) > 1e-3)
    assume(abs(w.derivative()(z0)) > 1e-3)
    assume(abs(_horner(restrict_to_vertical_line(w, x0)[1], y0, 0.0)) > 1e-3)
    pot = Potential(w)
    base = counting_function(pot, z0)
    for dz in (1e-6, -1e-6, 1e-6j, -1e-6j):
        assert counting_function(pot, z0 + dz).value == base.value


# ---------------------------------------------------------------------------
# certified phase-sum labels against the exact signed-remainder chain


def chain_label(pot, z):
    """(value, interval_index) of z from the exact chain alone."""
    on_axis = z.real <= config.TOL.snap * (1.0 + abs(z))
    idx = _exact_index(pot, z, on_axis)
    crit_sum = sum(cp.order for cp in pot.axis_critical_points
                   if on_axis and cp.y0 <= z.imag + config.TOL.snap * (1.0 + abs(z)))
    return HalfInteger(abs(idx.twice_value) + 2 * (crit_sum + 1)), idx


# leading coefficients on an axis, where the phase's low end lies on a line
# for one parity of deg w', and two a hair off the axis that math.atan2 rounds
# to pi/2 on either side of it
AXIS_LEADS = (1 + 0j, -1 + 0j, 1j, -1j, complex(-1.0, -0.0), complex(1.0, -0.0),
              complex(1e-17, 1.0), complex(-1e-17, 1.0))


@st.composite
def potentials_with_points(draw, max_degree=10):
    """w with w' of degree 2..max_degree, roots on the axis (simple and
    double) and in the left half-plane, and points on and off the axis."""
    degree = draw(st.integers(2, max_degree))
    planted, heights = [], []
    while len(planted) < degree:
        kind = draw(st.sampled_from(("axis", "double", "left")))
        if kind == "left":
            planted.append(complex(draw(st.floats(-2.5, -0.05)), draw(st.floats(-2.5, 2.5))))
            continue
        y = draw(st.floats(-2.0, 2.0))
        heights.append(y)
        planted += [1j * y] * (2 if kind == "double" and len(planted) + 2 <= degree else 1)
    lead = draw(st.one_of(
        st.builds(cmath.rect, st.floats(0.5, 1.5), st.floats(-math.pi, math.pi)),
        st.sampled_from(AXIS_LEADS)))
    w = ComplexPolynomial(antiderivative_coeffs([lead * c for c in root_product(planted)]))
    on_axis = st.one_of(st.floats(-2.5, 2.5), *(st.just(y) for y in heights[:1]))
    point = st.one_of(
        on_axis.map(lambda y: complex(0.0, y)),
        st.builds(complex, st.floats(0.05, 3.0), st.floats(-3.0, 3.0)),
    )
    return w, draw(st.lists(point, min_size=1, max_size=4))


def _example(w_pairs, *points):
    return ComplexPolynomial([complex(*c) for c in w_pairs]), [complex(*p) for p in points]


# the four z2 labels of verdicts seeds 1-5 (bench/gen.py) that fall back:
# degree-2 w' with a planted double axis root whose disc is 18 to 61 wide
FALLBACK_SEED1_1616 = _example(
    [(0.0, 0.0), (-0.9763168428237886, 2.082063962473882),
     (-1.4010367503604904, -0.6569710640237899), (0.14736028306692178, -0.31425611176203333)],
    (0.0, 1.7439334496345507), (2.9211556824970453, -0.8268307972808214))
FALLBACK_SEED2_622 = _example(
    [(0.0, 0.0), (0.9424222794153326, -1.279948357078785),
     (-1.015116727457578, -0.7474275152370992), (-0.1975929130481658, 0.26836029872225914)],
    (0.0, -1.260887858960313), (0.4481079731441121, -1.1163374710368752))
FALLBACK_SEED2_1150 = _example(
    [(0.0, 0.0), (-0.36565719311635553, -0.3141662930773508),
     (-0.5082966263676951, 0.5916048976723394), (0.3190569031492903, 0.2741281353960827)],
    (0.0, -0.9112179494796222), (1.05237550167223, -0.8662175708606439))
FALLBACK_SEED5_982 = _example(
    [(0.0, 0.0), (-1.5101272354034379, 0.6281839728105467),
     (0.5264594569635204, 1.2655858772380453), (0.3535480488252785, -0.14706920892738373)],
    (0.0, 1.2766213686121204), (2.381455298995684, -3.623095216312968))
# w' = z (z + 1): a non-generic critical point at 0, below z1 = i and at z1 = 0
NONGENERIC_AT_ZERO = ComplexPolynomial(antiderivative_coeffs([0, 1, 1]))
# w' = (z - i)(z + 0.5i)^2: every root on the axis, all critical points generic
ALL_ON_AXIS = ComplexPolynomial(antiderivative_coeffs([1j * c for c in root_product([1j, -0.5j, -0.5j])]))
# w' = (1 + 4.8e-269i) z^3: Re w' on the axis is 4.8e-269 y^3, all of it the
# factor of the non-generic triple point at 0
SUBNORMAL_TRIPLE = ComplexPolynomial([0, 0, 0, 0, complex(0.25, 1.1954221117477852e-269)])


@given(potentials_with_points())
@settings(max_examples=150, deadline=None)
@example(FALLBACK_SEED1_1616)
@example(FALLBACK_SEED2_622)
@example(FALLBACK_SEED2_1150)
@example(FALLBACK_SEED5_982)
@example((NONGENERIC_AT_ZERO, [1j, 0j, 1 + 0j]))
@example((ALL_ON_AXIS, [0j, 1j, -0.5j, 2j, 0.5 + 0.2j, 0.3 - 2j]))
@example((HALF_SQUARE, [0.5j, 1 + 0j]))
# w' = (1 + 4.8e-269i) z^3: a non-generic triple point at z1 = 0 whose reduced
# Re w' deflates to zero; the chain and the label raise DegenerateLine there
@example((SUBNORMAL_TRIPLE, [0j]))
def test_phase_sum_label_matches_exact_chain(case):
    w, points = case
    try:
        pot = Potential(w)
    except CriticalPointInRHP:
        # a planted axis root solved right of its disc; no label is defined
        assume(False)
    for z in points:
        try:
            chain = chain_label(pot, z)
        except LevelGraphError as exc:
            # DegenerateLine, and whatever else the chain raises, still raises
            with pytest.raises(type(exc)):
                counting_function(pot, z)
            continue
        res = counting_function(pot, z)
        assert (res.value, res.interval_index) == chain
        assert res.exact_fallback == (not res.margin > 0)
        # an axis label forms no phase sum when z sits on a non-generic point
        cp = pot.critical_point_at(z)
        if z.real == 0 and cp is not None and cp.genericity != "generic":
            assert res.exact_fallback and res.margin == -math.inf


def test_deflated_zero_re_w_prime_is_a_degenerate_line():
    # at the non-generic triple point the chain divides y^(3+1) out of
    # Re w' = 4.8e-269 y^3, which leaves nothing of it
    pot = Potential(SUBNORMAL_TRIPLE)
    (cp,) = pot.axis_critical_points
    assert (cp.y0, cp.order, cp.genericity) == (0.0, 3, "non_generic")
    with pytest.raises(DegenerateLine, match="deflates to the zero polynomial"):
        counting_function(pot, 0j)
    with pytest.raises(DegenerateLine, match="deflates to the zero polynomial"):
        classify(BoundaryData(SUBNORMAL_TRIPLE, 0, 2))


def test_planted_fallbacks_are_the_wide_double_roots():
    for w, (z1, z2) in (FALLBACK_SEED1_1616, FALLBACK_SEED2_622, FALLBACK_SEED2_1150,
                        FALLBACK_SEED5_982):
        pot = Potential(w)
        (cp,) = pot.axis_critical_points
        assert cp.order == 2
        # terms are (location, multiplicity, radius)
        ((_, _, radius),) = [t for t in pot.terms if t[1] == 2]
        assert 35 < radius < 123
        assert not counting_function(pot, z1).exact_fallback
        # the disc reaches past z2's line, so no phase sum is formed
        res = counting_function(pot, z2)
        assert res.exact_fallback and res.margin == -math.inf


def test_uncertified_roots_fall_back_to_the_chain():
    # w' = 1e-290 (z + 1e300)(z + 1): the Horner rounding bound overflows at
    # -1e300, so the solve proves no root and no phase sum is formed
    pot = Potential(ComplexPolynomial(
        antiderivative_coeffs([1e-290 * c for c in root_product([-1e300, -1.0])])))
    assert not pot.certified
    for z in (1 + 0j, 0.5j):
        res = counting_function(pot, z)
        assert res.exact_fallback and res.margin == -math.inf
        assert (res.value, res.interval_index) == chain_label(pot, z)
        assert res.value == HalfInteger.from_int(2)


def exact_phase_ends(pot, z, on_axis):
    """(lo, hi, spread) of _phase_ends, with arg lc on the branch math.atan2
    takes: -pi for a negative real lc with imaginary part -0.0, which
    mpmath reads as 0.  hi and spread take 60 digits; lo takes 700, which
    tell the argument of any pair of doubles from a multiple of pi/2."""
    mpmath = pytest.importorskip("mpmath")
    lc = pot.wp.coeffs[-1]
    if on_axis:
        terms = pot.off_axis_terms
        offset = mpmath.mpf(sum(cp.order for cp in pot.axis_critical_points) - 1) / 2
    else:
        terms = pot.terms
        offset = mpmath.mpf(-0.5)
    n = sum(k for _, k, _ in terms)

    def lead_arg():
        if lc.imag == 0 and lc.real < 0 and math.copysign(1.0, lc.imag) < 0:
            return -mpmath.pi
        return mpmath.atan2(lc.imag, lc.real)

    with mpmath.workdps(700):
        lo = lead_arg() / mpmath.pi + offset - mpmath.mpf(n) / 2
    with mpmath.workdps(60):
        angles, spread = [], mpmath.mpf(0)
        for c, k, r in terms:
            dx = mpmath.mpf(0 if on_axis else z.real) - c.real
            dy = mpmath.mpf(z.imag) - c.imag
            angles.append(k * mpmath.atan2(dy, dx))
            spread += k * mpmath.asin(r / mpmath.sqrt(dx * dx + dy * dy))
        hi = (lead_arg() + mpmath.fsum(angles)) / mpmath.pi + offset
        return lo, hi, spread / mpmath.pi


@given(potentials_with_points(max_degree=12))
@settings(max_examples=80, deadline=None)
# w' = (1 - 4.6e-147i) z^3 at i: the low end lies 1.5e-147 below a line
@example((ComplexPolynomial([0, 0, 0, 0, complex(0.25, -1.1548293385184328e-147)]), [1j]))
def test_phase_ends_within_rounding_bound(case):
    mpmath = pytest.importorskip("mpmath")
    w, points = case
    try:
        pot = Potential(w)
    except CriticalPointInRHP:
        assume(False)
    for z in points:
        on_axis = z.real == 0
        ends = _phase_ends(pot, z, on_axis)
        if ends is None:
            continue
        lo_floor, hi, spread, rounding = ends
        exact_lo, exact_hi, exact_spread = exact_phase_ends(pot, z, on_axis)
        # the low end's floor is exact, even where the end lies on a line
        assert lo_floor == int(mpmath.floor(exact_lo)), (z, lo_floor, exact_lo)
        # what certifies the high end: hi and spread, together within half
        # the rounding bound
        err = abs(hi - exact_hi) + abs(spread - exact_spread)
        assert err <= rounding / 2, (z, hi, exact_hi, rounding)


# lc z^N (w' of degree N, all its roots at 0) for lc on or a hair off an
# axis, and shapes with roots in the left half-plane and on the axis.  The
# derivative's k * c can lose the sign of the zero in 1 - 0j; its argument
# is 0 either way, with the same floors
LOW_END_SHAPES = [
    ComplexPolynomial([0] * (N + 1) + [lc])
    for lc in (*AXIS_LEADS, complex(1.0, -0.0)) for N in (1, 2, 3, 4)
] + [
    ComplexPolynomial(antiderivative_coeffs([lc * c for c in root_product(planted)]))
    for lc in AXIS_LEADS
    for planted in ([-1.0, -0.5 + 2j], [1j, -1j, -2 + 0.5j], [0.5j, 0.5j, -1 - 1j],
                    [-1j, -0.3 + 0.2j, -0.3 - 0.2j, 2j])
]
LOW_END_POINTS = [0j, 1j, -1.5j, 2.5j, 2 + 1j, 1 - 3j, 0.5 + 2j, 3 - 0.5j]


@pytest.mark.parametrize("w", LOW_END_SHAPES)
def test_exact_low_end_certifies_axis_leads(w):
    # each label equals the chain's, and the phase sum decides it unless z
    # sits on a non-generic point or its high end lies on (or, for lc a hair
    # off an axis, within 1e-9 of) a line, as on an arc
    pot = Potential(w)
    for z in LOW_END_POINTS:
        try:
            chain = chain_label(pot, z)
        except LevelGraphError as exc:
            with pytest.raises(type(exc)):
                counting_function(pot, z)
            continue
        res = counting_function(pot, z)
        assert (res.value, res.interval_index) == chain, z
        on_axis = z.real == 0
        cp = pot.critical_point_at(z)
        if on_axis and cp is not None and cp.genericity != "generic":
            continue
        _, hi, _ = exact_phase_ends(pot, z, on_axis)
        if abs(hi - round(hi)) <= 1e-9:
            continue
        assert res.margin > 0 and not res.exact_fallback, (z, res)


def test_exact_low_end_reads_the_signs_of_lc():
    # w' = (+-1e-17 + i) z^2: math.atan2 gives pi/2 for both signs, yet the
    # phase starts just below a line for + and just above it for -
    for lc, labels in ((complex(1e-17, 1.0), (3, 2)), (complex(-1e-17, 1.0), (2, 1))):
        pot = Potential(ComplexPolynomial([0, 0, 0, lc / 3]))
        assert pot.lead_phase == math.pi / 2
        got = [counting_function(pot, z) for z in (1 + 1j, 1 - 1j)]
        assert [res.value for res in got] == [HalfInteger.from_int(n) for n in labels]
        assert all(res.margin > 0 for res in got)
    # a negative real lc: the floor follows atan2's branch, pi or -pi, by
    # the sign of the zero imaginary part, and the label does not depend on it
    labels = []
    for lc in (complex(-1.0, 0.0), complex(-1.0, -0.0)):
        pot = Potential(ComplexPolynomial([0, 0, lc]))
        assert math.copysign(1.0, pot.wp.coeffs[-1].imag) == math.copysign(1.0, lc.imag)
        assert pot.lo_floor == (0 if lc.imag == 0 and math.copysign(1.0, lc.imag) > 0 else -2)
        res = counting_function(pot, 2 + 1j)
        assert res.margin > 0
        labels.append(res.value)
    assert labels[0] == labels[1]


def count_chain_calls(monkeypatch):
    """Route every levelgraph binding of the exact chain's two entry points
    through a counter; returns the list of names called."""
    calls = []
    for name, real in (("index_on_interval", cauchy.index_on_interval),
                       ("restrict_to_vertical_line", poly.restrict_to_vertical_line)):
        for modname, module in list(sys.modules.items()):
            if modname.startswith("levelgraph") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name,
                                    lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
    return calls


@pytest.mark.parametrize("data", [
    BoundaryData(CUBE_THIRD, 0j, 2 + 0j),
    BoundaryData(W_ILL_CONDITIONED, complex(0.0, -0.9102574988162893),
                 complex(2.8030249465636152, -0.28341687592858505)),
], ids=["generic-critical", "seed1-input413"])
def test_generic_classify_runs_no_exact_chain(monkeypatch, data):
    calls = count_chain_calls(monkeypatch)
    verdict = classify(data)
    assert calls == []
    assert verdict.case in ("generic_critical", "noncritical")
    pot = Potential(shift_to_zero_level(data).w)
    for z in (data.z1, data.z2):
        res = counting_function(pot, z)
        assert not res.exact_fallback and res.margin > 0
    assert calls == []


def test_nongeneric_z1_runs_one_exact_chain(monkeypatch):
    # w' = z (z + 1) is non-generic at z1 = 0; z2 = 1 shares its level Im w = 0
    calls = count_chain_calls(monkeypatch)
    verdict = classify(BoundaryData(NONGENERIC_AT_ZERO, 0j, 1 + 0j))
    assert verdict.case == "nongeneric_critical"
    assert sorted(calls) == ["index_on_interval", "restrict_to_vertical_line"]
    # above the point its pole is one more line of the phase sum: no chain
    res = counting_function(Potential(NONGENERIC_AT_ZERO), 1j)
    assert not res.exact_fallback and res.margin > 0
    assert res.value == HalfInteger.from_int(3)
    assert len(calls) == 2


def test_phase_on_or_within_bound_of_a_line_is_uncertified():
    # w' = z^2 along Re z = 1: the phase 2 atan2(y, 1) meets the line pi/2
    # at y = 1, where 1 + i sits on an arc
    pot = Potential(CUBE_THIRD)
    _, hi, spread, rounding = _phase_ends(pot, 1 + 1j, False)
    assert spread == 0.0 and hi == pytest.approx(0.0, abs=1e-15)
    on_arc = counting_function(pot, 1 + 1j)
    assert on_arc.exact_fallback and on_arc.margin <= -rounding + 1e-15
    assert on_arc.value == HalfInteger(5)
    # a quarter of the bound above the arc: the phase lies within the bound
    # of the line, so the chain decides, and it puts the point above the arc
    above = 1.0 + 0.25 * rounding * math.pi
    _, hi, _, _ = _phase_ends(pot, complex(1.0, above), False)
    assert 0.0 < hi <= rounding
    near = counting_function(pot, complex(1.0, above))
    assert near.exact_fallback and -rounding < near.margin <= 0.0
    assert near.value == HalfInteger.from_int(3)
    # the helper itself: an end on a line, and one within the bound of it
    assert line_crossings(1.0, rounding) == (None, 0.0)
    floor, margin = line_crossings(1.0 + 0.5 * rounding, rounding)
    assert floor is None and 0.0 < margin <= rounding
    assert line_crossings(1.5, rounding) == (1, 0.5)
    assert line_crossings(-0.25, rounding) == (-1, 0.25)
