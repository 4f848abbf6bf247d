import cmath
import dataclasses
import json
import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import levelgraph.cauchy as cauchy
import levelgraph.config as config
import levelgraph.dhym as dhym
import levelgraph.poly as poly
from levelgraph import cli
from levelgraph.cauchy import CLIMB_ROUNDING, HalfInteger, index_on_interval
from levelgraph.cauchy import line_crossings, phase_climb
from levelgraph.dhym import (
    CalabiInput,
    _count_from,
    _z_x_line,
    analyze,
    build_polynomials,
    compute_charges,
    compute_lifts,
    decide_existence,
)
from levelgraph.errors import (
    BoundaryPointUnreachable,
    CrossCheckFailure,
    LevelGraphError,
    LevelMismatch,
    LiftInconsistency,
    ZeroTotalCharge,
)
from levelgraph.tracer import graphical_connection
from reference_lift import _unwrap_lift
from reference_product import antiderivative_coeffs

SQ3 = math.sqrt(3.0)


def closed_form_phi_P(inp):
    # arg(xi + it) climbs from arg(xi) to pi/2; anchored terminal lift is pi
    return 1.0 - inp.m * (math.pi / 2 - math.atan2(inp.xi2, inp.xi1)) / math.pi


def closed_form_phi_Dinf(inp):
    climb = inp.m * (math.pi / 2 - math.atan2(inp.q + inp.xi2, inp.b + inp.xi1))
    climb += inp.r * (math.pi / 2 - math.atan2(inp.q, inp.b))
    return 1.0 - climb / math.pi


# ---------------------------------------------------------------------------
# input validation


def test_input_validation():
    with pytest.raises(ValueError):
        CalabiInput(m=0, r=0, xi1=1.0, xi2=0.0, b=1.0, q=0.0)
    with pytest.raises(ValueError):
        CalabiInput(m=1, r=-1, xi1=1.0, xi2=0.0, b=1.0, q=0.0)
    with pytest.raises(ValueError):
        CalabiInput(m=1, r=0, xi1=-1.0, xi2=0.0, b=1.0, q=0.0)
    with pytest.raises(ValueError):
        CalabiInput(m=1, r=0, xi1=1.0, xi2=0.0, b=0.0, q=0.0)


# ---------------------------------------------------------------------------
# the fully hand-computed instance: m=1, r=0, xi=1, z2=1


def potential(inp):
    """(w, theta_hat): w = e^{-i theta_hat} P from build_polynomials' list,
    as cli._witness forms it."""
    w, _, theta_hat, _ = build_polynomials(inp)
    return poly.ComplexPolynomial(w), theta_hat


def test_hand_case_polynomials():
    inp = CalabiInput(m=1, r=0, xi1=1.0, xi2=0.0, b=1.0, q=0.0)
    w_coeffs, zeta, theta, rotation = build_polynomials(inp)
    # theta_hat = 0, so w = P = z + z^2/2, ascending, and zeta = P(1)
    assert w_coeffs == [0j, 1 + 0j, 0.5 + 0j]
    assert zeta == pytest.approx(1.5, abs=1e-15)
    assert theta == 0.0
    assert rotation == 1 + 0j
    w, _ = potential(inp)
    # w = z + z^2/2 is real along [0, 1]
    assert abs(w(1.0 + 0.0j).imag) < 1e-15
    assert w(1.0 + 0.0j).real == pytest.approx(1.5, abs=1e-15)


def test_hand_case_charges():
    inp = CalabiInput(m=1, r=0, xi1=1.0, xi2=0.0, b=1.0, q=0.0)
    _, zeta, _, rotation = build_polynomials(inp)
    Z_X, Z_Dinf, Z_P, wp_z2 = compute_charges(inp, zeta, rotation)
    assert Z_X == pytest.approx(1.5 + 0j, abs=1e-15)
    assert Z_Dinf == pytest.approx(2j, abs=1e-15)
    assert Z_P == pytest.approx(1j, abs=1e-15)
    # w'(z2) = (1 + z2) at theta_hat = 0
    assert wp_z2 == 2 + 0j


def test_hand_case_lifts_and_verdict():
    report = analyze(CalabiInput(m=1, r=0, xi1=1.0, xi2=0.0, b=1.0, q=0.0))
    assert report.theta_top == 0.0
    assert report.ind_Rb == 0
    assert report.ind_R0 == 0
    assert report.Theta_lift == 0.0
    assert report.phi_X == 0.0
    assert report.phi_Dinf == pytest.approx(0.5, abs=1e-12)
    # the closed-form lift is pi - pi/2, exact in floating point
    assert report.phi_P == 0.5
    assert report.genericity == "generic"
    assert report.verdict == "exists"


def test_a_z_dinf_lift_off_its_grade_raises_lift_inconsistency(monkeypatch):
    # the Z_Dinf path's closed-form lift must end at phi_X + delta/pi; a
    # climb a quarter turn off moves that end grade by 1/4 and phi_Dinf by
    # a whole count at most, so the cross-check fires
    climb = dhym.phase_climb

    def off(terms, x, y):
        rise, spread = climb(terms, x, y)
        # the Z_P path climbs from 0, the Z_Dinf path from b > 0
        return (rise + 0.25 * math.pi if x else rise), spread

    monkeypatch.setattr(dhym, "phase_climb", off)
    with pytest.raises(LiftInconsistency, match="Z_Dinf path grade"):
        analyze(CalabiInput(m=1, r=0, xi1=1.0, xi2=0.0, b=1.0, q=0.0))


def test_an_index_verdict_off_the_grade_window_raises_cross_check_failure(monkeypatch):
    # the hand case exists by both forms; an index verdict turned around
    # disagrees with the grade window
    decide = dhym.decide_existence

    def turned(lifts, r):
        verdict, notes = decide(lifts, r)
        return ("no_solution" if verdict == "exists" else "exists"), notes

    monkeypatch.setattr(dhym, "decide_existence", turned)
    with pytest.raises(CrossCheckFailure, match="grade-form verdict at exists"):
        analyze(CalabiInput(m=1, r=0, xi1=1.0, xi2=0.0, b=1.0, q=0.0))


def test_half_integer_ray_index_is_the_wall():
    # z2 on a turning arc: whatever the window, the wall has no solution
    lifts = lifts_of(CalabiInput(1, 0, 1.0, 0.0, 1.0, 0.0))._replace(ind_Rb=HalfInteger(1))
    verdict, notes = decide_existence(lifts, 0)
    assert verdict == "no_solution"
    assert len(notes) == 1 and notes[0].startswith("boundary: the vertical-ray index")


# ---------------------------------------------------------------------------
# the first twisted case: m=1, r=1, xi=1, z2=1 (f = 0 is an exact solution)


def test_twisted_case_is_nongeneric_and_exists():
    report = analyze(CalabiInput(m=1, r=1, xi1=1.0, xi2=0.0, b=1.0, q=0.0))
    assert report.theta_hat == 0.0
    assert report.theta_top == pytest.approx(math.pi, abs=1e-12)
    assert report.ind_Rb == 1
    assert report.ind_R0 == 0
    assert report.phi_X == pytest.approx(-0.5, abs=1e-12)
    assert report.phi_Dinf == pytest.approx(0.0, abs=1e-12)
    assert report.phi_P == pytest.approx(0.5, abs=1e-12)
    assert report.genericity == "non_generic"
    assert report.verdict == "exists"
    assert "boundary" in report.normalization_note


def test_twisted_case_tracer_agreement():
    inp = CalabiInput(m=1, r=1, xi1=1.0, xi2=0.0, b=1.0, q=0.0)
    w, _ = potential(inp)
    check = graphical_connection(w, 0j, inp.z2)
    assert check.connected and check.graphical


def test_high_degree_lift_agrees_with_exact_indices():
    # w' of degree 11: the certified crossing counts give the exact chain's
    # indices, which need every pole of the ratio on the vertical ray
    report = analyze(CalabiInput(
        6, 5, 1.8795945173377537, 1.5228474225701767,
        1.9790390528454742, 0.25378132553625354,
    ))
    assert report.verdict == "exists"
    assert report.ind_R0 == 1
    assert report.ind_Rb == 4


def test_sector_is_read_from_w_prime_factors():
    # z2 within about 2e-9 of a wall next to -xi: the expanded w'(z2) has
    # Re = +1.6e-12, above TOL.sign |w'(z2)|, while its factors give -1.75e-12,
    # as the Z_Dinf lift reads it.  Read from the factors, the sector test
    # fails, where the expanded form passed and the lifts then disagreed
    inp = CalabiInput(6, 1, 0.2122116050031087, -2.9924849598121632,
                      0.05, 3.0180408713148466)
    with pytest.raises(BoundaryPointUnreachable) as info:
        analyze(inp)
    assert info.value.value == pytest.approx(-1.75e-12, rel=0.01)
    w, _ = potential(inp)
    assert w.derivative()(inp.z2).real > info.value.threshold


def test_lift_sector_failure_names_re_w_prime_at_z2():
    # dhym-sweep seed 1 input 878: Re w'(z2) < 0, so no graph over [0, b]
    # reaches z2; the message must name the value
    inp = CalabiInput(3, 0, 0.8725791887060792, -1.671475408873806,
                      0.5278009818877772, 2.5784225325790224)
    with pytest.raises(BoundaryPointUnreachable, match="no graph over") as info:
        analyze(inp)
    found = re.search(r"Re w'\(z2\) = (\S+) is not above", str(info.value))
    assert found is not None, str(info.value)
    # w'(z2) is read from its factors e^{-i theta_hat} z2^r (xi + z2)^m, and
    # agrees with the expanded w' to its rounding
    _, _, _, rotation = build_polynomials(inp)
    wp_z2 = rotation * (inp.z2**inp.r * (inp.z2 + inp.xi) ** inp.m)
    w, _ = potential(inp)
    assert float(found.group(1)) == wp_z2.real
    assert float(found.group(1)) == pytest.approx(w.derivative()(inp.z2).real, rel=1e-12)
    assert float(found.group(1)) == pytest.approx(-4.4623716979992469, rel=1e-12)
    # the threshold is named by the tolerance field that sets it
    assert "not above TOL.sign * |w'(z2)| = " in str(info.value)
    assert "SIGN_TOL" not in str(info.value)
    # the deciding comparison is data too
    assert info.value.value == wp_z2.real
    assert info.value.threshold == config.TOL.sign * abs(wp_z2)


# ---------------------------------------------------------------------------
# non-generic inputs with a nonzero axis index (dhym-sweep seed 1 planted
# inputs 39 and 198): the Z_P path starts on the Z_X line, and the axis index
# leaves out its half-jump at t = 0


@pytest.mark.parametrize("inp, ind_R0, ind_Rb, phi_X, phi_P", [
    (CalabiInput(2, 0, 1.2443289121140952, -0.9338581957085412,
                 0.5120912257056114, 0.759702860137234),
     1, 1, -0.40986571238869063, -0.40986571238882974),
    (CalabiInput(3, 0, 1.4405456336916118, -1.9075008892519367,
                 1.025635705615961, -2.696975544214713),
     2, 3, -2.3823313174719627, -1.3823313174721268),
])
def test_nongeneric_nonzero_axis_index(inp, ind_R0, ind_Rb, phi_X, phi_P):
    report = analyze(inp)
    assert report.genericity == "non_generic"
    assert report.verdict == "no_solution"
    assert report.ind_R0 == ind_R0
    assert report.ind_Rb == ind_Rb
    assert report.phi_X == phi_X
    assert report.phi_P == pytest.approx(phi_P, abs=1e-9)
    assert report.phi_P - report.phi_X == pytest.approx(ind_Rb - ind_R0, abs=1e-12)


def test_analyze_makes_no_root_solve(monkeypatch):
    calls = []
    real_roots = poly.roots

    def counted(p):
        calls.append(p)
        return real_roots(p)

    for name, module in list(sys.modules.items()):
        if name.startswith("levelgraph") and getattr(module, "roots", None) is real_roots:
            monkeypatch.setattr(module, "roots", counted)
    report = analyze(CalabiInput(2, 0, 1.2443289121140952, -0.9338581957085412,
                                 0.5120912257056114, 0.759702860137234))
    assert report.genericity == "non_generic"
    assert calls == []


# ---------------------------------------------------------------------------
# certified crossing counts against the exact signed-remainder chain


HIGH_DEGREE = CalabiInput(6, 5, 1.8795945173377537, 1.5228474225701767,
                          1.9790390528454742, 0.25378132553625354)
PLANTED_39 = CalabiInput(2, 0, 1.2443289121140952, -0.9338581957085412,
                         0.5120912257056114, 0.759702860137234)
PLANTED_198 = CalabiInput(3, 0, 1.4405456336916118, -1.9075008892519367,
                          1.025635705615961, -2.696975544214713)
# non-generic with xi1 = 1e-13: the Z_P path's start and its asymptote both
# lie about 1e-11 pi below line 1
THIN_SECTOR = CalabiInput(1, 0, 1e-13, 1.0, 1.0, -0.99999999997)
# non-generic with the Z_P path's start 3.5e-17 pi below its line
PLANTED_59 = CalabiInput(1, 0, 1.019931112311693, -0.7330594124575915,
                         2.1636964848176734, 2.1588544599659016)


def lift_paths(inp):
    """The Z_P and Z_Dinf paths of compute_lifts, as (terms, x, start): the
    phase_climb terms of w' and the point x + i start where each path starts."""
    return (
        (((-inp.xi, inp.m, 0.0),), 0.0, 0.0),
        (((0j, inp.r, 0.0), (-inp.xi, inp.m, 0.0)), inp.b, inp.q),
    )


def path_lift(terms, x, t):
    """The lift of compute_lifts at x + it: pi less the climb still to come."""
    return math.pi - phase_climb(terms, x, t)[0]


def crossings(lift, line_angle, bound):
    """The lines {line_angle + k pi} a lift crosses up to line 0, counted
    and certified as compute_lifts does: minus the floor of the start."""
    lo_floor, margin = line_crossings((lift - line_angle) / math.pi, bound)
    return (None if lo_floor is None else -lo_floor), margin


def _ccw_index(re, im, c, d):
    # counterclockwise crossings of {Re = 0}: minus the classical index
    return HalfInteger(-index_on_interval(im, re, c, d).twice_value)


def index_gap(report):
    """d = ind_Rb - ind_R0 of a ChargeReport."""
    return HalfInteger(report.ind_Rb.twice_value - report.ind_R0.twice_value)


def exact_chain_indices(inp, w, theta_hat):
    """(ind_R0, ind_Rb, generic), both indices from the exact chain alone.

    generic is decided as compute_lifts decides it, from the Z_P path's
    start (_count_from): a test of its own, on Re g(0), splits from that
    one on a start within rounding of TOL.sign/pi from its line.  A
    non-generic axis index is that of g(it) - Re g(0) over t > 0, with t
    divided out of its real part: the lines crossed after a start snapped
    to its line by subtraction.  Outside a thin sector, where g's lift
    keeps rising after the subtraction, that is the count from the snapped
    line."""
    re_b, im_b = poly.restrict_to_vertical_line(w.derivative(), inp.b)
    ind_Rb = _ccw_index(re_b, im_b, inp.q, math.inf)
    s = cmath.exp(-1j * theta_hat) * poly.I_POWERS[inp.r % 4]
    g = poly.ComplexPolynomial([c * s for c in poly.root_product([-inp.xi] * inp.m)])
    re_0, im_0 = poly.restrict_to_vertical_line(g, 0.0)
    _, line_angle, bound = _z_x_line(theta_hat, inp.m + inp.r + 1)
    start = (path_lift(*lift_paths(inp)[0]) - line_angle) / math.pi
    generic = not _count_from(start, bound)[1]
    if generic:
        return _ccw_index(re_0, im_0, 0.0, math.inf), ind_Rb, True
    return _ccw_index(re_0[1:], im_0, 0.0, math.inf), ind_Rb, False


def lifts_of(inp):
    _, zeta, theta_hat, rotation = build_polynomials(inp)
    Z_X, Z_Dinf, _, wp_z2 = compute_charges(inp, zeta, rotation)
    return compute_lifts(inp, theta_hat, Z_X, Z_Dinf, wp_z2)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 8),
    r=st.integers(0, 6),
    xi1=st.floats(0.2, 3.0),
    xi2=st.floats(-2.5, 2.5),
    b=st.floats(0.2, 3.0),
    q=st.floats(-2.5, 2.5),
    real=st.booleans(),
)
@example(**dataclasses.asdict(HIGH_DEGREE), real=False)
@example(**dataclasses.asdict(PLANTED_39), real=False)
@example(**dataclasses.asdict(PLANTED_198), real=False)
@example(**dataclasses.asdict(PLANTED_59), real=False)
@example(m=1, r=0, xi1=1.0, xi2=-1.9367323075281756e-233, b=1.0, q=0.0, real=False)
# the Z_P start lies 3.18309913e-10 lines from its line, just past
# TOL.sign/pi: generic, though Re g(0) is below TOL.sign |xi|^m
@example(m=1, r=1, xi1=0.2, xi2=1e-10, b=0.2, q=1e-10, real=False)
# non-generic, with the Z_X line through the asymptote, which neither path
# crosses: both counts stop at line 0
@example(m=2, r=1, xi1=1.0, xi2=0.0, b=1.0, q=0.0, real=True)
def test_certified_crossings_match_exact_chain(m, r, xi1, xi2, b, q, real):
    # real class data put theta_hat at 0: non-generic for odd r, and for even
    # m + r + 1 the Z_X line runs through the asymptote, line 1, reached only
    # at t = inf.  The chain of the doubles cannot decide a thin sector
    # (test_planted_thin_sector_counts_from_the_snapped_line covers those)
    if real:
        xi2 = q = 0.0
    inp = CalabiInput(m, r, xi1, xi2, b, q)
    try:
        w, theta_hat = potential(inp)
    except ZeroTotalCharge:
        assume(False)
    ind_R0, ind_Rb, generic = exact_chain_indices(inp, w, theta_hat)
    _, line_angle, bound = _z_x_line(theta_hat, m + r + 1)
    path_P, path_D = lift_paths(inp)
    count_D, margin_D = crossings(path_lift(*path_D), line_angle, bound)
    assert count_D is None or count_D == ind_Rb
    count_P, _ = crossings(path_lift(*path_P), line_angle, bound)
    if generic:
        # a generic start lies far enough from its line to certify its count
        assert count_P is not None and count_P == ind_R0
    else:
        count_P = -round((path_lift(*path_P) - line_angle) / math.pi)
        assert count_P == ind_R0
    try:
        lifts = lifts_of(inp)
    except BoundaryPointUnreachable:
        return
    assert lifts.ind_R0 == ind_R0
    assert lifts.genericity == ("generic" if generic else "non_generic")
    # off the wall the ray count is the chain's (test_wall_ray_index_is_the_mean_of_both_sides)
    if lifts.ind_Rb.is_integer:
        assert lifts.ind_Rb == ind_Rb
    else:
        assert margin_D < config.TOL.sign / math.pi


@pytest.mark.parametrize("xi2, ind, theta_top", [
    (-1e-12, 1, math.pi - 6.666666666666667e-13),
    (1e-12, 0, 6.666666666666667e-13),
])
def test_z_x_line_just_off_the_asymptote(xi2, ind, theta_top):
    # theta_hat = -2/3 xi2 puts the Z_X line within 1e-12 of the common
    # asymptote of both paths, crossed at the end of both paths when it lies
    # just below it.  theta_top takes the exact representative, so each side
    # keeps both indices consistent with it, and phi_X and the verdict agree
    report = analyze(CalabiInput(1, 0, 1.0, xi2, 1.0, 0.0))
    assert report.theta_top == pytest.approx(theta_top, abs=1e-15)
    assert (report.ind_R0, report.ind_Rb) == (ind, ind)
    assert report.phi_X == pytest.approx(0.0, abs=1e-12)
    assert report.verdict == "exists"


def test_line_distance_within_rounding_bound():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261018)
    checked = largest_ell = 0
    while checked < 300:
        m, r = rng.randint(1, 8), rng.randint(0, 6)
        inp = CalabiInput(m, r, rng.uniform(0.2, 3.0), rng.uniform(-2.5, 2.5),
                          rng.uniform(0.2, 3.0), rng.uniform(-2.5, 2.5))
        try:
            _, _, theta_hat, _ = build_polynomials(inp)
        except ZeroTotalCharge:
            continue
        checked += 1
        n = m + r + 1
        _, line_angle, bound = _z_x_line(theta_hat, n)
        largest_ell = max(largest_ell, round(bound / CLIMB_ROUNDING) - n)
        with mpmath.workdps(50):
            pi = mpmath.pi
            exact_line = (mpmath.mpf(theta_hat) - n * pi / 2 + pi) % pi
            for terms, x, t in lift_paths(inp):
                # the exact Z_Dinf path has xi1 + b unrounded
                lift = pi - sum(k * (pi / 2 - mpmath.atan2(mpmath.mpf(t) - c.imag,
                                                           mpmath.mpf(x) - c.real))
                                for c, k, _ in terms)
                lines = (lift - exact_line) / pi
                below = mpmath.floor(lines)
                exact = min(lines - below, below + 1 - lines)
                _, margin = crossings(path_lift(terms, x, t), line_angle, bound)
                assert abs(margin - float(exact)) <= bound, (inp, margin, exact, bound)
    assert largest_ell >= 7


def count_chain_calls(monkeypatch):
    """Record every call of the exact chain's entry points, at their home modules."""
    calls = []
    for module, name in ((cauchy, "index_on_interval"), (poly, "restrict_to_vertical_line")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
    return calls


def test_generic_analyze_runs_no_exact_chain(monkeypatch):
    # a generic count is certified from its start, with no exact chain
    calls = count_chain_calls(monkeypatch)
    lifts = lifts_of(HIGH_DEGREE)
    assert lifts.genericity == "generic"
    assert calls == []
    _, _, theta_hat, _ = build_polynomials(HIGH_DEGREE)
    assert lifts.line_margin > _z_x_line(theta_hat, 12)[2]
    assert analyze(HIGH_DEGREE).verdict == "exists"
    assert calls == []


def test_nongeneric_analyze_runs_no_exact_chain(monkeypatch):
    # a non-generic start counts from its snapped line, with no exact chain,
    # and is left out of line_margin
    calls = count_chain_calls(monkeypatch)
    report = analyze(PLANTED_39)
    assert report.genericity == "non_generic"
    assert calls == []
    assert lifts_of(PLANTED_39).line_margin >= config.TOL.sign / math.pi
    assert calls == []


# z2 on the vertical-tangent locus, Re(P'(z2) conj P(z2)) = 0 (q found by
# bisection): the Z_Dinf start lies on the Z_X line, so z2 is on a wall, and
# the ray's index is the half crossing of that line
WALL = CalabiInput(3, 0, 0.2, 1.0, 0.5, -1.5200270510147045)


def test_analyze_builds_no_polynomial_object(monkeypatch):
    # P is a coefficient list, and w'(z2) is read from its factors: no
    # ComplexPolynomial is built on a generic, a non-generic or a wall input
    def refuse(self, coeffs):
        raise AssertionError("analyze built a polynomial object")

    monkeypatch.setattr(poly.ComplexPolynomial, "__init__", refuse)
    assert analyze(HIGH_DEGREE).genericity == "generic"
    assert analyze(PLANTED_39).genericity == "non_generic"
    report = analyze(WALL)
    assert report.verdict == "no_solution"
    assert report.ind_Rb == HalfInteger(5)
    assert report.normalization_note.endswith("no smooth solution is reported at the wall")


def wall_input(m, r, radius, angle, pick, upper):
    """Class data xi = radius e^{i angle} with z2 on a wall, or None.

    Re w'(z2) has the sign of f(z2) = Re(P'(z2) conj P(z2)), with P'(z2)
    formed from its factors, as the Z_Dinf lift reads it: the expanded P'
    loses the last bits of a small P'(z2) near -xi.  Walls pass through
    the right-half-plane roots of P, which a wide angle makes likely.  Of
    the sign changes of f along q on a grid over b in [0.05, 3.05] and q in
    [-5, 5], pick chooses one, and bisection in q narrows it to two
    adjacent doubles; upper chooses which."""
    xi = cmath.rect(radius, angle)
    P = poly.ComplexPolynomial(antiderivative_coeffs([0j] * r + poly.root_product([-xi] * m)))

    def rising(b, q):
        z = complex(b, q)
        return ((xi + z) ** m * z ** r * P(z).conjugate()).real > 0

    grid = [-5.0 + 0.1 * k for k in range(101)]
    changes = [(b, lo, hi) for b in (0.05 + 0.2 * k for k in range(16))
               for lo, hi in zip(grid, grid[1:]) if rising(b, lo) != rising(b, hi)]
    if not changes:
        return None
    b, lo, hi = changes[pick % len(changes)]
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if rising(b, mid) == rising(b, lo) else (lo, mid)
    return CalabiInput(m, r, xi.real, xi.imag, b, hi if upper else lo)


WALL_DATA = st.builds(wall_input, st.integers(2, 6), st.integers(0, 4), st.floats(0.2, 3.0),
                      st.one_of(st.floats(-1.5, -0.6), st.floats(0.6, 1.5)),
                      st.integers(0, 12), st.booleans())


@settings(max_examples=60, deadline=None)
@given(inp=WALL_DATA)
@example(inp=WALL)
def test_wall_ray_index_is_the_mean_of_both_sides(inp):
    # z2 on a wall gets the wall verdict, and its half-integer ray index is
    # the mean of the exact chain's just below and just above it
    assume(inp is not None)
    try:
        report = analyze(inp)
    except (ZeroTotalCharge, LevelMismatch):
        assume(False)
    assert report.verdict == "no_solution"
    assert report.normalization_note.endswith("no smooth solution is reported at the wall")
    step = 1e-6 * max(1.0, abs(inp.q))
    sides = []
    for q in (inp.q - step, inp.q + step):
        near = dataclasses.replace(inp, q=q)
        w, theta_hat = potential(near)
        sides.append(exact_chain_indices(near, w, theta_hat)[1])
    assert 2 * report.ind_Rb.twice_value == sides[0].twice_value + sides[1].twice_value


def test_axis_start_within_bound_of_a_line_reads_as_non_generic(monkeypatch):
    # with TOL.sign at 1e-15, below pi times the rounding bound, planted class
    # data (planted_q(4, 0, 1.08 - 1.75i, 0.31, 0)) whose Z_P path starts
    # within the rounding bound of a line read as non-generic: the axis index
    # counts from the line the start snaps to, and agrees with the exact
    # chain over [0, inf) on the w' of compute_lifts
    monkeypatch.setattr(config, "TOL", dataclasses.replace(config.TOL, sign=1e-15))
    inp = CalabiInput(4, 0, 1.08, -1.75, 0.31, 9.144270049353945)
    lifts = lifts_of(inp)
    assert lifts.genericity == "non_generic"
    w, theta_hat = potential(inp)
    assert lifts.ind_R0 == exact_chain_indices(inp, w, theta_hat)[0] == 3
    report = analyze(inp)
    assert index_gap(report) == -3 == round(report.phi_P - report.phi_X)
    assert report.verdict == "no_solution"


def test_thin_sector_counts_from_the_line_its_start_snaps_to():
    # the start snaps up to line 1, and the asymptote lies below it too: the
    # axis index counts from line 1 to the top line 0, which keeps d equal
    # to the rounded grade difference
    lifts = lifts_of(THIN_SECTOR)
    assert lifts.genericity == "non_generic"
    report = analyze(THIN_SECTOR)
    assert report.ind_R0 == -1
    assert index_gap(report) == 1 == round(report.phi_P - report.phi_X)
    assert report.verdict == "no_solution"


def test_nongeneric_start_below_its_line_counts_from_that_line():
    # the start rounds up to its line: the count runs from there, and the
    # lines below it are not crossed
    w, theta_hat = potential(PLANTED_59)
    _, line_angle, bound = _z_x_line(theta_hat, 2)
    path_P, _ = lift_paths(PLANTED_59)
    lo = (path_lift(*path_P) - line_angle) / math.pi
    assert -bound < lo - round(lo) < 0.0
    lifts = lifts_of(PLANTED_59)
    assert lifts.genericity == "non_generic"
    assert lifts.ind_R0 == exact_chain_indices(PLANTED_59, w, theta_hat)[0] == 0


def planted_q(m, r, xi, b, pick):
    """A q that puts Re g(0) = Re(e^{-i theta_hat} i^r xi^m) at 0, or None.

    theta_hat is the phase of P(b + iq), so Re g(0) = 0 where P(b + iq) is
    a right angle from i^r xi^m: at a real root of Re(P(b + iq) conj(c)),
    c = i^r xi^m / |xi|^m.  Of these roots (numpy.roots, then Newton in
    q), pick chooses one."""
    P = poly.ComplexPolynomial(antiderivative_coeffs([0j] * r + poly.root_product([-xi] * m)))
    c = poly.I_POWERS[r % 4] * (xi / abs(xi)) ** m
    re = poly.restrict_to_vertical_line(
        poly.ComplexPolynomial([a * c.conjugate() for a in P.coeffs]), b)[0]
    dre = [k * a for k, a in enumerate(re)][1:]
    found = []
    with np.errstate(all="ignore"):
        try:
            candidates = np.roots(re[::-1])
        except np.linalg.LinAlgError:  # a tiny top coefficient overflows the companion
            return None
    for q in candidates:
        if abs(q.imag) > 1e-6 * (1.0 + abs(q)):
            continue
        q = float(q.real)
        for _ in range(8):
            slope = poly._horner(dre, q, 0.0)
            if slope == 0.0:
                break
            q -= poly._horner(re, q, 0.0) / slope
        if math.isfinite(q):
            found.append(q)
    return found[pick % len(found)] if found else None


def planted_input(m, r, log_xi1, xi2, b, pick):
    """Class data with xi1 = 10^log_xi1 and q from planted_q, or None."""
    q = planted_q(m, r, complex(10.0 ** log_xi1, xi2), b, pick)
    return None if q is None else CalabiInput(m, r, 10.0 ** log_xi1, xi2, b, q)


@settings(max_examples=150, deadline=None)
@given(inp=st.builds(planted_input, st.integers(1, 8), st.integers(0, 5),
                     st.floats(-12.0, math.log10(3.0)), st.floats(-2.5, 2.5),
                     st.floats(0.2, 3.0), st.integers(0, 12)))
@example(inp=THIN_SECTOR)
# a thin sector far from z2 (xi1 = 0.0101, q = -226): read by subtraction,
# its axis index turned on the last bits of w'
@example(inp=planted_input(7, 0, -1.9953604005538672, -2.0, 1.0, 0))
# raised CrossCheckFailure when the axis index was read by subtraction
@example(inp=CalabiInput(6, 1, 8.615762231983877e-08, -2.2585678818659383,
                         2.499568017575663, 8.051360949446442))
# xi2 subnormal: Re(P(b + iq) conj(c)) has a top coefficient near 1e-311
@example(inp=planted_input(2, 0, 0.0, 2.225073858507e-311, 1.0, 0))
# a planted q that build_polynomials rejects: Im w(z2) is not 0 to TOL.sign
@example(inp=planted_input(7, 0, -8.0, 1.61328125, 1.61328125, 7))
# z2 (q = 2e9) within TOL.sign of a wall: the wall verdict, with no grade form
@example(inp=planted_input(1, 0, -9.0, 1.0, 1.0, 0))
def test_planted_thin_sector_counts_from_the_snapped_line(inp):
    # the index form and the grade form agree however thin the sector, so no
    # CrossCheckFailure: a non-generic count takes no chain, and off the wall
    # d is the rounded grade difference
    assume(inp is not None)
    try:
        report = analyze(inp)
    except (ZeroTotalCharge, LevelMismatch, BoundaryPointUnreachable, ValueError):
        assume(False)
    if report.genericity == "non_generic" and report.ind_Rb.is_integer:
        assert index_gap(report) == round(report.phi_P - report.phi_X)


def test_count_on_or_within_bound_of_a_line_is_uncertified():
    _, line_angle, bound = _z_x_line(0.3, 4)
    assert 0.0 < line_angle < math.pi and bound > 0.0
    assert crossings(line_angle, line_angle, bound) == (None, 0.0)
    count, margin = crossings(line_angle + 0.5 * bound * math.pi, line_angle, bound)
    assert count is None and 0.0 < margin <= bound
    # half a turn off every line: lines -1 and 0 are crossed
    count, margin = crossings(line_angle - 1.5 * math.pi, line_angle, bound)
    assert count == 2
    assert margin == pytest.approx(0.5)
    # a Z_X line within bound of the asymptote: the top line crossed is 0
    # whichever side the exact line lies, so only the start needs a margin
    assert crossings(0.5, 0.5 * bound * math.pi, bound)[0] == 0


# ---------------------------------------------------------------------------
# closed-form path lift against the numerical unwrap


@settings(max_examples=60, deadline=None)
@given(
    factors=st.lists(
        st.tuples(
            st.floats(0.2, 3.0),
            st.floats(-50.0, 50.0),
            st.integers(1, 8),
        ),
        min_size=1,
        max_size=3,
    ),
    t0=st.floats(-60.0, 60.0),
    step=st.floats(0.01, 40.0),
)
def test_path_lift_matches_unwrap(factors, t0, step):
    # the prefactor c = -(-i)^K with K = sum k sends the path to the negative
    # real axis, where path_lift anchors its lift at pi; the factor
    # x + i(y + t) is it - c for the root c = -(x + iy)
    K = sum(k for _, _, k in factors)
    prefactor = -((-1j) ** (K % 4))
    terms = [(complex(-x, -y), k, 0.0) for x, y, k in factors]
    t1 = t0 + step
    t_big = 64.0 * max(1.0, abs(t1), *(max(x, abs(y)) for x, y, _ in factors))
    rec, total = _unwrap_lift(prefactor, factors, t0, [t0, t1], t_big)
    lift0 = path_lift(terms, 0.0, t0)
    assert total == pytest.approx(math.pi - lift0, abs=1e-9)
    assert rec[t1] - rec[t0] == pytest.approx(path_lift(terms, 0.0, t1) - lift0, abs=1e-9)
    # the raw start phase is the anchored lift up to whole turns
    turns = (rec[t0] - lift0) / (2.0 * math.pi)
    assert turns == pytest.approx(round(turns), abs=1e-9)


# ---------------------------------------------------------------------------
# r = 0 non-generic: no smooth solution


def test_r0_nongeneric_has_no_solution():
    # Re(P(z2)) = b + (b^2 - q^2)/2 = 0 at q = sqrt(3), so theta_hat = pi/2
    # and the origin's tangent direction turns vertical
    report = analyze(CalabiInput(m=1, r=0, xi1=1.0, xi2=0.0, b=1.0, q=SQ3))
    assert report.theta_hat == pytest.approx(math.pi / 2, abs=1e-12)
    assert report.genericity == "non_generic"
    assert report.verdict == "no_solution"
    assert report.ind_Rb == 0
    assert report.ind_R0 == 0
    assert report.phi_X == pytest.approx(0.5, abs=1e-12)
    assert report.phi_Dinf == pytest.approx(closed_form_phi_Dinf(report_input()), abs=1e-9)


def report_input():
    return CalabiInput(m=1, r=0, xi1=1.0, xi2=0.0, b=1.0, q=SQ3)


# ---------------------------------------------------------------------------
# degenerate class: total charge vanishes


def test_zero_total_charge():
    # z2 = xi (e^{2 pi i/3} - 1) is a root of P = ((xi+z)^3 - xi^3)/3 and has
    # positive real part for xi = 1 - 2i
    z2 = (1 - 2j) * (cmath.exp(2j * math.pi / 3) - 1)
    assert z2.real > 0
    inp = CalabiInput(m=2, r=0, xi1=1.0, xi2=-2.0, b=z2.real, q=z2.imag)
    with pytest.raises(ZeroTotalCharge):
        build_polynomials(inp)


# ten times dhym-sweep seed 1 input 4889
TEN_TIMES_4889 = CalabiInput(8, 4, 3.3297189761177903, -21.16400215792456,
                             14.971428841364387, 24.025026984866216)


def test_zero_charge_is_relative_to_the_horner_scale():
    # |P(z2)| = 1.5e16 is 2e-4 of sum |c_k| |z2|^k, far from zero, though
    # below 1e-12 of the old scale coeff_scale max(1, |z2|)^deg, which grows
    # faster than P under scaling
    inp = TEN_TIMES_4889
    # |w_k| = |P_k| to rounding, since w = e^{-i theta_hat} P
    w, zeta, _, _ = build_polynomials(inp)
    scale = sum(abs(c) * abs(inp.z2) ** k for k, c in enumerate(w))
    assert 1e-4 < abs(zeta) / scale < 1e-3
    assert abs(zeta) < config.TOL.zero_charge * max(map(abs, w)) * abs(inp.z2) ** (len(w) - 1)
    assert analyze(inp).verdict == "no_solution"


def outcome(inp):
    """What analyze decides on inp, or the type of the error it raises."""
    try:
        report = analyze(inp)
    except (LevelGraphError, ValueError) as exc:
        return type(exc)
    return report.verdict, report.genericity, report.ind_R0, report.ind_Rb


def scaled(inp, k):
    """inp with (xi, z2) scaled by 2^k, which is exact on doubles."""
    return CalabiInput(inp.m, inp.r, *(math.ldexp(v, k) for v in (inp.xi1, inp.xi2, inp.b, inp.q)))


# plain and planted non-generic class data
PLAIN_AND_PLANTED = st.one_of(
    st.builds(CalabiInput, st.integers(1, 8), st.integers(0, 6), st.floats(0.2, 3.0),
              st.floats(-2.5, 2.5), st.floats(0.2, 3.0), st.floats(-2.5, 2.5)),
    st.builds(planted_input, st.integers(1, 8), st.integers(0, 5), st.floats(-6.0, 0.5),
              st.floats(-2.5, 2.5), st.floats(0.2, 3.0), st.integers(0, 12)),
)


@settings(max_examples=150, deadline=None)
@given(inp=PLAIN_AND_PLANTED, k=st.integers(-40, 40))
@example(inp=TEN_TIMES_4889, k=-20)
@example(inp=TEN_TIMES_4889, k=20)
@example(inp=WALL, k=40)
@example(inp=PLANTED_39, k=-40)
# Z_X's phase underflows: cmath.phase raised OverflowError
@example(inp=CalabiInput(1, 0, 1.0, 5e-324, 2.0, 0.0), k=0)
# outside the range the property covers, each with a side that leaves the
# normal doubles: xi within 1e-38 of the real axis plants |q| near 3e38,
# whose |z2|^8 overflows once scaled by 2, and xi2 = -5e-324 halves to -0.0
@example(inp=planted_input(4, 3, 0.0, 1.1754943508222875e-38, 1.0, 0), k=1)
@example(inp=CalabiInput(1, 0, 1.0, -5e-324, 1.0, 0.0), k=-1)
def test_analyze_is_scale_covariant(inp, k):
    # (xi, z2) -> 2^k (xi, z2) scales w' by 2^{k(m+r)} exactly, so neither
    # the verdict, the genericity, the indices nor a raised error may change,
    # as long as every product of up to m + r + 1 coordinates stays a normal
    # double on both sides
    assume(inp is not None)
    n = inp.m + inp.r + 1
    exponents = [math.log2(abs(v)) for v in (inp.xi1, inp.xi2, inp.b, inp.q) if v]
    assume(all(n * max(abs(e), abs(e + k)) < 900 for e in exponents))
    assert outcome(scaled(inp, k)) == outcome(inp)


CLASS_DATA = st.one_of(PLAIN_AND_PLANTED, WALL_DATA)


def decision(inp):
    """outcome without its indices, which are counted in the frame of Z_X."""
    decided = outcome(inp)
    return decided if isinstance(decided, type) else decided[:2]


@settings(max_examples=150, deadline=None)
@given(inp=CLASS_DATA)
@example(inp=WALL)
@example(inp=PLANTED_39)
@example(inp=TEN_TIMES_4889)
def test_analyze_is_conjugation_invariant(inp):
    # (xi2, q) -> (-xi2, -q) conjugates w' exactly on doubles and mirrors its
    # level structure in the real axis, so neither the verdict, the
    # genericity nor a raised error may change; the indices are counted in
    # a frame that mirrors too, and may
    assume(inp is not None)
    mirrored = dataclasses.replace(inp, xi2=-inp.xi2, q=-inp.q)
    assert decision(mirrored) == decision(inp)


def test_analyze_calls_compute_lifts_once(monkeypatch):
    # the benchmark traces dhym.compute_lifts by name: a path that bypassed
    # it would read as no time spent in the lifts.  The lifts analyze takes
    # are those the public steps give, which dhym --witness and the tools call
    calls = []
    real = dhym.compute_lifts
    monkeypatch.setattr(dhym, "compute_lifts",
                        lambda *a: calls.append(real(*a)) or calls[-1])
    for inp, genericity in ((HIGH_DEGREE, "generic"), (PLANTED_39, "non_generic"),
                            (WALL, "generic")):
        assert analyze(inp).genericity == genericity
        assert len(calls) == 1
        assert repr(calls.pop()) == repr(lifts_of(inp))


# ---------------------------------------------------------------------------
# structural facts


def test_theta_hat_zero_on_real_classes():
    for m, r, xi1, b in [(1, 0, 1.0, 1.0), (2, 1, 0.5, 2.0), (3, 2, 2.0, 0.7)]:
        _, _, theta, _ = build_polynomials(CalabiInput(m=m, r=r, xi1=xi1, xi2=0.0, b=b, q=0.0))
        assert theta == 0.0


def test_Z_P_ignores_z2():
    a = CalabiInput(m=2, r=1, xi1=1.3, xi2=-0.4, b=1.0, q=0.5)
    c = CalabiInput(m=2, r=1, xi1=1.3, xi2=-0.4, b=2.5, q=-1.0)
    _, za, _, ra = build_polynomials(a)
    _, zc, _, rc = build_polynomials(c)
    assert compute_charges(a, za, ra)[2] == compute_charges(c, zc, rc)[2]


def test_report_dict_fields():
    report = analyze(CalabiInput(m=1, r=0, xi1=1.0, xi2=0.0, b=1.0, q=0.0))
    d = json.loads(cli.render_json(report))
    assert list(d.keys()) == [
        "theta_hat", "theta_top", "Theta_lift", "Z_X", "Z_Dinf", "Z_P",
        "phi_X", "phi_Dinf", "phi_P", "ind_R0", "ind_Rb",
        "genericity", "verdict", "normalization_note",
    ]
    assert d["Z_Dinf"] == [0.0, 2.0]
    assert d["ind_Rb"] == "0"
    assert isinstance(d["phi_X"], float)


# ---------------------------------------------------------------------------
# randomized sweep: structural invariants, closed-form lifts, scaling


def test_random_sweep_invariants():
    rng = random.Random(20240817)
    checked = 0
    scale_checked = 0
    while checked < 80:
        inp = CalabiInput(
            m=rng.randint(1, 3),
            r=rng.randint(0, 2),
            xi1=rng.uniform(0.3, 3.0),
            xi2=rng.uniform(-2.0, 2.0),
            b=rng.uniform(0.3, 3.0),
            q=rng.uniform(-2.0, 2.0),
        )
        try:
            report = analyze(inp)
        except ZeroTotalCharge:
            continue
        checked += 1

        assert -math.pi < report.theta_hat <= math.pi
        assert report.verdict in ("exists", "no_solution")
        # the level through z2 really is the zero level
        w, _ = potential(inp)
        wz2 = w(complex(inp.b, inp.q))
        assert abs(wz2.imag) <= 1e-9 * max(1.0, abs(wz2))
        # grade ordering of the two computed subvariety charges
        assert report.phi_X < report.phi_Dinf < report.phi_X + 1.0
        # the path lifts against the closed forms written out per charge
        assert report.phi_P == pytest.approx(closed_form_phi_P(inp), abs=1e-12)
        assert report.phi_Dinf == pytest.approx(closed_form_phi_Dinf(inp), abs=1e-12)
        # the crossing anchor pins phi_P - phi_X relative to the index gap
        d = float(index_gap(report))
        D = report.phi_P - report.phi_X
        if report.genericity == "generic":
            assert d - 1e-9 < D < d + 1.0
        else:
            assert D == pytest.approx(d, abs=1e-6)

        if scale_checked < 20:
            lam = 3.7
            scaled = CalabiInput(
                m=inp.m, r=inp.r,
                xi1=lam * inp.xi1, xi2=lam * inp.xi2,
                b=lam * inp.b, q=lam * inp.q,
            )
            assert analyze(scaled).verdict == report.verdict
            scale_checked += 1
