import cmath
import dataclasses
import json
import math
import random
import re
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import levelgraph.config as config
import levelgraph.dhym as dhym
import levelgraph.poly as poly
from levelgraph import cli
from levelgraph.cauchy import CLIMB_ROUNDING, HalfInteger, RationalFunction, index_on_interval
from levelgraph.cauchy import index_one_sided
from levelgraph.cauchy import line_crossings, phase_climb
from levelgraph.dhym import (
    CalabiInput,
    _crossings_from_line,
    _z_x_line,
    analyze,
    build_polynomials,
    compute_charges,
    compute_lifts,
    decide_existence,
)
from levelgraph.errors import BoundaryPointUnreachable, ZeroTotalCharge
from levelgraph.tracer import graphical_connection
from reference_lift import _unwrap_lift

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


def test_hand_case_polynomials():
    inp = CalabiInput(m=1, r=0, xi1=1.0, xi2=0.0, b=1.0, q=0.0)
    w, P, theta = build_polynomials(inp)
    assert P(1.0) == pytest.approx(1.5, abs=1e-15)
    assert theta == 0.0
    # w = z + z^2/2 is real along [0, 1]
    assert abs(w(1.0 + 0.0j).imag) < 1e-15
    assert w(1.0 + 0.0j).real == pytest.approx(1.5, abs=1e-15)


def test_hand_case_charges():
    inp = CalabiInput(m=1, r=0, xi1=1.0, xi2=0.0, b=1.0, q=0.0)
    w, P, theta = build_polynomials(inp)
    Z_X, Z_Dinf, Z_P = compute_charges(inp, P)
    assert Z_X == pytest.approx(1.5 + 0j, abs=1e-15)
    assert Z_Dinf == pytest.approx(2j, abs=1e-15)
    assert Z_P == pytest.approx(1j, abs=1e-15)


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


def test_half_integer_ray_index_is_the_wall():
    # z2 on a turning arc: whatever the window, the wall has no solution
    lifts = dataclasses.replace(lifts_of(CalabiInput(1, 0, 1.0, 0.0, 1.0, 0.0)),
                                ind_Rb=HalfInteger(1))
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
    w, _, _ = build_polynomials(inp)
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


def test_lift_sector_failure_names_re_w_prime_at_z2():
    # dhym-sweep seed 1 input 878: Re w'(z2) < 0, so no graph over [0, b]
    # reaches z2; the message must name the value
    inp = CalabiInput(3, 0, 0.8725791887060792, -1.671475408873806,
                      0.5278009818877772, 2.5784225325790224)
    with pytest.raises(BoundaryPointUnreachable, match="no graph over") as info:
        analyze(inp)
    found = re.search(r"Re w'\(z2\) = (\S+) is not above", str(info.value))
    assert found is not None, str(info.value)
    w, _, _ = build_polynomials(inp)
    assert float(found.group(1)) == w.derivative()(inp.z2).real
    assert float(found.group(1)) == pytest.approx(-4.4623716979992469, rel=1e-12)
    # the threshold is named by the tolerance field that sets it
    assert "not above TOL.sign * |w'(z2)| = " in str(info.value)
    assert "SIGN_TOL" not in str(info.value)
    # the deciding comparison is data too
    assert info.value.value == w.derivative()(inp.z2).real
    assert info.value.threshold == config.TOL.sign * abs(w.derivative()(inp.z2))


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
# non-generic with xi1 = 1e-13: the axis path runs 1e-13 from the origin,
# and zeroing Re g(0), 3e-11 in size, moves it past the origin: its lift falls
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
    """The lines {line_angle + k pi} a lift crosses on its way to pi, counted
    and certified as compute_lifts does."""
    return line_crossings((lift - line_angle) / math.pi, 1 - line_angle / math.pi, bound)


def _ccw_index(re, im, c, d):
    # counterclockwise crossings of {Re = 0}: minus the classical index
    return -index_on_interval(RationalFunction(im, re), c, d)


def exact_chain_indices(inp, w, theta_hat):
    """(ind_R0, ind_Rb, generic), both indices from the exact chain alone."""
    re_b, im_b = poly.restrict_to_vertical_line(w.derivative(), inp.b)
    ind_Rb = _ccw_index(re_b, im_b, inp.q, math.inf)
    g = poly.from_roots([-inp.xi] * inp.m) * (
        cmath.exp(-1j * theta_hat) * poly.I_POWERS[inp.r % 4])
    re_0, im_0 = poly.restrict_to_vertical_line(g, 0.0)
    generic = abs(re_0.coeffs[0]) >= config.TOL.sign * abs(inp.xi) ** inp.m
    if generic:
        return _ccw_index(re_0, im_0, 0.0, math.inf), ind_Rb, True
    re_0 = poly.RealPolynomial((0.0,) + re_0.coeffs[1:])
    ind_R0 = _ccw_index(re_0, im_0, 0.0, math.inf) + index_one_sided(
        RationalFunction(im_0, re_0), 0.0, +1)
    return ind_R0, ind_Rb, False


def lifts_of(inp):
    w, P, theta_hat = build_polynomials(inp)
    Z_X, Z_Dinf, _ = compute_charges(inp, P)
    return compute_lifts(inp, w, theta_hat, Z_X, Z_Dinf)


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
@example(**dataclasses.asdict(THIN_SECTOR), real=False)
@example(m=1, r=0, xi1=1.0, xi2=-1.9367323075281756e-233, b=1.0, q=0.0, real=False)
# non-generic, with the Z_X line through the asymptote: both ends sit on a
# line, so the chain decides both indices
@example(m=2, r=1, xi1=1.0, xi2=0.0, b=1.0, q=0.0, real=True)
def test_certified_crossings_match_exact_chain(m, r, xi1, xi2, b, q, real):
    # real class data put theta_hat at 0: non-generic for odd r, and for even
    # m + r + 1 the Z_X line runs through the asymptote, where no count is
    # certified and the chain decides both indices
    if real:
        xi2 = q = 0.0
    inp = CalabiInput(m, r, xi1, xi2, b, q)
    try:
        w, P, theta_hat = build_polynomials(inp)
    except ZeroTotalCharge:
        assume(False)
    ind_R0, ind_Rb, generic = exact_chain_indices(inp, w, theta_hat)
    _, line_angle, bound = _z_x_line(theta_hat, m + r + 1)
    path_P, path_D = lift_paths(inp)
    count_D, _ = crossings(path_lift(*path_D), line_angle, bound)
    assert count_D is None or count_D == ind_Rb
    count_P, _ = crossings(path_lift(*path_P), line_angle, bound)
    if generic:
        assert count_P is None or count_P == ind_R0
    else:
        count_P, _ = _crossings_from_line(path_lift(*path_P), line_angle, bound, inp.xi, m)
    Z_X, Z_Dinf, _ = compute_charges(inp, P)
    try:
        lifts = compute_lifts(inp, w, theta_hat, Z_X, Z_Dinf)
    except BoundaryPointUnreachable:
        return
    assert (lifts.ind_R0, lifts.ind_Rb) == (ind_R0, ind_Rb)
    assert lifts.genericity == ("generic" if generic else "non_generic")
    assert lifts.index_fallbacks == (count_D is None) + (count_P is None)


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
            _, _, theta_hat = build_polynomials(inp)
        except ZeroTotalCharge:
            continue
        checked += 1
        n = m + r + 1
        _, line_angle, bound = _z_x_line(theta_hat, n)
        largest_ell = max(largest_ell, round(bound / CLIMB_ROUNDING) - n)
        with mpmath.workdps(50):
            pi = mpmath.pi
            exact_line = (mpmath.mpf(theta_hat) - n * pi / 2 + pi) % pi
            end = exact_line / pi
            for terms, x, t in lift_paths(inp):
                # the exact Z_Dinf path has xi1 + b unrounded
                lift = pi - sum(k * (pi / 2 - mpmath.atan2(mpmath.mpf(t) - c.imag,
                                                           mpmath.mpf(x) - c.real))
                                for c, k, _ in terms)
                lines = (lift - exact_line) / pi
                below = mpmath.floor(lines)
                exact = min(lines - below, below + 1 - lines, end, 1 - end)
                _, margin = crossings(path_lift(terms, x, t), line_angle, bound)
                assert abs(margin - float(exact)) <= bound, (inp, margin, exact, bound)
    assert largest_ell >= 7


def test_generic_analyze_runs_no_exact_chain(monkeypatch):
    calls = []
    for name in ("index_on_interval", "restrict_to_vertical_line"):
        real = getattr(dhym, name)
        monkeypatch.setattr(dhym, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
    lifts = lifts_of(HIGH_DEGREE)
    assert lifts.genericity == "generic"
    assert calls == []
    assert lifts.index_fallbacks == 0
    _, _, theta_hat = build_polynomials(HIGH_DEGREE)
    assert lifts.line_margin > _z_x_line(theta_hat, 12)[2]
    assert analyze(HIGH_DEGREE).verdict == "exists"
    assert calls == []


def test_nongeneric_analyze_runs_no_exact_chain(monkeypatch):
    calls = []
    for name in ("index_on_interval", "restrict_to_vertical_line"):
        real = getattr(dhym, name)
        monkeypatch.setattr(dhym, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
    report = analyze(PLANTED_39)
    assert report.genericity == "non_generic"
    assert calls == []
    assert lifts_of(PLANTED_39).index_fallbacks == 0
    assert calls == []


def test_chain_decided_analyze_builds_w_prime_once(monkeypatch):
    # non-generic, with the Z_X line through the asymptote: the chain
    # decides both indices, and reads the w' that compute_lifts formed
    inp = CalabiInput(2, 1, 1.0, 0.0, 1.0, 0.0)
    assert lifts_of(inp).index_fallbacks == 2
    calls = []
    real = dhym.from_roots
    monkeypatch.setattr(dhym, "from_roots", lambda *a: calls.append(a) or real(*a))
    report = analyze(inp)
    assert (report.genericity, report.verdict) == ("non_generic", "exists")
    assert len(calls) == 1


def test_nongeneric_count_needs_a_rising_lift():
    # counted from its line, the axis index would read -1; the chain, which
    # sees the falling lift, finds 0
    w, _, theta_hat = build_polynomials(THIN_SECTOR)
    _, line_angle, bound = _z_x_line(theta_hat, 2)
    path_P, _ = lift_paths(THIN_SECTOR)
    lo = (path_lift(*path_P) - line_angle) / math.pi
    assert math.floor(1 - line_angle / math.pi) - round(lo) == -1
    assert _crossings_from_line(path_lift(*path_P), line_angle, bound,
                                THIN_SECTOR.xi, 1)[0] is None
    lifts = lifts_of(THIN_SECTOR)
    assert lifts.genericity == "non_generic"
    assert lifts.index_fallbacks == 1
    assert lifts.ind_R0 == exact_chain_indices(THIN_SECTOR, w, theta_hat)[0] == 0


def test_nongeneric_start_below_its_line_counts_from_that_line():
    # the start rounds up to its line: the count runs from there, and the
    # lines below it are not crossed
    w, _, theta_hat = build_polynomials(PLANTED_59)
    _, line_angle, bound = _z_x_line(theta_hat, 2)
    path_P, _ = lift_paths(PLANTED_59)
    lo = (path_lift(*path_P) - line_angle) / math.pi
    assert -bound < lo - round(lo) < 0.0
    lifts = lifts_of(PLANTED_59)
    assert lifts.genericity == "non_generic"
    assert lifts.index_fallbacks == 0
    assert lifts.ind_R0 == exact_chain_indices(PLANTED_59, w, theta_hat)[0] == 0


def test_count_on_or_within_bound_of_a_line_is_uncertified():
    _, line_angle, bound = _z_x_line(0.3, 4)
    assert 0.0 < line_angle < math.pi and bound > 0.0
    assert crossings(line_angle, line_angle, bound) == (None, 0.0)
    count, margin = crossings(line_angle + 0.5 * bound * math.pi, line_angle, bound)
    assert count is None and 0.0 < margin <= bound
    # half a turn off every line, and the asymptote pi far from them too
    count, margin = crossings(line_angle - 1.5 * math.pi, line_angle, bound)
    assert count == 2
    assert margin == pytest.approx(min(0.5, line_angle / math.pi, 1 - line_angle / math.pi))
    # a Z_X line through the asymptote: the last crossing is undecided
    assert crossings(0.5, 0.5 * bound * math.pi, bound)[0] is None


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


# ---------------------------------------------------------------------------
# structural facts


def test_theta_hat_zero_on_real_classes():
    for m, r, xi1, b in [(1, 0, 1.0, 1.0), (2, 1, 0.5, 2.0), (3, 2, 2.0, 0.7)]:
        _, _, theta = build_polynomials(CalabiInput(m=m, r=r, xi1=xi1, xi2=0.0, b=b, q=0.0))
        assert theta == 0.0


def test_Z_P_ignores_z2():
    a = CalabiInput(m=2, r=1, xi1=1.3, xi2=-0.4, b=1.0, q=0.5)
    c = CalabiInput(m=2, r=1, xi1=1.3, xi2=-0.4, b=2.5, q=-1.0)
    wa, Pa, ta = build_polynomials(a)
    wc, Pc, tc = build_polynomials(c)
    assert compute_charges(a, Pa)[2] == compute_charges(c, Pc)[2]


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
        w, _, _ = build_polynomials(inp)
        wz2 = w(complex(inp.b, inp.q))
        assert abs(wz2.imag) <= 1e-9 * max(1.0, abs(wz2))
        # grade ordering of the two computed subvariety charges
        assert report.phi_X < report.phi_Dinf < report.phi_X + 1.0
        # the path lifts against the closed forms written out per charge
        assert report.phi_P == pytest.approx(closed_form_phi_P(inp), abs=1e-12)
        assert report.phi_Dinf == pytest.approx(closed_form_phi_Dinf(inp), abs=1e-12)
        # the crossing anchor pins phi_P - phi_X relative to the index gap
        d = float(report.ind_Rb - report.ind_R0)
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
