import cmath
import contextlib
import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levelgraph import config, poly, tracer
from levelgraph.cauchy import HalfInteger
from levelgraph.errors import CorrectorDiverged, SeedNotOnCurve
from levelgraph.landscape import Potential, counting_function
from levelgraph.poly import ComplexPolynomial, root_product
from levelgraph.stability import BoundaryData, classify
from levelgraph.tracer import (
    Polyline,
    _root_bound,
    graphical_connection,
    trace_level,
)

CUBE_THIRD = ComplexPolynomial([0, 0, 0, 1 / 3])
CUBIC_MIXED = ComplexPolynomial([0, 0, 1 / 2, 1 / 3])


def _bisect(f, lo, hi, iters=200):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# the curve field


@pytest.mark.parametrize("kind", ["level", "vertical_tangent"])
def test_make_field_evaluates_as_the_polynomial(kind):
    # field and grad must give what base(u) and base'(u) give, to the bit
    w = ComplexPolynomial([0.3 - 0.7j, 1.1j, -1.7 + 0.2j, 1 / 3, 0.13 - 0.05j])
    base = w if kind == "level" else ComplexPolynomial([c * 1j for c in w.derivative().coeffs])
    dbase = base.derivative()
    points = [complex(x, y) for x in (0.0, -0.0, 1.3, -0.61) for y in (0.0, -0.0, -0.77, 2.9)]
    for level in (0.0, 0.5):
        field, grad, _ = tracer._make_field(base, dbase.coeffs, level)
        for u in points:
            assert repr(field(u)) == repr(base(u).imag - level)
            d = dbase(u)
            assert repr(grad(u)) == repr(complex(d.imag, d.real))


# ---------------------------------------------------------------------------
# trace_level mechanics


def test_trace_axis_leftward_ends_at_critical_point():
    line = trace_level(CUBE_THIRD, 2.0 + 0j, direction=-1)
    assert line.terminated_by == "critical_point"
    assert all(abs(p.imag) < 1e-8 for p in line.points)
    xs = [p.real for p in line.points]
    assert all(a > b for a, b in zip(xs, xs[1:]))
    assert abs(line.points[-1]) < 1e-3


def test_trace_axis_rightward_escapes():
    line = trace_level(CUBE_THIRD, 2.0 + 0j, direction=+1)
    assert line.terminated_by == "radius"
    assert abs(line.points[-1]) >= 4.0


def test_trace_stays_on_level():
    y2 = _bisect(lambda y: 12 * y - y**3 - 2, 0.0, 1.0)
    line = trace_level(CUBE_THIRD, 2 + 1j * y2, direction=+1, level=2 / 3)
    for p in line.points:
        assert CUBE_THIRD(p).imag == pytest.approx(2 / 3, abs=1e-7)


def test_trace_seed_correction():
    line = trace_level(CUBE_THIRD, 2.0 + 1e-6j, direction=+1)
    assert abs(line.points[0].imag) < 1e-10


def test_trace_rejects_far_seed():
    with pytest.raises(SeedNotOnCurve):
        trace_level(CUBE_THIRD, 2.0 + 1j, direction=+1)


def test_trace_rejects_a_seed_where_the_corrector_has_no_gradient():
    # w = z^2/2: Im w = xy, whose gradient vanishes at 0, off the level 1
    with pytest.raises(SeedNotOnCurve, match="does not lie near the requested level curve"):
        trace_level(ComplexPolynomial([0, 0, 0.5]), 0j, level=1.0)


@pytest.mark.parametrize("w, seed, kind", [
    pytest.param(CUBE_THIRD, 1e300 + 0j, "level", id="level"),
    pytest.param(CUBE_THIRD, 1e300 + 0j, "vertical_tangent", id="vertical_tangent"),
    # w = 1e-300 z^2 is 1e100 at the seed, and only the tolerance overflows
    pytest.param(ComplexPolynomial([0, 0, 1e-300]), 1e200 + 0j, "level", id="tolerance"),
])
def test_trace_rejects_overflowing_seed(w, seed, kind):
    # the seed is finite, but w there or the corrector tolerance is not
    with pytest.raises(SeedNotOnCurve, match="overflows a double at the seed"):
        trace_level(w, seed, kind=kind)


@pytest.mark.parametrize("kind, seed", [("level", 1 + 0j), ("vertical_tangent", 1 + 1j)])
def test_trace_rejects_a_radius_whose_tolerance_overflows(kind, seed):
    # the seed is fine, but a leading coefficient of 1e-200 puts Fujiwara's
    # bound, and with it the derived radius, past 1e200: a trace run out
    # that far would overflow the corrector tolerance (1 + |u|)^deg
    coeffs, radius = {
        "level": ([0, 1, 1e-200], r"8e\+200"),
        "vertical_tangent": ([0, 0, 0, 1 / 3, 1e-200], r"2\.6666666666666667e\+200"),
    }[kind]
    with pytest.raises(ValueError, match=rf"trace radius {radius} is too large"):
        trace_level(ComplexPolynomial(coeffs), seed, kind=kind)


def test_trace_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown curve kind"):
        trace_level(CUBE_THIRD, 1.0 + 0j, kind="gradient")


def test_trace_rejects_direction_zero():
    with pytest.raises(ValueError, match="direction must be"):
        trace_level(CUBE_THIRD, 1.0 + 0j, direction=0)


def test_trace_rejects_a_seed_on_a_critical_point():
    # w = z^2: the level curve through the saddle at 0 has no tangent there
    with pytest.raises(SeedNotOnCurve, match="the curve degenerates at the seed"):
        trace_level(ComplexPolynomial([0, 0, 1]), 0j)


def test_corrector_that_does_not_settle_in_its_steps_fails():
    # F(u) = (Re u)^3 from 1: each Newton step keeps 2/3 of Re u, so after
    # all its steps |F| is still far above the tolerance
    steps = []

    def grad(u):
        steps.append(u)
        return complex(3.0 * u.real**2, 0.0)

    assert tracer._correct(lambda u: u.real**3, grad, lambda u: 1e-12, 1 + 0j, 10.0) is None
    assert len(steps) == tracer._MAX_NEWTON


def test_clip_keeps_the_segments_crossing_where_the_field_is_flat_along_the_axis():
    # F = Re u: the axis is the curve itself, and dF/dy = 0 on it, so the
    # polish stops at once at the segment's intersection with the axis
    clip = tracer._clip_to_axis(lambda u: u.real, lambda u: 1 + 0j, 1 + 1j, -1 + 3j)
    assert clip == 2j


def test_trace_that_cannot_turn_stalls(monkeypatch):
    # with no turn allowed, every corrected step is refused and halved
    # until it falls below its floor
    monkeypatch.setattr(config, "TOL", dataclasses.replace(config.TOL, max_turn_angle=0.0))
    seed = 1 + 0.5j
    with pytest.raises(CorrectorDiverged, match="continuation stalled"):
        trace_level(CUBE_THIRD, seed, level=CUBE_THIRD(seed).imag)


@pytest.mark.parametrize("direction", [1, -1])
def test_trace_vertical_start_heads_by_its_imaginary_part(direction):
    # w = iz: the level Im w = 1 is the vertical line Re z = 1, so the
    # heading is picked by the sign of Im(tangent)
    line = trace_level(ComplexPolynomial([0, 1j]), 1 + 0j, direction=direction, level=1.0)
    assert line.points[1] == pytest.approx(1 + 0.002j * direction, abs=1e-12)
    assert all(p.real == pytest.approx(1.0, abs=1e-12) for p in line.points)
    assert line.terminated_by == "radius"


def test_trace_vertical_tangent_curve():
    # {Re w' = 0} for w = z^3/3 is the pair of diagonals y = +-x
    line = trace_level(CUBE_THIRD, 1 + 1j, kind="vertical_tangent", direction=+1)
    assert line.terminated_by == "radius"
    for p in line.points:
        assert p.imag == pytest.approx(p.real, abs=1e-6 * (1 + abs(p)))

    back = trace_level(CUBE_THIRD, 1 + 1j, kind="vertical_tangent", direction=-1)
    assert back.terminated_by == "critical_point"
    assert abs(back.points[-1]) < 1e-3


def test_trace_clips_at_axis():
    # level through 2 - 3.55i heads left and meets the imaginary axis
    y2 = _bisect(lambda y: 12 * y - y**3 - 2, -4.0, -3.0)
    line = trace_level(CUBE_THIRD, 2 + 1j * y2, direction=-1, level=2 / 3)
    assert line.terminated_by == "y_axis"
    assert line.points[-1].real == pytest.approx(0.0, abs=1e-9)
    # Im w = 2/3 at x = 0 means -y^3 = 2
    assert line.points[-1].imag == pytest.approx(-(2.0 ** (1 / 3)), abs=1e-6)


# w = i (-iz - 1)(-iz - 1.1) - iz: Im w = (y - 1)(y - 1.1) - x^2 - x, whose
# zero level dips into Re z < 0 between its axis crossings at i and 1.1i,
# about 2.5e-3 deep
DIP = ComplexPolynomial([1.1j, -2.1 - 1j, -1j])


@pytest.mark.parametrize("y_prev, y_cur", [(0.9, 1.09), (0.95, 1.08), (0.98, 1.06)])
def test_clip_stays_on_the_crossed_segment(y_prev, y_cur):
    # a step from below i into the dip crosses the axis at i; from the
    # segment's intersection with the axis, Newton on Im w(iy) heads for
    # the crossing at 1.1i on the first two steps, outside the segment
    field, grad, _ = tracer._make_field(DIP, DIP.derivative().coeffs, 0.0)

    def on_level(y):
        x = 0.0
        for _ in range(50):
            x -= field(complex(x, y)) / grad(complex(x, y)).real
        return complex(x, y)

    prev, cur = on_level(y_prev), on_level(y_cur)
    assert prev.real > 0.0 > cur.real
    clip = tracer._clip_to_axis(field, grad, prev, cur)
    assert clip.real == 0.0
    assert clip.imag == pytest.approx(1.0, abs=1e-12)


def test_clip_past_a_turn_of_the_curve_polishes_unconstrained():
    # w = i P(-iz), P = (s - 0.99)(s - 1)(s - 1.02): near i the zero level
    # turns, about y = 1 + 50 x^2, so a step across the axis has both ends
    # above its crossing at i, and Im w(iy) keeps one sign on its y-range
    P = root_product([0.99, 1.0, 1.02])
    w = ComplexPolynomial([1j * c * (-1j) ** k for k, c in enumerate(P)])
    field, grad, _ = tracer._make_field(w, w.derivative().coeffs, 0.0)
    prev, cur = 0.01 + 1.0019393656653475j, -0.005 + 1.0008832293148109j
    assert abs(field(prev)) < 1e-15 and abs(field(cur)) < 1e-15
    assert tracer._clip_to_axis(field, grad, prev, cur).imag == pytest.approx(1.0, abs=1e-11)


# verdicts-trace seed 4 input 2012 (numbered from 0): the shifted w, z1, z2
_STRIDE_W = ComplexPolynomial([
    8.686395721753566j, 13.291813228423253 + 2.0550847502744034j,
    5.053729793714802 + 3.5594679165335976j, 1.4575085455211605 + 1.419606094022176j,
    0.11425225214874017 + 0.34606139717487105j])
_STRIDE_Z1, _STRIDE_Z2 = -0.5865858657140741j, 0.6057276026759966 + 2.7939265432271476j


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 35")
def test_trace_stops_at_a_shallow_excursion_across_the_axis():
    # the zero level through z2 dips about 1e-3 into Re z < 0 between its
    # axis crossings near 3.781i and 3.911i, so the trace from z2 must stop
    # at the y axis; _trace tests for a crossing only by the sign of Re z at
    # a step's two ends, strides over the excursion and ends by radius
    ys = np.linspace(3.7, 4.0, 3001)
    on_axis = np.nonzero(np.diff(np.sign(_STRIDE_W(1j * ys).imag)))[0]
    if not np.allclose(ys[on_axis], [3.781, 3.911], atol=1e-3):
        raise ValueError(f"the level crosses the axis at {ys[on_axis]}")
    chk = graphical_connection(_STRIDE_W, _STRIDE_Z1, _STRIDE_Z2)
    assert chk.trace.terminated_by == "y_axis"


def test_trace_follows_fold():
    # the level through z1 = 1+i turns vertical there; an undirected pass
    # from above continues through the fold instead of stopping
    z_fold = 1 + 1j
    y_hi = _bisect(lambda y: 12 * y - y**3 - 2, 2.0, 3.45)
    line = trace_level(CUBE_THIRD, 2 + 1j * y_hi, direction=-1, level=2 / 3)
    # fold sends the curve back to increasing x: it must eventually escape
    assert line.terminated_by == "radius"
    min_x = min(p.real for p in line.points)
    assert min_x == pytest.approx(1.0, abs=1e-2)


# ---------------------------------------------------------------------------
# graphical_connection verdict data


def test_connection_stable_axis():
    chk = graphical_connection(CUBE_THIRD, 1 + 0j, 2 + 0j)
    assert chk.connected and chk.graphical
    # x strictly decreases along the trace
    xs = [p.real for p in chk.trace.points]
    assert all(a > b for a, b in zip(xs, xs[1:]))
    assert chk.slope_sup < 1.0
    assert chk.trace.terminated_by == "target"


def test_connection_semistable_vertical_arrival():
    y2 = _bisect(lambda y: 12 * y - y**3 - 2, 0.0, 1.0)
    chk = graphical_connection(CUBE_THIRD, 1 + 1j, 2 + 1j * y2)
    assert chk.connected
    assert chk.graphical
    assert chk.slope_sup > 1e3

    y_hi = _bisect(lambda y: 12 * y - y**3 - 2, 2.0, 3.45)
    chk = graphical_connection(CUBE_THIRD, 1 + 1j, 2 + 1j * y_hi)
    assert chk.connected
    assert chk.slope_sup > 1e3


def test_connection_unstable_funnels_to_axis():
    y2 = _bisect(lambda y: 12 * y - y**3 - 2, -4.0, -3.0)
    chk = graphical_connection(CUBE_THIRD, 1 + 1j, 2 + 1j * y2)
    assert not chk.connected
    assert chk.trace.terminated_by == "y_axis"


def test_connection_unstable_blocked_by_critical_point():
    # the ray y = sqrt(3) x reaches the origin's critical point, not z1 = 1
    chk = graphical_connection(CUBE_THIRD, 1 + 0j, 2 + 1j * math.sqrt(12))
    assert not chk.connected
    assert chk.trace.terminated_by == "critical_point"


def test_connection_stable_into_critical_point():
    chk = graphical_connection(CUBE_THIRD, 0j, 2 + 1j * math.sqrt(12))
    assert chk.connected
    assert chk.graphical
    assert 1.0 < chk.slope_sup < 50.0


def test_connection_semistable_nongeneric():
    # y = sqrt(3x^2+3x) arrives at the origin vertically
    y2 = math.sqrt(18.0)
    chk = graphical_connection(CUBIC_MIXED, 0j, 2 + 1j * y2)
    assert chk.connected
    assert chk.slope_sup > 1e3


def test_connection_stable_nongeneric_window():
    chk = graphical_connection(CUBIC_MIXED, 0j, 2 + 0j)
    assert chk.connected and chk.graphical
    assert chk.slope_sup < 50.0


@pytest.mark.parametrize("y1, connected", [(1.9e-4, True), (2.1e-4, False)])
def test_critical_point_reaches_z1_within_twice_its_snap(y1, connected):
    # the ray ends at the critical point 0, which reaches z1 within
    # max(2 TOL.crit_snap (1 + |0|), TOL.connect (1 + |z1|)) = 2e-4
    chk = graphical_connection(CUBE_THIRD, 1j * y1, 2 + 1j * math.sqrt(12))
    assert chk.trace.terminated_by == "critical_point"
    assert chk.trace.points[-1] == 0
    assert chk.connected is connected


# verdicts inputs of bench/gen.py (seed, index) whose traced witness ends at
# a critical point.  Each row is w as (re, im) pairs, ascending, then z1 and
# z2.  On the rows of _ITEM_18 the witness disagrees with classify (ROADMAP
# item 18); on those of _AGREEING it agrees.
_ITEM_18 = {
    "seed1-343": (
        [(0.0, 0.0), (-112.86761263229978, -301.6028916561676),
         (-48.157576590504206, -279.42701039191866), (-4.318191362398825, -266.4709544514974),
         (20.895060978328587, -198.21237208268394), (36.066730452212006, -118.9203529482478),
         (28.244513088696266, -55.52906125441737), (14.687437377280872, -18.62776454818093),
         (5.137236350749321, -4.628501456333563), (1.093918882656617, -0.765024516156247),
         (0.12001475441653717, -0.0772884583693735)],
        (0.0, 1.4611049791514736), (0.23433989394589488, 1.4213618357285085)),
    "seed1-404": (
        [(0.0, 0.0), (6.255687110538158, 3.9121556310717316),
         (-5.098160656972704, 8.152154698544026), (-5.299956039078257, -3.3144645018745074),
         (1.0750018138986415, -1.7189691886487137), (0.22251349993975902, 0.13915456869835688)],
        (0.0, 1.4188052372710411), (1.592704647874359, 1.3647895011899265)),
    "seed1-405": (
        [(0.0, 0.0), (-0.8695587591699308, -0.5190945160787024),
         (0.11831282656507203, -2.9593526347483476), (3.5290216300993698, -3.5452226281161843),
         (6.395897690300134, -1.969740537604924), (7.117167016169423, 0.5784367566229058),
         (5.603969245490958, 2.097746353619627), (3.3570074040239244, 1.9307855483314733),
         (1.4832593412939432, 1.019300682651086), (0.43900450706979827, 0.30875199695751054),
         (0.06878958362965562, 0.046838040561932304)],
        (0.0, 0.5213198839004762), (0.49785247881598294, 0.16626308365680978)),
    "seed1-569": (
        [(0.0, 0.0), (243.80373738617922, 252.58464954762522),
         (49.59224341554656, 534.5574941987601), (-256.61523832498614, 434.0168817214514),
         (-289.19348817694805, 145.62041195646128), (-148.7354938356494, -8.213718271859943),
         (-41.96564711047629, -25.784142545928617), (-5.571615956182463, -9.675168708758605),
         (-0.0077284920599204054, -1.5418799234364726),
         (0.049686110956187496, -0.0831146856235152)],
        (0.0, 1.387395760520002), (2.7668758699266607, 3.1338488107002087)),
    "seed1-902": (
        [(0.0, 0.0), (-2.4764362550453742, 1.458862424735661),
         (-1.6426005948775453, -2.350961339704368), (0.9840756968443799, -0.8164868611725516),
         (0.15132326662860848, 0.15299568085190013)],
        (0.0, 1.4499956080146357), (1.0583863701848764, -0.28224958277450324)),
    "seed1-915": (
        [(0.0, 0.0), (-24.24604674930397, -22.058102073427854),
         (-37.71392759785677, -1.170758796627739), (-40.46643265228743, 5.839532340226498),
         (-32.471716064953945, 10.948276698809275), (-24.545811975860598, 10.334475523752767),
         (-14.023870158635527, 5.812809174131079), (-6.561591923485145, 2.9093182707740413),
         (-2.550893675383905, 0.8498134095021539), (-0.6481996275025597, 0.14225302152111552),
         (-0.09003198242294391, 0.0031354067485638527)],
        (0.0, -0.7734978309109375), (2.8218416696137156, -1.1310870292353712)),
    "seed1-1023": (
        [(0.0, 0.0), (6.835662872361324, 40.81293362106115),
         (-74.2491305816938, 66.06117815775062), (-149.19872099145584, -29.621843820863674),
         (-83.56739686265165, -148.3459247298486), (47.99467674674954, -140.27856661956463),
         (93.8595889409083, -37.40890887986171), (45.53485066305582, 26.023477433033143),
         (2.3274772118869795, 19.7464643908714), (-3.885637133777829, 3.4411389204545904),
         (-0.8086599334930696, -0.21814899985272446),
         (-0.01830974259439859, -0.06053170269248986)],
        (0.0, 1.4416148299125864), (0.442805940711945, 1.4422684910974295)),
    "seed2-1105": (
        [(0.0, 0.0), (-0.10300555562591475, 1.059065483750235),
         (-2.585501380456956, 0.5320586467563392), (-2.0389697268795532, -2.5250534238773326),
         (-0.27835124105736075, -2.5231052280719215),
         (0.8289413304640803, -2.4472029320360478), (1.380844834894196, -0.8851143968732295),
         (0.9202312734373519, -0.3903335677447242), (0.5849382111108722, 0.2989376276962793),
         (-0.029253872942016312, 0.14677424605787617)],
        (0.0, 1.2603600394545371), (2.565603865916178, 3.665414834161511)),
    "seed2-1547": (
        [(0.0, 0.0), (-0.19057594863805152, 1.8368847936983626),
         (-0.2467236000574602, 7.406398064559596), (8.371496368591165, 14.90744919303827),
         (20.33625634624296, 13.860652741111192), (25.17616389328871, 5.0914654829041535),
         (19.586108097802214, -2.383180982248567), (10.438456930349675, -3.9667996039155256),
         (3.880202308030521, -2.199644443339439), (0.9580336169890357, -0.6034855410163055),
         (0.11794393387182238, -0.061673097753904685)],
        (0.0, -0.7321018443868632), (1.9296536234120438, -0.8426805763326332)),
    "seed2-2913": (
        [(0.0, 0.0), (22.28423485893626, 1.8345334526837829),
         (38.44673936620772, 26.579328451114666), (29.460669572055025, 63.670511019127126),
         (-9.52924624480973, 77.557690758192), (-40.71414644106776, 49.64465384372686),
         (-36.72544090149472, 14.547172948634168), (-19.926100376657605, -0.4563538459706657),
         (-8.45230874047116, -3.795594703171739), (-1.883835181195207, -2.9797908296048226),
         (0.18786913316660614, -0.8431156666964279),
         (0.08972529880829111, -0.037855010055808505)],
        (0.0, 1.4990051742877386), (0.824811840343861, 1.4850444014820379)),
    "seed2-3317": (
        [(0.0, 0.0), (2.3159553173161695, -23.09737590301431),
         (44.138317331744716, -33.343857979902275), (76.90826702112665, 1.2259467091405725),
         (72.83738813906123, 32.898277484861985), (60.63679838924544, 56.22665842260093),
         (23.060626460255264, 71.74722551027993), (-16.984798168409743, 47.30489039852345),
         (-20.419656782430955, 11.227572015945483), (-6.950879660291946, -1.8136490203437472),
         (-0.6823130779568529, -1.1442529852703236),
         (0.027947011256584265, -0.10976863739169346)],
        (0.0, 1.19996449693552), (0.2364287194847369, 1.6322894970083444)),
    "seed2-3657": (
        [(0.0, 0.0), (-6.1730991664148736, 4.963489350003037),
         (-15.004882572563284, -15.510704555384715), (21.097338294994838, -25.380957315364814),
         (26.235526546757374, 16.709579238475214), (-7.610450430119857, 16.935597887434152),
         (-6.648734482094505, -1.7648441157330519), (0.11514670398438556, -1.4459674786660501),
         (0.13271093336718734, -0.015551208946547034)],
        (0.0, 1.1561976427907419), (1.743659740659735, -0.6157176759348922)),
}


_AGREEING = {
    "seed1-273": (
        [(0.0, 0.0), (-2.4137877576103106, -2.734869274672698),
         (-0.7868510557291472, -2.414495400575947), (-3.3389681430931346, -5.1690608839003005),
         (-2.920494990772799, -3.88321202642293), (-4.04374351805445, -4.764814734710653),
         (-3.5904109966392777, -2.449937111085433), (-2.6731675218630193, -1.6544558439145778),
         (-1.7244402580995057, -0.4383575373563262),
         (-0.7303382915419135, -0.013841434070618823),
         (-0.24026321788641908, 0.053504367664448424),
         (-0.03683671434925348, 0.03685530276400659)],
        (0.0, -1.169117391781748), (1.3061604515563232, -0.15392143372088068)),
    "seed1-377": (
        [(0.0, 0.0), (14.042937960273235, -22.81531263804034),
         (57.131464425329945, 11.484639442431178), (24.766924638297798, 66.14474194760935),
         (-24.016953800266243, 54.63022547209586), (-34.36859135205538, 20.764709859225245),
         (-21.947356018089938, 0.931895829549461), (-9.158135225079729, -3.7640044498157716),
         (-2.526297658758147, -2.559109579965463), (-0.32148279643199174, -0.8736516528588828),
         (0.010553262875786153, -0.1461143469306418)],
        (0.0, 1.2591654244017614), (1.281913356723725, 0.9026920899435762)),
}


@pytest.mark.parametrize("w, z1, z2", [
    *(pytest.param(*row, id=name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="ROADMAP item 18"))
      for name, row in _ITEM_18.items()),
    *(pytest.param(*row, id=name) for name, row in _AGREEING.items()),
])
def test_witness_is_a_graph_exactly_when_classify_says_stable(w, z1, z2):
    w = ComplexPolynomial(complex(*p) for p in w)
    z1, z2 = complex(*z1), complex(*z2)
    chk = graphical_connection(w, z1, z2)
    verdict = classify(BoundaryData(w, z1, z2)).verdict
    assert (verdict == "stable") == (chk.connected and chk.graphical)


# ---------------------------------------------------------------------------
# the landing disc about a regular target


def _exact(coeffs, z):
    """(w(z), w'(z)) in mpmath at its working precision, the coefficients
    taken exactly."""
    val = der = mpmath.mpc(0)
    for c in reversed(coeffs):
        der = der * z + val
        val = val * z + mpmath.mpc(c)
    return val, der


def _landing_disc(coeffs, z):
    """tracer._landing_disc for w given by its coefficients, with w' formed
    as the tracer forms it."""
    return tracer._landing_disc(coeffs, ComplexPolynomial(coeffs).derivative().coeffs, z)


_DISC_COEFFS = st.lists(
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    | st.just(0j), min_size=2, max_size=8,
).flatmap(lambda low: st.complex_numbers(
    min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False,
).map(lambda lead: low + [lead]))
_DISC_POINTS = st.builds(complex, st.floats(0.0, 3.0), st.floats(-3.0, 3.0))


@settings(max_examples=60, deadline=None)
@given(_DISC_COEFFS, _DISC_POINTS)
@example([0j, 0j, 0j, 1 / 3], 1 + 0j)
@example([0j, 0j, 1 + 0j], 1.2e-4 + 0j)
@example([0j, 0j, 1.0251361797078566e-169 + 1j], 1 + 0j)  # q about 1e-169
@example([1j, 0j, 0j, 1 + 0j], 1.0033471224120806e-142j)  # r |w'(z)| about 1e-568
@example([0j, 0j, 1 + 5.36959975691698e-250j], 4.159134091834742e-89j)  # Re w'(z) underflows
def test_landing_disc_holds_one_monotone_arc(coeffs, z):
    # w of degree 2 to 8: on D(z, r), |w'(p) - w'(z)| <= q |w'(z)|, and Im w
    # rises strictly along every chord of D(z, r / 2) parallel to its
    # gradient at z
    r = _landing_disc(coeffs, z)
    if r == 0.0:
        # w'(z) = 0, a vertical tangent (q = 0), or q g / M2(1) below the
        # least double: no disc
        return
    # the points checked differ from z by about r, and Im w along a chord
    # by about r |w'(z)|: enough digits to resolve that against |w| < 1e7
    scale = math.log10(r) + math.log10(abs(ComplexPolynomial(coeffs).derivative()(z)))
    with mpmath.workdps(60 - min(0, math.floor(scale))):
        z0 = mpmath.mpc(z)
        level, d = _exact(coeffs, z0)
        g = abs(d)
        q = min(mpmath.mpf(0.5), abs(d.real) / (2 * g))
        allowed = q * g * (1 + mpmath.mpf(1e-12))
        for s in (0.25, 0.5, 0.75, 1.0):
            for k in range(8):
                p = z0 + r * s * mpmath.expjpi(k / mpmath.mpf(4))
                assert abs(_exact(coeffs, p)[1] - d) <= allowed
        t = mpmath.conj(d) / g
        n = 1j * t
        for o in (-0.45, -0.2, 0.0, 0.2, 0.45):
            half = mpmath.sqrt(0.25 - o * o) * r
            heights = [(_exact(coeffs, z0 + o * r * t + (2 * j / 8 - 1) * half * n)[0]
                        - level).imag for j in range(9)]
            assert all(a < b for a, b in zip(heights, heights[1:]))


@settings(max_examples=60, deadline=None)
@given(_DISC_COEFFS, _DISC_POINTS)
@example([0j, 1 + 0j, 0.01 + 0j], 1 + 0j)  # M2(1) = 0.02: r = 1
@example([1j, 0j, 0j, 1 + 0j], 1.0033471224120806e-142j)  # q g / M2(1) about 2.5e-285
# r about 2.6e-322: subnormal ends a few ulps apart, with no double between
# them, which the bisection once split forever
@example([0j, complex(1e-322, 1.0), 0.1j], 0j)
# w'(z) about -1.6e-320: q g is subnormal, and r M2(r) passed it in floats
# by less than one subnormal ulp
@example([0j, 0j, 0j, 0.125 + 0j], 2.0590590196242448e-160j)
def test_landing_disc_is_the_largest_radius_its_bound_allows(coeffs, z):
    # r M2(r) <= q g, and r is 1 or r (1 + 2^-8) breaks the bound
    r = _landing_disc(coeffs, z)
    with mpmath.workdps(60):
        z0 = mpmath.mpc(z)
        d = _exact(coeffs, z0)[1]
        qg = min(abs(d), abs(d.real)) / 2
        # the float w'(z) is good to about n eps sum k |c_k| |z|^(k-1), so
        # the float q g may differ from the exact one by that much
        slack = 1e-14 * sum(k * abs(mpmath.mpc(c)) * abs(z0) ** (k - 1)
                            for k, c in enumerate(coeffs) if k)

        def bound(s):
            s = mpmath.mpf(s)
            return s * sum(k * (k - 1) * abs(mpmath.mpc(c)) * (abs(z0) + s) ** (k - 2)
                           for k, c in enumerate(coeffs) if k >= 2)

        if r == 0.0:
            # no disc: q g is 0 in floats, or q g / M2(1) below the least double
            assert qg <= slack or qg / bound(1) < sys.float_info.min
            return
        assert bound(r) <= qg * (1 + mpmath.mpf(1e-12)) + slack
        assert r == 1.0 or bound(r * (1 + mpmath.mpf(2) ** -8)) > qg - slack


def test_landing_disc_is_none_where_the_tangent_is_vertical():
    # w = iz: M2 = 0, but the tangent at 1 is vertical (w'(1) = i, q = 0),
    # and the disc argument needs |Re t| > 0
    assert _landing_disc([0j, 1j], 1 + 0j) == 0.0


# refusals: each case keeps the answer it had before the landing disc,
# pinned as (connected, graphical, terminated_by)
_REFUSALS = {
    # z1 lies 1e-3 above the level: correcting it moves more than the
    # target ball, and the trace runs on past it to the origin
    "z1-off-level": (CUBE_THIRD, 1 + 1e-3j, 2 + 0j, (False, True, "critical_point")),
    # w'(1 + i) = 2i: the curve arrives vertically, so q = 0
    "vertical-arrival": (CUBE_THIRD, 1 + 1j, 2 + 0.16705517339312886j,
                         (True, True, "target")),
    # the ball of the critical point 0 reaches within 5e-7 of z1, less
    # than the target ball, though r / 2 = 2.5e-5
    "critical-ball": (ComplexPolynomial([0, 0, 1]), 1.005e-4 + 0j, 2 + 0j,
                      (True, True, "target")),
    # z1 = -1e-3 lies left of the imaginary axis, so p does too: the level
    # line y = 0 of w = z reaches the axis first, and the trace ends there
    "z1-left-of-axis": (ComplexPolynomial([0, 1]), -1e-3 + 0j, 2 + 0j,
                        (False, True, "y_axis")),
}


@pytest.mark.parametrize("w, z1, z2, answer", list(_REFUSALS.values()), ids=list(_REFUSALS))
def test_a_refused_landing_keeps_the_answer(w, z1, z2, answer):
    chk = graphical_connection(w, z1, z2)
    assert (chk.connected, chk.graphical, chk.trace.terminated_by) == answer
    # no landing: the trace closes in on z1 in quarter steps
    assert sum(abs(p - z1) < 0.05 for p in chk.trace.points) > 10


# the first 20 witness inputs of bench/gen.py, seed 1: w as (re, im) pairs,
# ascending, then z1 and z2
_WITNESS_SEED_1 = (
    (((0.0, 2.4922263392818365), (2.3936594504722626, -0.6375005782689782), (1.2924469536036414, 1.371636758094109), (-0.12828894357240564, 0.45673958866766523)),
     (0.0, -0.7221547892670794), (1.128883477594755, -0.6241885224933369)),
    (((0.0, -0.7314755358560411), (2.277683078119512, -0.04864193743467027), (2.0773039007057106, -2.483990999274376), (0.08281677095437641, -2.7470398920833574), (-0.6121666603259706, -1.1697505488521103), (-0.23785762213875658, -0.1693992661113074)),
     (0.0, 0.25375717447251267), (0.6993240357423395, 0.3624751482268103)),
    (((0.0, 1.0693156526633973), (2.892775447038714, 1.4913962505387617), (1.9795181500128294, 0.5696868148730625), (0.4897714594920333, -0.0793587089381583)),
     (0.0, -0.352589114839732), (0.9705614638824291, -0.36451482501591875)),
    (((0.0, 0.8521476256322955), (0.8293540362957127, 0.9841037774859759), (-0.06766133518099615, 1.3208592886118928), (-0.4604116092263051, 1.0564019750897626), (-0.044316053804882564, 0.3090226848503649)),
     (0.0, -0.5289305362755446), (0.9995563596797974, -0.8907741505332815)),
    (((0.0, 0.8272908790664195), (-0.4601878716515231, -0.19925476992923974), (-1.214563530999965, 2.2710357886839803), (-0.6119333271139088, 1.3048440924168627), (-0.18392859562676256, 0.27826625720167003)),
     (0.0, -0.6661379720543057), (1.3285829931897082, -1.2764991955739724)),
    (((0.0, 2.2634629882896866), (2.303832627340752, -1.013333793614316), (2.0368506658839998, 1.5340916344765376), (0.9914598806594436, 1.1708910835741762), (0.27137208943857777, 0.22096476799464349)),
     (0.0, -0.8154537776887087), (1.2750661906372027, -0.374428684288931)),
    (((0.0, -1.111088537360756), (2.5463234329151025, 0.3860452077312133), (1.774560618807842, 0.5339996568238108), (0.39535982057238833, 0.20108548779276827)),
     (0.0, 0.5122487961596183), (1.3965037883212157, -0.1021968752439988)),
    (((0.0, 0.2826505770401079), (1.1822751407192853, 1.2028940885338386), (-0.6442116999461324, 1.5819948194823275), (-0.8144913199280833, 0.15649061432942155), (-0.14776632391401942, -0.12949443392323537)),
     (0.0, -0.1874077420857494), (1.4245619937033394, -2.0848860638961075)),
    (((0.0, 0.3662014333051342), (-0.09312695596270558, 0.103225918917529), (-0.2547444645973519, 0.02504308304635637), (-0.3149395537828639, -0.12337129954095676), (-0.17309059906587632, -0.04993640273550565)),
     (0.0, -1.058915721104421), (0.8284665445853148, -1.6316151443575297)),
    (((0.0, -0.27307228071224326), (1.378998190466442, -1.3693670342294582), (2.2761747294459926, 0.33216386995139857), (0.9423479040772543, 1.303795759167014), (-0.07852463763858342, 0.6269763673855026), (-0.07869124836842241, 0.083631357233908)),
     (0.0, 0.2150033731678742), (0.9443741444417912, -0.04860633804643783)),
    (((0.0, -0.6221601634883933), (0.5451170266021259, -0.6081848019812132), (0.5229552270486685, -0.8277521412885227), (0.351491061083123, -0.43968658563708657), (0.1424193272588083, -0.11497345035084)),
     (0.0, 0.6836910888346361), (0.509009680758303, 0.5642723696710927)),
    (((0.0, 0.8214307768230413), (2.106630633644601, -1.0308369102193842), (0.5958089288656795, -0.985560946788766), (0.2894316654787852, -0.6599277323382978), (-0.009862311976701335, -0.20883590659824056)),
     (0.0, -0.5389773466657564), (1.5934788804178244, 0.6771538915403525)),
    (((0.0, 0.3153647451230525), (-1.5965331444301285, -2.0205111835790595), (-0.35200978153080703, -1.4542440136961632), (-0.11247055298634705, -0.4304453161484912)),
     (0.0, 0.7704716188267755), (1.1858803353029632, 1.7711323821877707)),
    (((0.0, -0.08205178834622884), (0.5813000981660555, -0.4388258485266819), (-0.17851762752785488, -0.5787570534082245), (0.03161275835646973, -0.3804516742176794)),
     (0.0, 0.1255628115823446), (0.6816965853528002, 0.6297135494681952)),
    (((0.0, -0.08123804515093218), (-0.12472028512247263, 0.12043711912613773), (-0.3624598561947999, 0.13859592889820246), (-0.2804194326064973, -0.2961937999153539)),
     (0.0, 1.1213046566624698), (1.0584889755624478, 1.558324808487542)),
    (((0.0, 0.08155420667413639), (-0.22140552349941683, 0.06756216527291192), (0.026425834789004975, 0.28269644956406864), (-0.5805509772585093, 0.25660166960025904), (-0.1835302604380267, 0.27961566649242603)),
     (0.0, -0.643878449754654), (1.402164997249884, -1.2296165680140119)),
    (((0.0, -0.04903667880779458), (0.432535530537306, -0.004823606329938002), (0.14033652971302407, -0.3179739497656149), (0.37219246980643567, -0.12036375393134795), (0.20736251758640856, -0.08099561363204268)),
     (0.0, 0.10614099403724198), (1.1368839799487924, 0.21349960234061177)),
    (((0.0, -0.14709024773882892), (-0.08129461096992857, 0.08076557845305221), (-0.32581409761900704, -0.0030546397311266293), (-0.6675511407594752, -0.30520192590416856), (-0.46565166222867005, -0.277070382483649), (-0.10864883481979101, -0.1420990827962373)),
     (0.0, 0.8423110126891469), (0.8055538741681987, 0.8353488440481913)),
    (((0.0, 0.41859437660819143), (0.7565263071186705, -1.5886301903277829), (0.018740661752196686, -0.21311838994276294), (0.059831100640663076, -0.3881157143368925)),
     (0.0, -0.7391650988078904), (1.3645745681504553, 1.0533446646900053)),
    (((0.0, -0.054288343907853844), (0.4254237514397441, 0.2703045871766031), (0.6605583429817461, 0.09131827156276484), (0.7365732988421917, -0.285160383646824), (0.4162025488777722, -0.4107939696584543), (-0.01299408611512316, -0.2892492597713222)),
     (0.0, 0.13631988258896266), (1.4559335814112764, 0.261275474704687)),
)


@pytest.mark.parametrize("w, z1, z2", _WITNESS_SEED_1)
def test_a_witness_trace_lands_on_its_target(w, z1, z2):
    w = ComplexPolynomial(complex(*p) for p in w)
    z1, z2 = complex(*z1), complex(*z2)
    chk = graphical_connection(w, z1, z2)
    assert chk.connected and chk.graphical
    assert chk.trace.terminated_by == "target"
    assert abs(chk.trace.points[-1] - z1) <= config.TOL.connect * (1 + abs(z1))
    # one point lands: the rest of the trace stays outside the landing radius
    land = 0.5 * _landing_disc(w.coeffs, z1)
    assert land > config.TOL.connect * (1 + abs(z1))
    assert sum(abs(p - z1) < land for p in chk.trace.points[:-1]) <= 1


@pytest.mark.parametrize("w, z1, z2", _WITNESS_SEED_1)
def test_a_witness_trace_launches_from_the_disc_about_its_seed(w, z1, z2):
    w = ComplexPolynomial(complex(*p) for p in w)
    z1, z2 = complex(*z1), complex(*z2)
    chk = graphical_connection(w, z1, z2)
    u0, u1 = chk.trace.points[:2]
    h_max = config.TOL.step_max * (1 + tracer._escape_radius(w, u0))
    launch = min(h_max, 0.5 * _landing_disc(w.coeffs, u0))
    assert launch > config.TOL.step_initial * (1 + abs(z2))
    # the first step is the launch: the corrector pulls u0 + launch t back
    # onto the arc, a short move across it
    assert abs(u1 - u0) == pytest.approx(launch, rel=1e-2)
    # a work count: the 18th input, whose landing radius at z1 is 0.0089,
    # took 24 points when a quarter pull closed in on it, and takes 16 in
    # steps cut by its distance; no trace takes more
    assert len(chk.trace.points) <= 16


@contextlib.contextmanager
def _recorded_steps():
    # record every predictor step of the traces run inside as (start point,
    # step, corrected point or None): _trace corrects u + h t, t a unit
    # tangent, allowing a move of 4 h; other corrections are left out
    steps = []
    correct = tracer._correct

    def recording(field, grad, ftol, u, max_move):
        out = correct(field, grad, ftol, u, max_move)
        steps.append((u, 0.25 * max_move, out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tracer, "_correct", recording)
        yield steps


def _traced_steps(w, z1, z2):
    """(GraphCheck, [(u, h)] for every predictor trial of its trace)."""
    with _recorded_steps() as calls:
        chk = graphical_connection(w, z1, z2)
    pts, trials, i = chk.trace.points, [], 0
    for pred, h, out in calls:
        # a trial predicts from the last accepted point pts[i], h away
        if i + 1 < len(pts) and abs(abs(pred - pts[i]) - h) <= 1e-9 * (1.0 + h):
            trials.append((pts[i], h))
            if out == pts[i + 1]:
                i += 1
    return chk, trials


@pytest.mark.parametrize("w, z1, z2", _WITNESS_SEED_1)
def test_a_landed_target_is_approached_in_steps_cut_by_its_distance(w, z1, z2):
    w = ComplexPolynomial(complex(*p) for p in w)
    z1, z2 = complex(*z1), complex(*z2)
    chk, trials = _traced_steps(w, z1, z2)
    aim = config.TOL.connect * (1 + abs(z1))
    pts, p = chk.trace.points, chk.trace.points[-1]
    assert chk.trace.terminated_by == "target" and abs(p - z1) <= aim
    # every point steps on but the one inside the landing disc, which
    # appends p
    assert {u for u, _ in trials} == set(pts[:-2])
    # each step is at most lambda (|u - z1| - aim), so it stops short of
    # the landing point p: x falls along the trace until p
    for u, h in trials:
        assert h <= tracer._LAND_PULL * (abs(u - z1) - aim) * (1 + 1e-12)
    assert all(a.real > b.real for a, b in zip(pts, pts[1:]))
    # the quarter pull of a target without a landing disc no longer cuts
    # them: some step exceeds a quarter of its distance to z1
    assert any(h > 0.25 * abs(u - z1) for u, h in trials)


def test_the_derived_landing_pull_keeps_every_step_short_of_the_landing():
    # lambda (1 + eps) < 1 with 1 + eps = cos(theta) / cos(2 theta), theta
    # the turn an accepted step allows (the module docstring)
    theta = config.TOL.max_turn_angle
    assert tracer._LAND_PULL * math.cos(theta) < math.cos(2 * theta)


@pytest.mark.parametrize("w, z2", [(CUBE_THIRD, 2 + 1j * math.sqrt(12)),
                                   (CUBIC_MIXED, 2 + 0j)], ids=["ray", "window"])
def test_a_target_without_a_landing_disc_keeps_the_quarter_pull(w, z2):
    # z1 = 0 is a critical point: w'(0) = 0 gives no disc
    z1 = 0j
    assert _landing_disc(w.coeffs, z1) == 0.0
    chk, trials = _traced_steps(w, z1, z2)
    assert chk.connected and chk.graphical
    aim = config.TOL.connect
    for u, h in trials:
        assert h <= max(0.25 * abs(u - z1), 0.5 * aim) * (1 + 1e-12)
    # the quarter steps close in on z1
    assert sum(abs(u - z1) < 0.05 for u, _ in trials) > 10


# ---------------------------------------------------------------------------
# band labels along a traced curve


def test_sample_regions_constant_between_folds():
    line = trace_level(CUBE_THIRD, 2.0 + 0j, direction=-1)
    inside = [p for p in line.points if p.real > 1e-3]
    pot = Potential(CUBE_THIRD)
    labels = [counting_function(pot, p).value for p in inside[::4]]
    assert set(labels) == {HalfInteger.from_int(2)}


def test_sample_regions_jump_across_fold():
    y_hi = _bisect(lambda y: 12 * y - y**3 - 2, 2.0, 3.45)
    line = trace_level(CUBE_THIRD, 2 + 1j * y_hi, direction=-1, level=2 / 3)
    pot = Potential(CUBE_THIRD)
    labels = [counting_function(pot, p).value for p in (line.points[0], line.points[-1])]
    # started in band 3, escaped rightward in band 2 after the fold at 1+i
    assert labels[0] == HalfInteger.from_int(3)
    assert labels[-1] == HalfInteger.from_int(2)


# ---------------------------------------------------------------------------
# one root solve per trace: the escape circle comes from the coefficients


def _count_root_solves(monkeypatch) -> list:
    calls = []
    real_roots = poly.roots

    def counted(p):
        calls.append(p)
        return real_roots(p)

    for name, module in list(sys.modules.items()):
        if name.startswith("levelgraph") and getattr(module, "roots", None) is real_roots:
            monkeypatch.setattr(module, "roots", counted)
    return calls


@pytest.mark.parametrize("run", [
    lambda: graphical_connection(CUBE_THIRD, 1, 2),
    lambda: trace_level(CUBE_THIRD, 2.0 + 0j, direction=-1),
    lambda: trace_level(CUBE_THIRD, 1 + 1j, kind="vertical_tangent"),
], ids=["graphical_connection", "level", "vertical_tangent"])
def test_each_trace_makes_one_root_solve(monkeypatch, run):
    calls = _count_root_solves(monkeypatch)
    run()
    assert calls == [CUBE_THIRD.derivative()]


def _magnitudes(top: int):
    return st.builds(
        lambda m, e, phase: cmath.rect(m * 10.0**e, phase),
        st.floats(1.0, 10.0), st.integers(-top, top), st.floats(0.0, 2 * math.pi),
    )


_COEFFS = st.lists(_magnitudes(30) | st.just(0j), min_size=1, max_size=12).flatmap(
    lambda low: _magnitudes(30).map(lambda lead: ComplexPolynomial(low + [lead]))
)
# roots drawn from a few values, so that some come out multiple; 12 roots of
# size 1e20 and a leading 1e30 keep every coefficient a normal double
_PLANTED = st.builds(
    lambda rs, lead: ComplexPolynomial([c * lead for c in root_product(rs)]),
    st.lists(_magnitudes(20), min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12)
    ),
    _magnitudes(30),
)


def _largest_root(w) -> float:
    """max |root of w| at 50 digits, by mpmath.polyroots or, failing it, mpmath.eig.

    The variable is first scaled by the largest double-precision companion
    eigenvalue, which polyroots needs because it stops on an absolute step;
    the eigenvalues also seed it.  On a multiple root, such as that of
    (z - 1)^3, or a tight cluster, polyroots converges only linearly, and the
    QR iteration of mpmath.eig on the scaled companion matrix gives the roots
    instead.  The zero roots that vanishing low coefficients give are set
    aside.
    """
    low = next(k for k, c in enumerate(w.coeffs) if c != 0)
    rest = w.coeffs[low:]
    n = len(rest) - 1
    if n == 0:
        return 0.0
    approx = np.roots(rest[::-1])
    scale = float(np.max(np.abs(approx)))
    with mpmath.workdps(50):
        monic = [mpmath.mpc(c) / mpmath.mpc(rest[-1]) * mpmath.mpf(scale) ** (k - n)
                 for k, c in enumerate(rest)]
        try:
            found = mpmath.polyroots(monic[::-1], maxsteps=15, extraprec=20,
                                     roots_init=[mpmath.mpc(z / scale) for z in approx])
        except mpmath.libmp.NoConvergence:
            companion = mpmath.matrix(n, n)
            for k in range(n):
                companion[0, k] = -monic[n - 1 - k]
            for k in range(1, n):
                companion[k, k - 1] = 1
            # (mpmath.eig returns a tuple for a 1-by-1 matrix, which polyroots
            # always solves)
            found = mpmath.eig(companion, left=False, right=False)
        return float(scale * max(abs(r) for r in found))


# B is evaluated in floats: an abs, a division and a power per term, each
# good to about an ulp.  In degree 1 B equals R exactly, and on an exact n-fold
# root it equals 2n R, so each comparison allows B that rounding.
_ROUNDING = 1.0 + 8.0 * sys.float_info.epsilon


# a 50-digit eigenvalue solve takes about 0.1 s at degree 12
@settings(max_examples=50, deadline=None)
@given(_COEFFS | _PLANTED)
@example(w=ComplexPolynomial([c * (0.0007140625000000001 + 0j)
                              for c in root_product([0.0640996858163325 + 0.07675435022360272j])]))
@example(w=ComplexPolynomial(root_product([1, 1, 1])))
@example(w=ComplexPolynomial(root_product([10, 10])))
def test_root_bound_encloses_roots_and_is_within_2n_of_them(w):
    r_max = _largest_root(w)
    bound = _root_bound(w)
    assert r_max <= bound * _ROUNDING
    # |c_{n-k}/c_n| = |e_k| <= C(n, k) R^k <= n^k R^k, so no term passes n R
    assert bound <= 2 * w.degree * r_max * _ROUNDING
