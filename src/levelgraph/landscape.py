"""Geometry of the level set {Im w = 0} for a polynomial w.

With all critical points of w confined to the closed left half-plane, the
zero level set of v = Im w meets the right half-plane in finitely many
unbounded arcs.  The arcs of the vertical-tangent locus {Re w' = 0} slice the
right half-plane into horizontally ordered bands, and a point's band label
counts the arcs below it on its vertical line Re z = l.  Each such arc is a
crossing of a line pi/2 + k pi by the phase of w' along the line, and a pole
of the ratio

    R_l(y) = Im(w'(l + iy)) / Re(w'(l + iy)),

so the label is also a Cauchy index of R_l, with a correction on the axis
itself where critical points sit.

Right of every critical point the phase of w' is a sum of atan2 terms over
the roots of w', one per root, and it rises strictly; the label is a floor
of that phase sum, :func:`levelgraph.cauchy.phase_climb`, which the dHYM
indices use too.  The root solve bounds each root to a disc, and a label
is taken from the phase sum when its ends lie farther from a line than the
discs and rounding can move them.  Otherwise the exact signed-remainder
chain of :mod:`levelgraph.cauchy` decides the index.

The hypothesis is a property of w alone, so it is checked once: a
:class:`Potential` solves w' = 0 a single time, refuses a root in the right
half-plane, and keeps the roots and the on-axis critical points that every
label needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import config
from .cauchy import CLIMB_ROUNDING, HalfInteger, RationalFunction, index_on_interval
from .cauchy import line_crossings, one_sided_sign, phase_climb
from .errors import CriticalPointInRHP, DegenerateLine, LevelGraphError, ZeroPolynomial
from .poly import I_POWERS, ComplexPolynomial, RealPolynomial, divide_linear, roots
from .poly import restrict_to_vertical_line, taylor_coeffs

__all__ = [
    "CriticalPoint",
    "TangentConeAtInfinity",
    "CountingResult",
    "Potential",
    "validate_no_rhp_critical_points",
    "on_axis_critical_points",
    "counting_function",
    "tangent_cone_at_infinity",
]

@dataclass(frozen=True)
class CriticalPoint:
    """A zero of w' on the imaginary axis.

    order is the multiplicity k of the zero; leading_coeff is the first
    nonvanishing Taylor coefficient of w' there, w'^(k)(i y0)/k!.  The
    genericity flag records whether the critical level curve leaves the
    imaginary axis transversally ("generic") or hugs it ("non_generic").
    """

    y0: float
    order: int
    leading_coeff: complex
    genericity: str


@dataclass(frozen=True)
class TangentConeAtInfinity:
    vertex: complex
    ray_angles: tuple
    genericity: str


@dataclass(frozen=True)
class CountingResult:
    """Band label of a point: one plus the vertical-tangent arcs below it.

    value = |interval_index| + crit_sum + 1.  interval_index keeps its sign
    (all jumps along one line share it); crit_sum is the total order of
    on-axis critical points at or below the point, zero off the axis.  A
    half-integer value means the point sits exactly on an arc.

    margin is how far, in units of pi, the ends of the phase sum lie from
    their nearest line beyond what the root discs and rounding can move
    them: positive when the phase sum decided the label, and -inf when no
    phase sum was formed.  exact_fallback says that the exact chain decided
    it instead.
    """

    value: HalfInteger
    interval_index: HalfInteger
    crit_sum: int
    margin: float
    exact_fallback: bool


class Potential:
    """A potential w whose critical points have been found and checked once.

    The constructor forms w' once, keeps it as wp, makes its one root solve
    and raises CriticalPointInRHP when a root lies right of the imaginary
    axis, so every Potential satisfies the standing hypothesis.  It keeps
    every root of w' in roots and those near the axis in
    axis_critical_points, ordered by height; lead_phase is the argument of
    the leading coefficient of w'.  The exact chain reads wp on its line.
    The band labels are phase sums over these roots, whose phase_climb
    terms (location, multiplicity, radius) it keeps once: terms over all
    roots, off_axis_terms over those not near the axis.

    Each root from poly.roots stands for a component of inclusion discs
    that holds exactly as many zeros of w' as its multiplicity, all within
    r = cluster_radius of its location c.  With tol = TOL.sign * (1 + |c|),
    it raises CriticalPointInRHP when Re c - r > tol, and it is an axis
    critical point of that order when |Re c| <= tol + r; otherwise all its
    zeros lie left of the band.
    """

    __slots__ = ("w", "wp", "roots", "axis_critical_points", "lead_phase", "terms",
                 "off_axis_terms")

    def __init__(self, w: ComplexPolynomial):
        wp = w.derivative()
        if wp.is_zero:
            raise ZeroPolynomial("w is constant; it has no level-curve geometry")
        self.roots = tuple(roots(wp))
        on_axis, terms, off_axis_terms = [], [], []
        for r in self.roots:
            c, k = r.location, r.multiplicity
            term = (c, k, r.cluster_radius)
            terms.append(term)
            tol = config.TOL.sign * (1.0 + abs(c))
            if c.real - r.cluster_radius > tol:
                raise CriticalPointInRHP(c, f"critical point at {c!r} has positive real part")
            if abs(c.real) <= tol + r.cluster_radius:
                y0 = c.imag
                lead = taylor_coeffs(wp.coeffs, 1j * y0, k + 1)[k]
                generic = abs((lead * I_POWERS[k % 4]).real) >= config.TOL.sign * abs(lead)
                on_axis.append(
                    CriticalPoint(y0, k, lead, "generic" if generic else "non_generic")
                )
            else:
                off_axis_terms.append(term)
        on_axis.sort(key=lambda c: c.y0)
        self.w = w
        self.wp = wp
        self.axis_critical_points = tuple(on_axis)
        self.terms = tuple(terms)
        self.off_axis_terms = tuple(off_axis_terms)
        lc = wp.coeffs[-1]
        self.lead_phase = math.atan2(lc.imag, lc.real)

    def critical_point_at(self, z: complex) -> CriticalPoint | None:
        """The on-axis critical point that z sits on, within TOL.snap * (1 + |z|)."""
        z = complex(z)
        snap = config.TOL.snap * (1.0 + abs(z))
        if abs(z.real) > snap:
            return None
        for cp in self.axis_critical_points:
            if abs(cp.y0 - z.imag) <= snap:
                return cp
        return None


def validate_no_rhp_critical_points(w: ComplexPolynomial) -> None:
    """Raise CriticalPointInRHP if w' has a zero right of the imaginary axis."""
    Potential(w)


def on_axis_critical_points(w: ComplexPolynomial) -> tuple:
    """Critical points of Im(w) on the imaginary axis, ordered by height."""
    return Potential(w).axis_critical_points


def _phase_ends(pot: Potential, x: float, y: float, on_axis: bool):
    """(lo, hi, spread, rounding) of the phase of w' below x + iy, or None.

    Off the axis (x > 0) the phase along the line is
    arg lc + sum k_j atan2(t - Im c_j, x - Re c_j) over the roots c_j of w'
    with multiplicities k_j; it rises strictly from arg lc - N pi/2 at
    t = -inf, N = deg w', while every root lies left of the line.  On the
    axis the model is the one the exact chain uses after deflation: each
    axis critical point of order k contributes the constant k pi/2, and
    each other root its atan2 term with x = 0.  lo and hi are the phase at
    t = -inf and at t = y, in units of pi and measured from the line pi/2,
    so the lines {pi/2 + k pi} crossed below y are the integers in
    (lo, hi], and their number is minus the Cauchy index of R over
    (-inf, y].  With climb, spread and n from cauchy.phase_climb over
    these terms, hi = (arg lc - climb)/pi + offset + n/2.  None, and no
    phase sum, when a root is uncertified (see poly.roots), phase_climb
    refuses a disc, or, on the axis, a critical point is non-generic: its
    pole is the exact chain's to place.

    rounding = CLIMB_ROUNDING (N + 2), N = deg w' >= n, bounds twice the
    error of either end and of spread together.  With u = eps/2, hi adds
    to phase_climb's bound: arg lc (atan2 of the exact coefficient, 8u),
    the difference (u (pi + climb)), the division by math.pi (1.4u
    relative) and the half-integer offset + n/2 = (N - 1)/2 (u |hi| <=
    (N + 3) u/2).  With climb <= n pi, hi is within (6.5 + 7.4 N) u, and
    lo, which takes arg lc/pi and one addition, within (5.5 + N/2) u.
    spread/pi is within (n + 12.4) u relative, and below 1/2 where it
    certifies.  With one u for adding spread and rounding, an end and
    spread together err by less than (13.7 + 7.9 N) u < 8u (N + 2).
    """
    if not all(r.certified for r in pot.roots):
        return None
    if on_axis:
        if any(cp.genericity != "generic" for cp in pot.axis_critical_points):
            return None
        terms = pot.off_axis_terms
        offset = (sum(cp.order for cp in pot.axis_critical_points) - 1) / 2
    else:
        terms = pot.terms
        offset = -0.5
    climb = phase_climb(terms, x, y)
    if climb is None:
        return None
    climb, spread, n = climb
    lo = pot.lead_phase / math.pi + (offset - n / 2)
    hi = (pot.lead_phase - climb) / math.pi + (offset + n / 2)
    return lo, hi, spread / math.pi, CLIMB_ROUNDING * (pot.w.degree + 1)


def _deflate(p: RealPolynomial, y0: float, times: int) -> RealPolynomial:
    """Quotient of p by (y - y0)**times; each division drops its remainder."""
    c = p.coeffs
    for _ in range(times):
        c, _ = divide_linear(c, y0)
    return RealPolynomial(c)


def _exact_index(pot: Potential, z0: complex, on_axis: bool) -> HalfInteger:
    """Index of R over (-inf, Im z0] from the exact signed-remainder chain.

    The chain reads pot.wp restricted to the line Re z = Re z0, or Re z = 0
    on the axis.  There Re w' and Im w' share the factor (y - y_j)^k_j of
    each critical point, but only up to rounding, so it is divided out of
    both before the exact index sees them; the ratio is unchanged.  At a
    non-generic point the reduced Re w' keeps a simple zero at y_j, the
    point's own pole.  When z0 sits on that point, this zero is divided out
    too, so that the pole lands exactly on the endpoint: the dropped factor
    is negative below y_j, which negates the index of the reduced ratio,
    and the pole's half jump is added from the exact sign of that ratio.
    Raises DegenerateLine when Re w' on the line, so reduced, is zero.
    """
    x = 0.0 if on_axis else z0.real
    re, im = restrict_to_vertical_line(pot.wp, x)
    pole = None
    if on_axis:
        pole = pot.critical_point_at(z0)
        if pole is not None and pole.genericity == "generic":
            pole = None
        for cp in pot.axis_critical_points:
            re = _deflate(re, cp.y0, cp.order + (cp is pole))
            im = _deflate(im, cp.y0, cp.order)
    if re.is_zero:
        raise DegenerateLine(
            f"Re(w') on the line Re z = {x!r} deflates to the zero polynomial "
            f"once the factors of the critical points on it are divided out"
        )
    idx = index_on_interval(RationalFunction(im, re), -math.inf, z0.imag)
    if pole is not None:
        jump = one_sided_sign(im, pole.y0, -1) * one_sided_sign(re, pole.y0, -1)
        idx = HalfInteger(jump) - idx
    return idx


def counting_function(pot: Potential, z0: complex) -> CountingResult:
    """Band label of z0: one plus the number of {Re w' = 0} arcs below it.

    Defined for Re z0 >= 0.  The count is the number of lines
    {pi/2 + k pi} that the phase of w' crosses along the vertical line
    below z0, plus one; on the axis itself, each critical point at or below
    z0 additionally contributes its full order (its index footprint is 0
    when generic and -1 when not, so the order has to be added back by
    hand).  A half-integer value means z0 sits on an arc.

    The crossings are a floor of the phase sum over the roots of w' that
    pot holds (_phase_ends), certified by line_crossings when both ends lie
    farther from a line than the spread of the root discs plus a stated
    rounding bound; interval_index is minus their number.  Where no
    certificate holds -- an uncertified root, a disc reaching the line, an
    end within the bound of a line (z0 on an arc among them), or a
    non-generic critical point on the axis -- the exact signed-remainder
    chain decides the index (_exact_index).  Raises DegenerateLine when
    Re w' vanishes identically on the line, or on the axis once the
    chain divides the critical points' factors out of it.
    """
    z0 = complex(z0)
    x0, y0 = z0.real, z0.imag
    axis_snap = config.TOL.snap * (1.0 + abs(z0))
    if x0 < -axis_snap:
        raise ValueError(f"z0={z0!r} lies in the open left half-plane")
    on_axis = x0 <= axis_snap
    crit_sum = 0
    if on_axis:
        crit_sum = sum(cp.order for cp in pot.axis_critical_points if cp.y0 <= y0 + axis_snap)
    count, margin = None, -math.inf
    ends = _phase_ends(pot, 0.0 if on_axis else x0, y0, on_axis)
    if ends is not None:
        lo, hi, spread, rounding = ends
        bound = spread + rounding
        count, margin = line_crossings(lo, hi, bound)
        margin -= bound
    if count is not None:
        return CountingResult(HalfInteger.from_int(count + crit_sum + 1),
                              HalfInteger.from_int(-count), crit_sum, margin, False)
    idx = _exact_index(pot, z0, on_axis)
    return CountingResult(abs(idx) + crit_sum + 1, idx, crit_sum, margin, True)


def tangent_cone_at_infinity(w: ComplexPolynomial) -> TangentConeAtInfinity:
    """Asymptotic cone of the level set {Im w = Im w(vertex)} far from origin.

    The vertex is the centroid of the zeros of w; the cone consists of the n
    directions psi in (-pi/2, pi/2] with Im(beta e^{i n psi}) = 0, beta the
    leading coefficient.  When one ray lands on the imaginary axis the cone
    is flagged non_generic (the flag agrees with the direction-field one).
    """
    n = w.degree
    if n < 1:
        raise ZeroPolynomial("w must be nonconstant")
    beta = w.coeffs[-1]
    vertex = -w.coeffs[-2] / (n * beta)
    # atan2 rather than cmath.phase: the latter overflows on subnormal parts
    a = math.atan2(beta.imag, beta.real)
    generic = abs((beta * I_POWERS[n % 4]).imag) >= config.TOL.sign * abs(beta)
    # a generic cone keeps every ray about TOL.sign / n or more off the
    # imaginary axis, far past rounding; a non-generic one has a ray within
    # that distance of it, which is put on the axis
    snap = 0.0 if generic else config.TOL.sign
    angles = []
    k_lo = math.floor(a / math.pi - n / 2) - 1
    k_hi = math.ceil(a / math.pi + n / 2) + 1
    for k in range(k_lo, k_hi + 1):
        psi = (k * math.pi - a) / n
        if -math.pi / 2 + snap < psi <= math.pi / 2 + snap:
            angles.append(min(psi, math.pi / 2))
    if len(angles) != n:
        raise LevelGraphError(
            f"found {len(angles)} rays of the cone at infinity, expected {n}"
        )
    return TangentConeAtInfinity(
        vertex, tuple(sorted(angles)), "generic" if generic else "non_generic"
    )
