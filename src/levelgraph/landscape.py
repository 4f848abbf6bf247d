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
the roots of w', :func:`levelgraph.cauchy.phase_climb` (the dHYM indices
use it too), and it rises strictly from a low end that the leading
coefficient of w' fixes exactly.  A label counts the lines up to the high
end when the root discs and rounding cannot move that end across one.  The
exact signed-remainder chain of :mod:`levelgraph.cauchy` decides only where
no phase sum can: an uncertified root solve, a disc that reaches the line,
a high end within its bound of a line (z on an arc among them), and z on a
non-generic axis critical point.

The hypothesis is a property of w alone, so it is checked once: a
:class:`Potential` solves w' = 0 a single time, refuses a root in the right
half-plane, and keeps the roots and the on-axis critical points that every
label needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import config
from .cauchy import CLIMB_ROUNDING, HalfInteger, index_on_interval
from .cauchy import line_crossings, one_sided_sign, phase_climb
from .errors import CriticalPointInRHP, DegenerateLine, ZeroPolynomial
from .poly import I_POWERS, ComplexPolynomial, divide_linear, roots, taylor_coeffs
from .poly import restrict_to_vertical_line

__all__ = [
    "CriticalPoint",
    "CountingResult",
    "Potential",
    "validate_no_rhp_critical_points",
    "on_axis_critical_points",
    "counting_function",
]

@dataclass(frozen=True)
class CriticalPoint:
    """A zero of w' on the imaginary axis.

    order is the multiplicity k of the zero.  The genericity flag records
    whether the critical level curve leaves the imaginary axis
    transversally ("generic") or hugs it ("non_generic"), as read from the
    first nonvanishing Taylor coefficient of w' there, w'^(k)(i y0)/k!.
    """

    y0: float
    order: int
    genericity: str


@dataclass(frozen=True)
class CountingResult:
    """Band label of a point: one plus the vertical-tangent arcs below it.

    value = |interval_index| + crit_sum + 1.  interval_index keeps its sign
    (all jumps along one line share it); crit_sum is the total order of
    on-axis critical points at or below the point, zero off the axis.  A
    half-integer value means the point sits exactly on an arc.

    margin is how far, in units of pi, the phase sum's high end lies from
    its nearest line beyond what the root discs and rounding can move it:
    positive when the phase sum decided the label, -inf when none was
    formed.  exact_fallback says that the exact chain decided it instead.
    """

    value: HalfInteger
    interval_index: HalfInteger
    crit_sum: int
    margin: float
    exact_fallback: bool


class Potential:
    """A potential w whose critical points have been found and checked once.

    The constructor forms w' once, keeps it as wp (w itself is not kept:
    every label reads w' alone), makes its one root solve and raises
    CriticalPointInRHP when a root lies right of the imaginary axis, so
    every Potential satisfies the standing hypothesis.  It keeps each root
    of w' once, as the phase_climb term (location, multiplicity, radius)
    that poly.roots returns: terms over all roots, off_axis_terms over those
    not near the axis, which are axis_critical_points, ordered by height, of
    total order axis_order.  certified is the solve's one certificate,
    lead_phase the argument of the leading coefficient lc of w', and
    lo_floor the exact floor of the phase sum's low end off the axis (see
    _phase_ends), read from the signs of lc's parts as math.atan2 reads
    them: lead_phase rounds arg(+-1e-17 + i), on either side of pi/2, to one
    double.  The band labels are phase sums over the terms; the exact chain
    reads wp on its line.

    Each term stands for a component of inclusion discs that holds exactly
    as many zeros of w' as its multiplicity, all within its radius r of its
    location c.  With tol = TOL.sign * (1 + |c|), it raises
    CriticalPointInRHP when Re c - r > tol, and it is an axis critical
    point of that order when |Re c| <= tol + r; otherwise all its
    zeros lie left of the band.
    """

    __slots__ = ("wp", "certified", "axis_critical_points", "axis_order", "lead_phase",
                 "lo_floor", "terms", "off_axis_terms")

    def __init__(self, w: ComplexPolynomial):
        wp = w.derivative()
        if wp.is_zero:
            raise ZeroPolynomial("w is constant; it has no level-curve geometry")
        terms, self.certified = roots(wp)
        sign = config.TOL.sign
        on_axis, off_axis_terms, axis_order = [], [], 0
        for term in terms:
            c, k, radius = term
            tol = sign * (1.0 + abs(c))
            if c.real - radius > tol:
                raise CriticalPointInRHP(c, f"critical point at {c!r} has positive real part")
            if abs(c.real) <= tol + radius:
                y0 = c.imag
                # the k-th coefficient of poly.line_coeffs at i y0, alone
                lead = taylor_coeffs(wp.coeffs, 1j * y0, k + 1)[k] * I_POWERS[k % 4]
                generic = abs(lead.real) >= sign * abs(lead)
                on_axis.append(CriticalPoint(y0, k, "generic" if generic else "non_generic"))
                axis_order += k
            else:
                off_axis_terms.append(term)
        on_axis.sort(key=lambda c: c.y0)
        self.wp = wp
        self.axis_critical_points = tuple(on_axis)
        self.axis_order = axis_order
        self.terms = tuple(terms)
        self.off_axis_terms = tuple(off_axis_terms)
        lc = wp.coeffs[-1]
        self.lead_phase = math.atan2(lc.imag, lc.real)
        if lc.imag:  # q = floor(2 arg lc/pi)
            q = (0 if lc.real > 0 else 1) if lc.imag > 0 else (-1 if lc.real >= 0 else -2)
        else:
            q = 0 if lc.real > 0 else int(math.copysign(2.0, lc.imag))
        self.lo_floor = (q - wp.degree - 1) // 2

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


def _phase_ends(pot: Potential, z0: complex, on_axis: bool):
    """(lo_floor, hi, spread, rounding) of the phase of w' below z0, or None.

    Off the axis (x = Re z0 > 0) the phase along the line is arg lc + sum
    k_j atan2(t - Im c_j, x - Re c_j) over the roots c_j of w' with
    multiplicities k_j, N = deg w' in all, and it rises strictly while every
    root lies left of the line.  On the axis the model is the one the exact
    chain uses after deflation: each axis critical point of order k
    contributes the constant k pi/2, S = pot.axis_order in all (S = 0 off
    the axis), and each other root its atan2 term at x = 0.  In units of pi
    from the line pi/2 the phase rises from lo = arg lc/pi - (N + 1)/2 + S
    at t = -inf, whose exact floor is pot.lo_floor + S, to hi = (arg lc -
    climb)/pi + (N - 1)/2 at t = Im z0, with climb and spread from
    cauchy.phase_climb over these terms.  So it crosses floor(hi) -
    floor(lo) lines {pi/2 + k pi}, a non-generic point below z0 among them:
    minus the Cauchy index of R over (-inf, Im z0].  None, and no phase sum,
    when the root solve is uncertified (see poly.roots), phase_climb refuses
    a disc, or z0 sits on a non-generic axis critical point, whose pole is
    the exact chain's to place.

    rounding = CLIMB_ROUNDING (N + 2) bounds twice the error of hi and of
    spread together.  With u = eps/2, hi adds to phase_climb's bound:
    arg lc (atan2 of the exact coefficient, 8u), the difference
    (u (pi + climb)), the division by math.pi (1.4u relative) and the
    half-integer (N - 1)/2 (u |hi| <= (N + 3) u/2).  With climb <= N pi, hi
    is within (6.5 + 7.4 N) u.  spread/pi is within (N + 12.4) u relative,
    and below 1/2 where it certifies.  With one u for adding spread and
    rounding, hi and spread together err by less than (13.7 + 7.9 N) u <
    8u (N + 2).
    """
    if not pot.certified:
        return None
    terms, lo_floor = pot.terms, pot.lo_floor
    if on_axis:
        cp = pot.critical_point_at(z0)
        if cp is not None and cp.genericity != "generic":
            return None
        terms = pot.off_axis_terms
        lo_floor += pot.axis_order
    climb = phase_climb(terms, 0.0 if on_axis else z0.real, z0.imag)
    if climb is None:
        return None
    deg = pot.wp.degree
    hi = (pot.lead_phase - climb[0]) / math.pi + (deg - 1) / 2
    return lo_floor, hi, climb[1] / math.pi, CLIMB_ROUNDING * (deg + 2)


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
    pole = pot.critical_point_at(z0) if on_axis else None
    if pole is not None and pole.genericity == "generic":
        pole = None
    if on_axis:
        for cp in pot.axis_critical_points:  # each division drops its remainder
            for _ in range(cp.order):
                re, im = divide_linear(re, cp.y0)[0], divide_linear(im, cp.y0)[0]
            if cp is pole:
                re, _ = divide_linear(re, cp.y0)
    if not re:
        raise DegenerateLine(
            f"Re(w') on the line Re z = {x!r} deflates to the zero polynomial "
            f"once the factors of the critical points on it are divided out"
        )
    idx = index_on_interval(im, re, -math.inf, z0.imag)
    if pole is not None:
        jump = one_sided_sign(im, pole.y0, -1) * one_sided_sign(re, pole.y0, -1)
        idx = HalfInteger(jump - idx.twice_value)
    return idx


def counting_function(pot: Potential, z0: complex) -> CountingResult:
    """Band label of z0: one plus the number of {Re w' = 0} arcs below it.

    Defined for Re z0 >= 0.  The count is the number of lines
    {pi/2 + k pi} that the phase of w' crosses along the vertical line
    below z0, plus one; on the axis itself, each critical point at or below
    z0 additionally contributes its full order (its index footprint is 0
    when generic and -1 when not, so the order has to be added back by
    hand).  A half-integer value means z0 sits on an arc.

    The crossings are floor(hi) - floor(lo) of the phase sum over the roots
    of w' that pot holds (_phase_ends), floor(lo) exact and floor(hi)
    certified by line_crossings against the spread of the root discs plus
    a stated rounding bound; interval_index is minus their number.  In the
    four cases of the module docstring the exact chain decides the index
    instead (_exact_index).  Raises DegenerateLine when Re w' vanishes
    identically on the line, or on the axis once the chain divides the
    critical points' factors out of it.
    """
    z0 = complex(z0)
    x0, y0 = z0.real, z0.imag
    axis_snap = config.TOL.snap * (1.0 + abs(z0))
    if x0 < -axis_snap:
        raise ValueError(f"z0={z0!r} lies in the open left half-plane")
    on_axis = x0 <= axis_snap
    crit_sum = sum(cp.order for cp in pot.axis_critical_points
                   if cp.y0 <= y0 + axis_snap) if on_axis else 0
    hi_floor, margin = None, -math.inf
    ends = _phase_ends(pot, z0, on_axis)
    if ends is not None:
        lo_floor, hi, spread, rounding = ends
        hi_floor, margin = line_crossings(hi, spread + rounding)
        margin -= spread + rounding
    if hi_floor is not None:
        idx, fallback = HalfInteger(2 * (lo_floor - hi_floor)), False
    else:
        idx, fallback = _exact_index(pot, z0, on_axis), True
    value = HalfInteger(abs(idx.twice_value) + 2 * (crit_sum + 1))  # |idx| + crit_sum + 1
    return CountingResult(value, idx, crit_sum, margin, fallback)
