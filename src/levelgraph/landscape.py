"""Geometry of the level set {Im w = 0} for a polynomial w.

With all critical points of w confined to the closed left half-plane, the
zero level set of v = Im w meets the right half-plane in finitely many
unbounded arcs.  Everything here reduces questions about those arcs to Cauchy
indices of the ratio

    R_l(y) = Im(w'(l + iy)) / Re(w'(l + iy)),

which is a rational function of y on each vertical line Re z = l.  Poles of
R_l mark the points where Re w' = 0, i.e. where the level curves of v run
vertical; the arcs of that vertical-tangent locus slice the right half-plane
into horizontally ordered bands, and each arc crossing the line shows up as
a jump of a definite sign.  Counting the arcs below a point -- the band
label -- is therefore an index computation, with a correction on the axis
itself where critical points sit.

The hypothesis is a property of w alone, so it is checked once: a
:class:`Potential` solves w' = 0 a single time, refuses a root in the right
half-plane, and keeps the on-axis critical points that every count on the
axis needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cauchy import HalfInteger, RationalFunction, index_on_interval, one_sided_sign
from .config import SIGN_TOL, SNAP_TOL
from .errors import CriticalPointInRHP, DegenerateLine, LevelGraphError, ZeroPolynomial
from .poly import I_POWERS, ComplexPolynomial, RealPolynomial, divide_linear, roots
from .poly import restrict_to_vertical_line, taylor_coeffs

__all__ = [
    "CriticalPoint",
    "TangentConeAtInfinity",
    "CountingResult",
    "Potential",
    "vertical_line_ratio",
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
    """

    value: HalfInteger
    interval_index: HalfInteger
    crit_sum: int


def vertical_line_ratio(w: ComplexPolynomial, x0: float) -> RationalFunction:
    """R_{x0}(y) = Im(w'(x0+iy)) / Re(w'(x0+iy)) as a rational function.

    Raises DegenerateLine when Re(w') vanishes identically on the line.
    """
    re, im = restrict_to_vertical_line(w.derivative(), x0)
    if re.is_zero:
        raise DegenerateLine(
            f"Re(w') vanishes identically on the line Re z = {x0!r}"
        )
    return RationalFunction(im, re)


class Potential:
    """A potential w whose critical points have been found and checked once.

    The constructor makes the one root solve of w' and raises
    CriticalPointInRHP when a root lies right of the imaginary axis, so every
    Potential satisfies the standing hypothesis.  The roots near the axis are
    kept in axis_critical_points, ordered by height.

    Each root from poly.roots stands for a component of inclusion discs
    that holds exactly as many zeros of w' as its multiplicity, all within
    r = cluster_radius of its location c.  With tol = SIGN_TOL * (1 + |c|),
    it raises CriticalPointInRHP when Re c - r > tol, and it is an axis
    critical point of that order when |Re c| <= tol + r; otherwise all its
    zeros lie left of the band.
    """

    __slots__ = ("w", "axis_critical_points")

    def __init__(self, w: ComplexPolynomial):
        wp = w.derivative()
        if wp.is_zero:
            raise ZeroPolynomial("w is constant; it has no level-curve geometry")
        on_axis = []
        for r in roots(wp) if wp.degree > 0 else ():
            c, k = r.location, r.multiplicity
            tol = SIGN_TOL * (1.0 + abs(c))
            if c.real - r.cluster_radius > tol:
                raise CriticalPointInRHP(c, f"critical point at {c!r} has positive real part")
            if abs(c.real) <= tol + r.cluster_radius:
                y0 = c.imag
                lead = taylor_coeffs(wp.coeffs, 1j * y0, k + 1)[k]
                generic = abs((lead * I_POWERS[k % 4]).real) >= SIGN_TOL * abs(lead)
                on_axis.append(
                    CriticalPoint(y0, k, lead, "generic" if generic else "non_generic")
                )
        on_axis.sort(key=lambda c: c.y0)
        self.w = w
        self.axis_critical_points = tuple(on_axis)

    def critical_point_at(self, z: complex) -> CriticalPoint | None:
        """The on-axis critical point that z sits on, within SNAP_TOL * (1 + |z|)."""
        z = complex(z)
        snap = SNAP_TOL * (1.0 + abs(z))
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


def _deflate(p: RealPolynomial, y0: float, times: int) -> RealPolynomial:
    """Quotient of p by (y - y0)**times; each division drops its remainder."""
    c = p.coeffs
    for _ in range(times):
        c, _ = divide_linear(c, y0)
    return RealPolynomial(c)


def counting_function(pot: Potential, z0: complex) -> CountingResult:
    """Band label of z0: one plus the number of {Re w' = 0} arcs below it.

    Defined for Re z0 >= 0.  The count is |Cauchy index of R_{x0} over
    (-inf, y0]| plus one; on the axis itself, each critical point at or
    below z0 additionally contributes its full order (its index footprint
    is 0 when generic and -1 when not, so the order has to be added back
    by hand).  A half-integer value means z0 sits on an arc.

    On the axis, Re w' and Im w' share the factor (y - y_j)^k_j of each
    critical point, but only up to rounding, so it is divided out of both
    before the exact index sees them; the ratio is unchanged.  At a
    non-generic point the reduced Re w' keeps a simple zero at y_j, the
    point's own pole.  When z0 sits on that point, this zero is divided out
    too, so that the pole lands exactly on the endpoint: the dropped factor
    is negative below y_j, which negates the index of the reduced ratio,
    and the pole's half jump is added from the exact sign of that ratio.
    """
    z0 = complex(z0)
    x0, y0 = z0.real, z0.imag
    axis_snap = SNAP_TOL * (1.0 + abs(z0))
    if x0 < -axis_snap:
        raise ValueError(f"z0={z0!r} lies in the open left half-plane")
    on_axis = x0 <= axis_snap
    ratio = vertical_line_ratio(pot.w, 0.0 if on_axis else x0)
    if not on_axis:
        idx = index_on_interval(ratio, -math.inf, y0)
        return CountingResult(abs(idx) + 1, idx, 0)
    re, im = ratio.den, ratio.num
    crit_sum = 0
    pole = pot.critical_point_at(z0)
    if pole is not None and pole.genericity == "generic":
        pole = None
    for cp in pot.axis_critical_points:
        re = _deflate(re, cp.y0, cp.order + (cp is pole))
        im = _deflate(im, cp.y0, cp.order)
        if cp.y0 <= y0 + axis_snap:
            crit_sum += cp.order
    idx = index_on_interval(RationalFunction(im, re), -math.inf, y0)
    if pole is not None:
        jump = one_sided_sign(im, pole.y0, -1) * one_sided_sign(re, pole.y0, -1)
        idx = HalfInteger(jump) - idx
    return CountingResult(abs(idx) + crit_sum + 1, idx, crit_sum)


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
    c_prev = w.coeffs[-2] if n >= 1 else 0.0
    vertex = -c_prev / (n * beta)
    # atan2 rather than cmath.phase: the latter overflows on subnormal parts
    a = math.atan2(beta.imag, beta.real)
    generic = abs((beta * I_POWERS[n % 4]).imag) >= SIGN_TOL * abs(beta)
    # a generic cone keeps every ray about SIGN_TOL / n or more off the
    # imaginary axis, far past rounding; a non-generic one has a ray within
    # that distance of it, which is put on the axis
    snap = 0.0 if generic else SIGN_TOL
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
