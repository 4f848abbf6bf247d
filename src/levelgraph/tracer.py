"""Predictor-corrector tracing of plane curves attached to a potential w.

Two families of curves are traced, both level sets of Im of a polynomial:

* ``kind="level"``: the level curve {Im w = level} through a seed point;
* ``kind="vertical_tangent"``: the locus {Re w' = level} (level 0 is where
  level curves of Im w turn vertical).  Since Re w' = Im(i w'), this is the
  level curve of Im(i w'), and one field serves both kinds.

Im of a nonconstant polynomial is harmonic, and by the maximum principle no
level set of a harmonic function contains a closed curve (the function
would be constant inside it), so a trace never closes on itself.

The engine is a standard arc-length continuation: step along the unit
tangent, then pull the prediction back onto the curve with Newton steps in
the gradient direction.  Step size is controlled by the turn angle between
consecutive tangents.  Where a trace ends is decided by one table of stops,
rows (point, ball, pull, gap, name, reaches_z1) checked in order: first
the target z1 of ``graphical_connection`` (ball TOL.connect (1 + |z1|),
pull 0.25, gap 0), where the trace ends as ``target``; then each root c of
w' (ball TOL.crit_snap (1 + |c|), widened on a level curve to the
corrector's standoff, pull 0.3, gap 0), onto which it snaps as
``critical_point``, reaching z1 when |c - z1| <= max(2 TOL.crit_snap
(1 + |c|), TOL.connect (1 + |z1|)).  A trace ends by the first row whose
ball holds its endpoint, and each step is cut to max(pull (|u - point| -
gap), ball / 2): without that clamp the turn-angle control strides past
arrival points, which lie on arcs of bounded curvature.  Each step reads
the table once: one distance |u - point| per row serves both the arrival
test and the clamp.  A target with a landing disc (below) takes pull
_LAND_PULL and gap its ball instead.

A regular target z1 also gets a landing disc, which ends the trace in one
step from the first point inside it, where quarter steps from its edge into
the target ball would take log(landing radius / ball) / log(4/3), about 40,
more.  Let g = |w'(z1)| > 0,
t = conj w'(z1) / g the unit tangent there, q = min(1/2, |Re t| / 2),
M2(s) = sum_{k>=2} k (k-1) |c_k| (|z1| + s)^(k-2) (a bound for |w''| on
D(z1, s)) and r the largest radius r <= 1 with r M2(r) <= q g.  Since
r M2(r) rises with r, a bisection finds r, starting from q g / M2(1), which
fits.  Where q = 0 (a vertical tangent) there is no disc, r = 0, even when
M2 = 0: the argument below needs |Re t| > 0.  Nor is there one where
q g / M2(1) is below the least normal double: the test r M2(r) <= q g
would then compare subnormals, whose rounding is as coarse as q g
itself.  On D(z1, r), |w'(p) - w'(z1)| <=
M2(r) r <= q g.  The gradient of Im w is i conj w', so its component along
n, the unit gradient at z1, is at least (1 - q) g > 0 on the disc: Im w -
level strictly increases along every chord parallel to n, and the level
set inside the disc meets each such chord once, a single arc through the
disc.  Along the arc the gradient turns less than arcsin q from n, so the
arc's tangent stays within arcsin q of t; moving from one arc point to
another it turns at most 60 degrees, so the distance to any arc point is
monotone on either side of it, and |Re| of the tangent stays above
|Re t| - 2 sin(arcsin(q) / 2) > |Re t| / 3 > 0, so x is monotone along the
arc.  The landing radius is min(r / 2, |c - z1| - ball for each critical
row), so no critical ball meets it, and it is used only when it exceeds
the target ball.  z1 is then corrected onto the level once, moving at most
the target ball, to a point p; there is no landing when that fails (z1 off
the level) or when Re p < 0, where the arc would cross the imaginary axis
first.  A trace point inside the landing radius whose tangent heads toward
p lies on the disc's one arc and would run monotonically into the target
ball: the trace appends p and ends as ``target``.

Since the landing ends the trace, the clamp toward a landed target need
only keep each step short of p, not a quarter of the distance.  Write aim
for the target ball.  p lies within aim of z1, so the arc from a trace
point u to p is at least |u - z1| - aim long.  An accepted step h turns the
tangent by at most theta = TOL.max_turn_angle: near u, take the arc as a
graph y(s) over the tangent line at u with |y'| <= tan theta.  The
corrector moves from u + h t along gradients, within theta of the normal,
by some m with m cos theta <= |y(s)| <= s tan theta at the foot s it lands
on, so s <= h + m sin theta <= h + s tan^2 theta, and the arc up to s is
at most s / cos theta <= h cos theta / cos 2 theta = (1 + eps) h long
(eps = 0.064 at theta = 0.2).  A step cut to lambda (|u - z1| - aim) with
lambda (1 + eps) < 1 therefore stops short of p, and the landing test ends
the trace at the first point inside the disc.  _LAND_PULL = lambda = 0.9
gives lambda (1 + eps) = 0.958, and keeps lambda (1 + eps) < 1 for every
theta up to 0.25.  The floor aim / 2 of the clamp binds only where
|u - z1| < aim (1 + 1 / (2 lambda)) = 1.56 aim, so never before a landing
radius wider than that.  Each step toward the disc then cuts |u - z1| - aim
about tenfold, where the quarter pull cut it by a quarter: from |z2 - z1|
of order 1 to a disc of radius 0.06, two steps instead of ten.

The same disc launches every trace, taken about the corrected seed u0 for
the polynomial whose level set is traced (w, or i w' on the vertical-tangent
kind): half of it holds one arc, the seed's own, along which the tangent
stays within arcsin q of the tangent at u0.  Both discs read one list of
M2's coefficients, and the seed's reads w'(u0) from the gradient there,
which the trace has formed already.  So the first step is
max(TOL.step_initial (1 + |seed|), min(h_max, r(u0) / 2)), cut by the stop
clamps like every step; a seed with no disc starts at TOL.step_initial.

Traces stay in the closed right half-plane: a step that crosses the
imaginary axis is clipped onto it and the trace ends there, by the stop
whose ball holds the clip if there is one.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from . import config
from .errors import CorrectorDiverged, SeedNotOnCurve
from .poly import ComplexPolynomial, _horner, roots, taylor_coeffs

__all__ = ["GraphCheck", "Polyline", "graphical_connection", "trace_level"]

_GROW = 1.3
# the pull toward a landed target, lambda in the module docstring
_LAND_PULL = 0.9
_MAX_NEWTON = 12
_MAX_STEPS = 20000
# the landing radius is bisected until the largest r that fits lies within
# this factor above it, so r (1 + 2^-8) no longer fits
_DISC_WIDTH = 1.0 + 2.0**-9


@dataclass(frozen=True)
class Polyline:
    """A traced curve: ordered vertices plus how the trace ended.

    Which curve it is, level or vertical tangent, is the caller's own
    ``kind`` argument and is not repeated here.  ``terminated_by`` is one
    of ``target``, ``critical_point``, ``y_axis``, ``radius``,
    ``step_limit``.  No trace ends on a closed loop: both curve kinds are
    level sets of a harmonic function, which contain none.
    """

    points: tuple
    terminated_by: str


@dataclass(frozen=True)
class GraphCheck:
    """Whether the level curve through z2 runs leftward into z1 as a graph.

    ``connected`` records arrival at z1 (directly or by snapping onto the
    critical point that z1 marks).  ``graphical`` means Re z never increased
    along the way, so the arc is a graph over its x-projection.
    ``slope_sup`` is the largest |dy/dx| over the polyline segments; a huge
    value is the numerical signature of a vertical arrival.  On a trace that
    is not connected and graphical it measures the sampling, not the curve:
    a change of step size alone can move it by orders of magnitude.
    """

    connected: bool
    graphical: bool
    slope_sup: float
    trace: Polyline


def _make_field(base: ComplexPolynomial, dcoeffs: tuple, level: float):
    """(F, grad, ftol) for F = Im base - level, grad = F_x + i F_y and ftol
    the corrector's tolerance on |F| at a point, from dcoeffs = base'.

    F and grad evaluate base and base' at a scalar as their __call__ does,
    by _horner from 0j, without its dispatch on the argument's type."""
    coeffs = base.coeffs

    def field(u: complex) -> float:
        return _horner(coeffs, complex(u), 0j).imag - level

    def grad(u: complex) -> complex:
        # Cauchy-Riemann: grad Im base = (Im base', Re base')
        d = _horner(dcoeffs, complex(u), 0j)
        return complex(d.imag, d.real)

    fscale = config.TOL.corrector * max(base.coeff_scale, 1e-300)
    deg = max(base.degree, 1)

    def ftol(u: complex) -> float:
        return fscale * (1.0 + abs(u)) ** deg

    return field, grad, ftol


def _correct(field, grad, ftol, u: complex, max_move: float):
    """Newton-project u onto {F = 0}; None when it fails to settle."""
    start = u
    for _ in range(_MAX_NEWTON):
        f = field(u)
        if abs(f) <= ftol(u):
            return u
        g = grad(u)
        g2 = g.real * g.real + g.imag * g.imag
        if g2 <= 1e-300:
            return None
        u = u - f * g / g2
        if abs(u - start) > max_move:
            return None
    return u if abs(field(u)) <= ftol(u) else None


def _unit_tangent(g: complex) -> complex:
    # rotate the gradient by -90 degrees
    return complex(g.imag, -g.real) / abs(g)


def _orient(t: complex, direction: int) -> complex:
    # a unit t is vertical when its real part is zero relative to its length
    if abs(t.real) > config.TOL.sign:
        return -t if t.real * direction < 0 else t
    return -t if t.imag * direction < 0 else t


def _root_bound(w: ComplexPolynomial) -> float:
    """Fujiwara's bound (Tohoku Math. J. 10, 1916): every root of w lies within
    2 max(|c_{n-1}/c_n|, |c_{n-2}/c_n|^(1/2), ..., |c_0/(2 c_n)|^(1/n))."""
    n = w.degree
    lead = abs(w.coeffs[-1])
    return 2.0 * max(
        (abs(c) / (2.0 * lead if k == 0 else lead)) ** (1.0 / (n - k))
        for k, c in enumerate(w.coeffs[:-1])
    )


def _escape_radius(w: ComplexPolynomial, seed: complex) -> float:
    # never start outside the escape circle
    return max(config.TOL.trace_radius_factor * (1.0 + _root_bound(w)), 1.25 * (abs(seed) + 1.0))


def _majorant(coeffs) -> list:
    """The ascending coefficients k (k - 1) |c_k|, k >= 2, of M2 for w given
    by its ascending coeffs: M2(s) = sum k (k - 1) |c_k| s^(k-2) at
    s = |z| + r bounds |w''| on D(z, r)."""
    return [k * (k - 1) * abs(c) for k, c in enumerate(coeffs)][2:]


def _landing_disc(b: list, d: complex, z: complex) -> float:
    """Radius r of the landing disc about z of the level curve of Im w
    through z, given M2's coefficients b (_majorant) and d = w'(z): the
    largest r <= 1 with r M2(r) <= q |w'(z)| (see the module docstring).  0
    where w'(z) vanishes or overflows, where the tangent is vertical
    (q = 0), or where q g / M2(1) is below the least normal double."""
    g = abs(d)
    if not 0.0 < g < math.inf:
        return 0.0
    qg = min(0.5, 0.5 * abs(d.real) / g) * g
    if qg == 0.0:
        return 0.0

    def fits(r):
        return r * _horner(b, abs(z) + r, 0.0) <= qg

    if fits(1.0):
        return 1.0
    # r M2(r) rises with r, and M2(r) <= M2(1): q g / M2(1) fits, 1 does not
    lo, hi = qg / _horner(b, abs(z) + 1.0, 0.0), 1.0
    if lo < sys.float_info.min:
        return 0.0
    while hi > lo * _DISC_WIDTH:
        mid = math.sqrt(lo) * math.sqrt(hi)
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def _clip_to_axis(field, grad, prev: complex, cur: complex) -> complex:
    """Intersect the segment prev->cur with {Re z = 0} and polish on-curve.

    When F changes sign on the axis over the segment's y-range [lo, hi],
    the crossing lies in that range, and a Newton step that leaves it heads
    for another crossing of the curve: the polish then bisects [lo, hi]
    instead.  Otherwise the crossing lies just outside the range (the curve
    turns there) and Newton finds it unconstrained."""
    t = prev.real / (prev.real - cur.real)
    y = prev.imag + t * (cur.imag - prev.imag)
    lo, hi = sorted((prev.imag, cur.imag))
    below = field(1j * lo) < 0.0
    bracketed = below != (field(1j * hi) < 0.0)
    for _ in range(6):
        den = grad(1j * y).imag
        if abs(den) <= 1e-300:
            break
        step = y - field(1j * y) / den
        if bracketed and not lo <= step <= hi:
            while lo < (y := 0.5 * (lo + hi)) < hi:
                lo, hi = (y, hi) if (field(1j * y) < 0.0) == below else (lo, y)
            break
        y = step
    return complex(0.0, y)


def _trace(
    w: ComplexPolynomial,
    seed: complex,
    kind: str,
    direction: int,
    level: float,
    target: complex | None = None,
):
    """(Polyline, whether the stop the trace ended by reaches the target)."""
    # Re w' = Im(i w'), so both kinds are a level set of Im of one polynomial
    wp = w.derivative()
    base = w if kind == "level" else ComplexPolynomial([c * 1j for c in wp.coeffs])
    dcoeffs = (wp if kind == "level" else base.derivative()).coeffs
    field, grad, ftol = _make_field(base, dcoeffs, level)
    try:
        finite = cmath.isfinite(base(seed)) and math.isfinite(ftol(seed))
    except OverflowError:
        finite = False
    if not finite:
        raise SeedNotOnCurve(
            f"the {kind} field or its tolerance overflows a double at the seed {seed!r}"
        )
    seed_scale = 1.0 + abs(seed)

    u0 = _correct(field, grad, ftol, seed, config.TOL.seed_snap * seed_scale)
    if u0 is None:
        raise SeedNotOnCurve(
            f"seed {seed!r} does not lie near the requested {kind} curve"
        )
    g0 = grad(u0)
    if abs(g0) <= 1e-300:
        raise SeedNotOnCurve(f"the curve degenerates at the seed {seed!r}")

    escape = _escape_radius(w, u0)
    h_max = config.TOL.step_max * (1.0 + escape)
    # a step from inside the escape circle moves at most h_max, and its
    # corrector at most 4 h_max more, so ftol is never needed farther out
    far = escape + 5.0 * h_max
    try:
        reachable = math.isfinite(ftol(far))
    except OverflowError:
        reachable = False
    if not reachable:
        raise ValueError(
            f"trace radius {escape!r} is too large: the {kind} corrector tolerance "
            f"overflows a double at distance {far!r} from the origin"
        )
    # the table of stops, in the order they are checked
    stops = []
    if target is not None:
        aim = config.TOL.connect * (1.0 + abs(target))
        stops.append((target, aim, 0.25, 0.0, "target", True))
    for c, k, _ in roots(wp)[0]:
        snap = config.TOL.crit_snap * (1.0 + abs(c))
        reaches = target is not None and abs(c - target) <= max(2.0 * snap, aim)
        if kind == "level":
            # An arc traced at the critical level rounds the corner at a
            # standoff distance set by the corrector tolerance: the level
            # offset a distance d away is ~ |B| d^{k+1}, B the order-(k+1)
            # Taylor coefficient of w there, so anything inside the d
            # that solves that = ftol is numerically "at" the point.
            lead = taylor_coeffs(w.coeffs, c, k + 2)[k + 1]
            if abs(lead) > 1e-300:
                standoff = (ftol(c) / abs(lead)) ** (1.0 / (k + 1))
                snap = max(snap, 4.0 * standoff)
        stops.append((c, snap, 0.3, 0.0, "critical_point", reaches))

    # the landing disc of a regular target: its radius land (0 for none)
    # and z1 corrected onto the level; both discs read one majorant
    majorant = _majorant(base.coeffs)
    land = 0.0
    if target is not None:
        disc = _landing_disc(majorant, _horner(dcoeffs, target, 0j), target)
        radius = min([0.5 * disc]
                     + [abs(c - target) - snap for c, snap, *_ in stops[1:]])
        if radius > aim:
            landing = _correct(field, grad, ftol, target, aim)
            if landing is not None and landing.real >= 0.0:
                land = radius
                # the landing ends the trace: close in short of p only
                stops[0] = (target, aim, _LAND_PULL, aim, "target", True)

    tangent = _orient(_unit_tangent(g0), direction)
    # the launch: half the disc about u0 holds one arc, the seed's own;
    # g0 = grad(u0) is w'(u0) with its parts swapped
    h = max(config.TOL.step_initial * seed_scale,
            min(h_max, 0.5 * _landing_disc(majorant, complex(g0.imag, g0.real), u0)))
    h_floor = config.TOL.step_floor * seed_scale
    max_turn = config.TOL.max_turn_angle

    def arrival(u):
        # a target ends the trace at u, a critical point at the point itself
        for point, ball, _, _, name, reaches in stops:
            if abs(u - point) <= ball:
                return name, (u if name == "target" else point), reaches
        return None, None, False

    pts = [u0]
    terminated, reached = "step_limit", False

    for _ in range(_MAX_STEPS):
        u = pts[-1]

        # --- one pass over the stops: the arrival check, else the
        # proximity clamp (approach arrivals geometrically), both from one
        # |u - point| per row ---------------------------------------------
        h_step = min(h, h_max)
        for point, ball, pull, gap, name, reaches in stops:
            dist = abs(u - point)
            if dist <= ball:
                break
            h_step = min(h_step, max(pull * (dist - gap), 0.5 * ball))
        else:
            name = None
        if name is not None:
            # a target ends the trace at u, a critical point at the point itself
            if name != "target" and u != point:
                pts.append(point)
            terminated, reached = name, reaches
            break
        if abs(u) >= escape:
            terminated = "radius"
            break
        if land and abs(u - target) < land and ((landing - u) * tangent.conjugate()).real > 0.0:
            pts.append(landing)
            terminated, reached = "target", True
            break

        # --- predictor / corrector with turn-angle control ---------------
        while True:
            u_new = _correct(
                field, grad, ftol, u + h_step * tangent, 4.0 * h_step
            )
            t_new = None
            if u_new is not None:
                g = grad(u_new)
                if abs(g) > 1e-300:
                    t_new = _unit_tangent(g)
                    dot = t_new.real * tangent.real + t_new.imag * tangent.imag
                    if dot < 0:
                        t_new, dot = -t_new, -dot
                    turn = math.acos(max(-1.0, min(1.0, dot)))
                    if turn > max_turn:
                        t_new = None
            if t_new is not None:
                break
            h_step *= 0.5
            if h_step < h_floor:
                raise CorrectorDiverged(
                    f"continuation stalled near {u!r} (step below {h_floor:g})"
                )

        if u_new.real < 0.0 <= u.real:
            clip = _clip_to_axis(field, grad, u, u_new)
            # a clip landing inside a stop's ball is that stop
            kind_hit, snapped, reached = arrival(clip)
            pts.append(snapped if kind_hit else clip)
            terminated = kind_hit or "y_axis"
            break

        pts.append(u_new)
        tangent = t_new
        h = min(h_step * _GROW, h_max) if turn < 0.5 * max_turn else h_step

    return Polyline(tuple(pts), terminated), reached


def trace_level(
    w: ComplexPolynomial,
    seed: complex,
    kind: str = "level",
    direction: int = 1,
    level: float = 0.0,
) -> Polyline:
    """Trace the {Im w = level} (or {Re w' = level}) curve through seed.

    ``direction`` picks the initial heading by the sign of Re(tangent)
    (falling back to Im when the tangent starts out vertical).  The trace
    runs until it arrives somewhere meaningful -- see Polyline; the escape
    radius is derived from Fujiwara's bound on the roots of w.  Raises
    ValueError when that radius is so large that the corrector tolerance
    would overflow a double within one step past it.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    if kind not in ("level", "vertical_tangent"):
        raise ValueError(f"unknown curve kind {kind!r}")
    return _trace(w, complex(seed), kind, direction, float(level))[0]


def graphical_connection(w: ComplexPolynomial, z1, z2) -> GraphCheck:
    """Trace the level curve of Im w through z2 leftward toward z1.

    The verdict data mirrors what the classification needs: did the arc
    arrive (at z1 itself, or at the critical point z1 marks), did Re z
    decrease the whole way, and how steep did the approach get.
    """
    z1 = complex(z1)
    z2 = complex(z2)
    line, connected = _trace(w, z2, "level", -1, w(z2).imag, z1)
    slack = config.TOL.graph_slack * (1.0 + abs(z2))
    graphical, slope = True, 0.0
    for a, b in zip(line.points, line.points[1:]):
        dx = a.real - b.real
        graphical &= dx >= -slack
        slope = max(slope, min(abs(b.imag - a.imag) / max(abs(dx), 1e-300), 1e18))
    return GraphCheck(connected, graphical, slope, line)
