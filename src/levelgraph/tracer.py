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
rows (point, ball, pull, name, reaches_z1) checked in order: first the
target z1 of ``graphical_connection`` (ball TOL.connect (1 + |z1|), pull
0.25), where the trace ends as ``target``; then each root c of w' (ball
TOL.crit_snap (1 + |c|), widened on a level curve to the corrector's
standoff, pull 0.3), onto which it snaps as ``critical_point``, reaching z1
when |c - z1| <= max(2 TOL.crit_snap (1 + |c|), TOL.connect (1 + |z1|)).  A
trace ends by the first row whose ball holds its endpoint, and each step is
cut to max(pull |u - point|, ball / 2): without that clamp the turn-angle
control strides past arrival points, which lie on arcs of bounded curvature.

A regular target z1 also gets a landing disc, which ends the trace in one
step instead of the ~40 quarter steps of the clamp.  Let g = |w'(z1)| > 0,
t = conj w'(z1) / g the unit tangent there, q = min(1/2, |Re t| / 2),
M2(s) = sum_{k>=2} k (k-1) |c_k| (|z1| + s)^(k-2) (a bound for |w''| on
D(z1, s)) and r = min(1, q g / M2(1)).  On D(z1, r), |w'(p) - w'(z1)| <=
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
ball: the trace appends p and ends as ``target``.  Outside the disc, and
on a trace with no target, every step is as before.

Traces stay in the closed right half-plane: a step that crosses the
imaginary axis is clipped onto it and the trace ends there, by the stop
whose ball holds the clip if there is one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import config
from .errors import CorrectorDiverged, SeedNotOnCurve
from .poly import ComplexPolynomial, _horner, roots, taylor_coeffs

_GROW = 1.3
_MAX_NEWTON = 12
_MAX_STEPS = 20000


@dataclass(frozen=True)
class Polyline:
    """A traced curve: ordered vertices plus how the trace ended.

    ``terminated_by`` is one of ``target``, ``critical_point``, ``y_axis``,
    ``radius``, ``step_limit``.  No trace ends on a closed loop: both curve
    kinds are level sets of a harmonic function, which contain none.
    """

    points: tuple
    curve_kind: str
    terminated_by: str

    def to_csv(self) -> str:
        rows = ["re,im"]
        rows.extend("%.17g,%.17g" % (p.real, p.imag) for p in self.points)
        return "\n".join(rows) + "\n"


@dataclass(frozen=True)
class GraphCheck:
    """Whether the level curve through z2 runs leftward into z1 as a graph.

    ``connected`` records arrival at z1 (directly or by snapping onto the
    critical point that z1 marks).  ``graphical`` means Re z never increased
    along the way, so the arc is a graph over its x-projection.
    ``slope_sup`` is the largest |dy/dx| over the polyline segments; a huge
    value is the numerical signature of a vertical arrival.
    """

    connected: bool
    graphical: bool
    min_dx_per_step: float
    slope_sup: float
    trace: Polyline


def _make_field(base: ComplexPolynomial, level: float):
    """Return (F, grad, ftol) for F = Im base - level, grad = F_x + i F_y,
    and ftol the corrector's tolerance on |F| at a point.

    F and grad evaluate base and base' at a scalar as their __call__ does,
    by _horner from 0j, without its dispatch on the argument's type."""
    coeffs = base.coeffs
    dcoeffs = base.derivative().coeffs

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
    if abs(t.real) > config.TOL.vertical_tangent:
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


def _landing_disc(coeffs, z: complex) -> float:
    """Radius r of the landing disc about z of the level curve of Im w
    through z, w given by its ascending coeffs (see the module docstring);
    0 where w'(z) vanishes or overflows."""
    d = _horner([k * c for k, c in enumerate(coeffs)][1:], z, 0j)
    g = abs(d)
    if not 0.0 < g < math.inf:
        return 0.0
    q = min(0.5, 0.5 * abs(d.real) / g)
    m2 = _horner([k * (k - 1) * abs(c) for k, c in enumerate(coeffs)][2:], abs(z) + 1.0, 0.0)
    return 1.0 if m2 == 0.0 else min(1.0, q * g / m2)


def _clip_to_axis(field, grad, prev: complex, cur: complex) -> complex:
    """Intersect the segment prev->cur with {Re z = 0} and polish on-curve."""
    t = prev.real / (prev.real - cur.real)
    y = prev.imag + t * (cur.imag - prev.imag)
    for _ in range(6):
        den = grad(1j * y).imag
        if abs(den) <= 1e-300:
            break
        y -= field(1j * y) / den
    return complex(0.0, y)


def _trace(
    w: ComplexPolynomial,
    seed: complex,
    kind: str,
    direction: int,
    level: float,
    targets=(),
):
    """(Polyline, whether the stop the trace ended by reaches a target)."""
    # Re w' = Im(i w'), so both kinds are a level set of Im of one polynomial
    base = w if kind == "level" else 1j * w.derivative()
    field, grad, ftol = _make_field(base, level)
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
    aims = [(z, config.TOL.connect * (1.0 + abs(z)), 0.25, "target", True) for z in targets]
    stops = list(aims)
    for r in roots(w.derivative()):
        c, k = r.location, r.multiplicity
        snap = config.TOL.crit_snap * (1.0 + abs(c))
        reaches = any(abs(c - z) <= max(2.0 * snap, ball) for z, ball, *_ in aims)
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
        stops.append((c, snap, 0.3, "critical_point", reaches))

    # the landing disc of each regular target: (z1, landing radius, z1
    # corrected onto the level)
    landings = []
    for z, ball, *_ in aims:
        land = min([0.5 * _landing_disc(base.coeffs, z)]
                   + [abs(c - z) - snap for c, snap, *_ in stops[len(aims):]])
        if land > ball:
            landed = _correct(field, grad, ftol, z, ball)
            if landed is not None and landed.real >= 0.0:
                landings.append((z, land, landed))

    tangent = _orient(_unit_tangent(g0), direction)
    h = config.TOL.step_initial * seed_scale
    h_floor = config.TOL.step_floor * seed_scale
    max_turn = config.TOL.max_turn_angle

    def arrival(u):
        # a target ends the trace at u, a critical point at the point itself
        for point, ball, _, name, reaches in stops:
            if abs(u - point) <= ball:
                return name, (u if name == "target" else point), reaches
        return None, None, False

    pts = [u0]
    terminated = "step_limit"

    for _ in range(_MAX_STEPS):
        u = pts[-1]

        # --- arrival checks on the current endpoint ---------------------
        kind_hit, snapped, reached = arrival(u)
        if kind_hit is not None:
            if pts[-1] != snapped:
                pts.append(snapped)
            terminated = kind_hit
            break
        if abs(u) >= escape:
            terminated = "radius"
            break
        landed = next((p for z, land, p in landings if abs(u - z) < land
                       and ((p - u) * tangent.conjugate()).real > 0.0), None)
        if landed is not None:
            pts.append(landed)
            terminated, reached = "target", True
            break

        # --- proximity clamps: approach arrivals geometrically ----------
        h_step = min(h, h_max)
        for point, ball, pull, _, _ in stops:
            h_step = min(h_step, max(pull * abs(u - point), 0.5 * ball))

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

    return Polyline(tuple(pts), kind, terminated), reached


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
    line, connected = _trace(w, z2, "level", -1, w(z2).imag, (z1,))
    dxs = [a.real - b.real for a, b in zip(line.points, line.points[1:])]
    min_dx = min(dxs) if dxs else 0.0
    slack = config.TOL.graph_slack * (1.0 + abs(z2))
    graphical = all(d >= -slack for d in dxs)
    slope = 0.0
    for a, b in zip(line.points, line.points[1:]):
        s = abs(b.imag - a.imag) / max(abs(b.real - a.real), 1e-300)
        slope = max(slope, min(s, 1e18))
    return GraphCheck(connected, graphical, min_dx, slope, line)
