"""Predictor-corrector tracing of plane curves attached to a potential w.

Two families of curves are traced, both zero sets of harmonic functions:

* ``kind="level"``: the level curve {Im w = level} through a seed point;
* ``kind="vertical_tangent"``: the locus {Re w' = level} (level 0 is where
  level curves of Im w turn vertical).

The engine is a standard arc-length continuation: step along the unit
tangent, then pull the prediction back onto the curve with Newton steps in
the gradient direction.  Step size is controlled by the turn angle between
consecutive tangents, with two extra proximity clamps that matter in
practice: near a critical point of w and near a requested target the step
is tied to the remaining distance.  Without those clamps the turn-angle
control happily strides past arrival points, because the interesting
arrivals (vertical tangencies, critical points) happen along arcs of
bounded curvature.

Traces stay in the closed right half-plane: a step that crosses the
imaginary axis is clipped onto it and the trace ends there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import CORRECTOR_TOL, MAX_TURN_ANGLE, TRACE_RADIUS_FACTOR
from .errors import CorrectorDiverged, SeedNotOnCurve
from .landscape import Potential, counting_function
from .poly import ComplexPolynomial, as_complex_polynomial, roots

# step-size bookkeeping, all relative to local scale
_H0_FACTOR = 1e-3        # initial step: 1e-3 * (1 + |seed|)
_HMAX_FACTOR = 0.05      # cap: 0.05 * (1 + escape radius)
_HFLOOR_FACTOR = 1e-11   # below this the corrector has genuinely failed
_GROW = 1.3

# arrival detection
_CRIT_SNAP_FACTOR = 1e-4     # |u - c| below this counts as hitting c
_CONNECT_TOL_FACTOR = 1e-6   # |u - target| below this counts as arrival
_SEED_SNAP_FACTOR = 1e-2     # how far the seed may move onto the curve

_MAX_NEWTON = 12
_MAX_STEPS = 20000


@dataclass(frozen=True)
class Polyline:
    """A traced curve: ordered vertices plus how the trace ended.

    ``terminated_by`` is one of ``target``, ``critical_point``, ``y_axis``,
    ``radius``, ``closed_loop``, ``step_limit``.
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


def _make_field(w: ComplexPolynomial, kind: str, level: float):
    """Return (F, grad) with F the defining function and grad = F_x + i F_y."""
    wp = w.derivative()
    if kind == "level":
        base, dbase = w, wp

        def field(u: complex) -> float:
            return base(u).imag - level

        def grad(u: complex) -> complex:
            d = dbase(u)
            return complex(d.imag, d.real)

    elif kind == "vertical_tangent":
        base, dbase = wp, wp.derivative()

        def field(u: complex) -> float:
            return base(u).real - level

        def grad(u: complex) -> complex:
            d = dbase(u)
            return complex(d.real, -d.imag)

    else:
        raise ValueError(f"unknown curve kind {kind!r}")
    fscale = CORRECTOR_TOL * max(base.coeff_scale, 1e-300)
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
    if abs(t.real) > 1e-9:
        return -t if t.real * direction < 0 else t
    return -t if t.imag * direction < 0 else t


def _escape_radius(w: ComplexPolynomial, seed: complex, radius) -> float:
    if radius is not None and radius > 0:
        return float(radius)
    rmax = 0.0
    if w.degree >= 1:
        rmax = max((abs(r.location) for r in roots(w)), default=0.0)
    # never start outside the escape circle
    return max(TRACE_RADIUS_FACTOR * (1.0 + rmax), 1.25 * (abs(seed) + 1.0))


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
    radius=None,
    target=None,
) -> Polyline:
    field, grad, ftol = _make_field(w, kind, level)
    seed_scale = 1.0 + abs(seed)

    u0 = _correct(field, grad, ftol, seed, _SEED_SNAP_FACTOR * seed_scale)
    if u0 is None or abs(u0 - seed) > _SEED_SNAP_FACTOR * seed_scale:
        raise SeedNotOnCurve(
            f"seed {seed!r} does not lie near the requested {kind} curve"
        )
    g0 = grad(u0)
    if abs(g0) <= 1e-300:
        raise SeedNotOnCurve(f"the curve degenerates at the seed {seed!r}")

    escape = _escape_radius(w, u0, radius)
    crit = []
    wp = w.derivative()
    if wp.degree >= 1:
        for r in roots(wp):
            c, k = r.location, r.multiplicity
            snap = _CRIT_SNAP_FACTOR * (1.0 + abs(c))
            if kind == "level":
                # An arc traced at the critical level rounds the corner at a
                # standoff distance set by the corrector tolerance: the level
                # offset a distance d away is ~ |B| d^{k+1}/(k+1) with B the
                # leading local coefficient of w', so anything inside the
                # d that solves that = ftol is numerically "at" the point.
                lead = w.derivatives_at(c, k + 1)[k + 1]
                if abs(lead) > 1e-300:
                    standoff = (
                        (k + 1) * math.factorial(k) * ftol(c) / abs(lead)
                    ) ** (1.0 / (k + 1))
                    snap = max(snap, 4.0 * standoff)
            crit.append((c, snap))

    conn_tol = (
        _CONNECT_TOL_FACTOR * (1.0 + abs(target)) if target is not None else 0.0
    )

    tangent = _orient(_unit_tangent(g0), direction)
    h = _H0_FACTOR * seed_scale
    h_max = _HMAX_FACTOR * (1.0 + escape)
    h_floor = _HFLOOR_FACTOR * seed_scale

    def arrival(u):
        if target is not None and abs(u - target) <= conn_tol:
            return "target", u
        for c, snap in crit:
            if abs(u - c) <= snap:
                return "critical_point", c
        return None, None

    pts = [u0]
    terminated = "step_limit"

    for _ in range(_MAX_STEPS):
        u = pts[-1]

        # --- arrival checks on the current endpoint ---------------------
        kind_hit, snapped = arrival(u)
        if kind_hit is not None:
            if pts[-1] != snapped:
                pts.append(snapped)
            terminated = kind_hit
            break
        if abs(u) >= escape:
            terminated = "radius"
            break
        if len(pts) > 10 and abs(u - pts[0]) < min(h, _H0_FACTOR * seed_scale):
            terminated = "closed_loop"
            break

        # --- proximity clamps: approach arrivals geometrically ----------
        h_step = min(h, h_max)
        for c, snap in crit:
            h_step = min(h_step, max(0.3 * abs(u - c), 0.5 * snap))
        if target is not None:
            h_step = min(h_step, max(0.25 * abs(u - target), 0.5 * conn_tol))

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
                    if t_new.real * tangent.real + t_new.imag * tangent.imag < 0:
                        t_new = -t_new
                    dot = t_new.real * tangent.real + t_new.imag * tangent.imag
                    turn = math.acos(max(-1.0, min(1.0, dot)))
                    if turn > MAX_TURN_ANGLE:
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
            # a clip landing inside an arrival ball is that arrival
            kind_hit, snapped = arrival(clip)
            pts.append(snapped if kind_hit == "critical_point" else clip)
            terminated = kind_hit or "y_axis"
            break

        pts.append(u_new)
        tangent = t_new
        h = min(h_step * _GROW, h_max) if turn < 0.5 * MAX_TURN_ANGLE else h_step

    return Polyline(tuple(pts), kind, terminated)


def trace_level(
    w,
    seed: complex,
    kind: str = "level",
    direction: int = 1,
    level: float = 0.0,
    radius: float | None = None,
) -> Polyline:
    """Trace the {Im w = level} (or {Re w' = level}) curve through seed.

    ``direction`` picks the initial heading by the sign of Re(tangent)
    (falling back to Im when the tangent starts out vertical).  The trace
    runs until it arrives somewhere meaningful -- see Polyline.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    return _trace(
        as_complex_polynomial(w), complex(seed), kind, direction, float(level), radius
    )


def graphical_connection(w, z1, z2) -> GraphCheck:
    """Trace the level curve of Im w through z2 leftward toward z1.

    The verdict data mirrors what the classification needs: did the arc
    arrive (at z1 itself, or at the critical point z1 marks), did Re z
    decrease the whole way, and how steep did the approach get.
    """
    w = as_complex_polynomial(w)
    z1 = complex(z1)
    z2 = complex(z2)
    line = _trace(w, z2, "level", -1, w(z2).imag, target=z1)
    last = line.points[-1]
    if line.terminated_by == "target":
        connected = True
    elif line.terminated_by == "critical_point":
        snap = _CRIT_SNAP_FACTOR * (1.0 + abs(last))
        connected = abs(last - z1) <= max(2.0 * snap, _CONNECT_TOL_FACTOR * (1.0 + abs(z1)))
    else:
        connected = False

    dxs = [a.real - b.real for a, b in zip(line.points, line.points[1:])]
    min_dx = min(dxs) if dxs else 0.0
    graphical = all(d >= -1e-10 * (1.0 + abs(z2)) for d in dxs)
    slope = 0.0
    for a, b in zip(line.points, line.points[1:]):
        s = abs(b.imag - a.imag) / max(abs(b.real - a.real), 1e-300)
        slope = max(slope, min(s, 1e18))
    return GraphCheck(connected, graphical, min_dx, slope, line)


def sample_regions(w, points) -> tuple:
    """Band label of each point (constant as long as no arc is crossed)."""
    pot = Potential(as_complex_polynomial(w))
    return tuple(counting_function(pot, p).value for p in points)
