"""Existence decision for the degenerate line-bundle equation on X_{r,m}.

The input is a pair of cohomology-class coordinates (xi1, xi2) and (b, q)
together with the fibration exponents m >= 1 and r >= 0.  From these we build
the derivative profile

    w'(z) = e^{-i theta_hat} (xi + z)^m z^r,       xi = xi1 + i xi2,

where theta_hat is chosen so that z2 = b + iq and 0 sit on the same level set
of Im(w).  Existence of a solution then reduces to comparing two Cauchy
indices -- one along the imaginary axis, one along the vertical ray above z2
-- or, equivalently, to inequalities between the lifted phases (grades) of
three charge integrals.  ``analyze`` computes both forms and checks that
they agree.

The roots of w' are known exactly (-xi and 0), so each index is a phase
sum.  The charge paths of Z_P and Z_Dinf keep every factor in the right
half-plane, so each lift is pi less a :func:`levelgraph.cauchy.phase_climb`
(the sum the band labels use too) and rises strictly, and an index is the
number of lines through the total charge Z_X that the lift still crosses.
The exact frame fixes the top line both paths cross, so each count is a
floor formula in the lift's start alone.  Both starts are read alike: a
start TOL.sign/pi or more from every line has its count certified against
a stated rounding bound, and a nearer one lies on the line it snaps to.  On
a line, the Z_P start makes the input non-generic, and the Z_Dinf start
puts z2 on a wall, Re w'(z2) = 0.  No index takes an exact chain.

A non-generic input's Z_P path starts on a line of Z_X, up to rounding.
The axis index reads it by rotation: g(z) = e^{-i theta_hat} i^r
(xi + z)^m, which is w' with z^r divided out, turned by its start's small
angle, starts on that line, and its lift m arg(xi + it) + const rises
strictly for every xi1 > 0.  So the index counts the lines from the start's
line to the top one, with no certificate and no chain, however thin the
sector xi1/|xi|.

On a wall, the ray's index is the half crossing of the line its start
snaps to plus the lines above it: the mean of the counts just below and
just above the wall.

``analyze`` builds no polynomial object and forms each shared quantity
once.  P is one coefficient list, walked once for P(z2) and its rounding
scale (``poly._horner_bound``), and once more, each coefficient turned by
e^{-i theta_hat} as it is read, for the level check.  w = e^{-i theta_hat}
P is built as a list only where ``build_polynomials`` returns it.  Z_Dinf
and the sector test's w'(z2) share the powers z2^r and (z2 + xi)^m, read
from the factors as the lifts read them.  Its one record is the frozen
``ChargeReport`` it returns: ``compute_lifts`` hands its decisions over as
``LiftData``, a named tuple built positionally.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import config
from .cauchy import CLIMB_ROUNDING, HalfInteger, line_crossings, phase_climb
from .errors import (
    BoundaryPointUnreachable,
    CrossCheckFailure,
    LevelMismatch,
    LiftInconsistency,
    ZeroTotalCharge,
)
from .poly import I_POWERS, _horner_bound, root_product

__all__ = [
    "CalabiInput",
    "ChargeReport",
    "LiftData",
    "build_polynomials",
    "compute_charges",
    "compute_lifts",
    "decide_existence",
    "analyze",
]

_NORMALIZATION_BASE = (
    "charges reported up to the positive volume normalization "
    "fixing the top intersection number to one"
)


@dataclass(frozen=True)
class CalabiInput:
    """Class data on X_{r,m}: exponents and the two class coordinates.

    xi1 > 0 and b > 0 are the positivity conditions on the base class; xi2
    and q are the twisting coordinates and may take any sign.
    """

    m: int
    r: int
    xi1: float
    xi2: float
    b: float
    q: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.xi1, self.xi2, self.b, self.q))):
            raise ValueError(
                f"xi1, xi2, b and q must be finite, got {self.xi1!r}, {self.xi2!r}, "
                f"{self.b!r}, {self.q!r}"
            )
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError("m must be a positive integer")
        if not isinstance(self.r, int) or self.r < 0:
            raise ValueError("r must be a nonnegative integer")
        if not self.xi1 > 0:
            raise ValueError("xi1 must be positive")
        if not self.b > 0:
            raise ValueError("b must be positive")
        # xi = xi1 + i xi2 and z2 = b + iq, formed once: every step reads them
        object.__setattr__(self, "xi", complex(self.xi1, self.xi2))
        object.__setattr__(self, "z2", complex(self.b, self.q))


class LiftData(NamedTuple):
    """What compute_lifts decides; analyze copies all but the last field.

    A named tuple rather than a frozen dataclass: it only carries the
    lifts into the ChargeReport, and a tuple is built several times faster.
    line_margin is the smallest distance, in units of pi, from a certified
    crossing count's start to a line of Z_X.  It leaves out a start that
    lies on a line (a non-generic Z_P path, or z2 on a wall), and is inf
    when both do.
    """

    theta_top: float
    Theta_lift: float
    phi_X: float
    phi_Dinf: float
    phi_P: float
    ind_R0: HalfInteger
    ind_Rb: HalfInteger
    genericity: str
    line_margin: float


@dataclass(frozen=True)
class ChargeReport:
    theta_hat: float
    theta_top: float
    Theta_lift: float
    Z_X: complex
    Z_Dinf: complex
    Z_P: complex
    phi_X: float
    phi_Dinf: float
    phi_P: float
    ind_R0: HalfInteger
    ind_Rb: HalfInteger
    genericity: str
    verdict: str
    normalization_note: str


# ---------------------------------------------------------------------------
# construction


def _potential(inp: CalabiInput):
    """(P, zeta, theta_hat, rotation) after P's checks: P, with P' =
    (xi+z)^m z^r and P(0) = 0, ascending, zeta = P(z2) and rotation =
    e^{-i theta_hat}.

    theta_hat is the principal argument of zeta in (-pi, pi], which makes
    Im(w(z2)) = 0 for w = rotation P: the boundary point z2 and the origin
    share a level set.  The total charge vanishes when |zeta| is below
    TOL.zero_charge times sum |c_k| |z2|^k, the a priori scale of zeta's
    Horner rounding (Higham, Accuracy and Stability of Numerical
    Algorithms, section 5.1), which is homogeneous in (xi, z2) as |zeta| is.
    One poly._horner_bound pass forms zeta and its scale; the level check
    takes a pass of its own over the rotated coefficients, with no list of
    them.
    """
    # P' = z^r (xi + z)^m: P is r + 1 zeros, then the coefficients of
    # (xi + z)^m, each divided by the power of z it takes in P
    r = inp.r
    P = [0j] * (r + 1) + [c / (k + r + 1) for k, c in enumerate(root_product([-inp.xi] * inp.m))]
    z2 = inp.z2
    zeta, scale = _horner_bound(P, z2)
    if not (scale < math.inf and cmath.isfinite(zeta)):
        try:
            size = abs(z2)
        except OverflowError:  # |z2| overflows, though b and q are finite
            size = math.inf
        raise ValueError(
            f"the class data overflow a double: P(z2) = {zeta!r} for P of degree "
            f"{len(P) - 1} at |z2| = {size!r}"
        )
    if abs(zeta) < config.TOL.zero_charge * scale:
        raise ZeroTotalCharge(
            f"P({z2}) = {zeta}: total charge vanishes, phase angle undefined"
        )
    theta_hat = math.atan2(zeta.imag, zeta.real)
    if theta_hat == -math.pi:
        theta_hat = math.pi
    rotation = cmath.exp(-1j * theta_hat)
    wz2 = 0j
    for c in reversed(P):
        wz2 = wz2 * z2 + c * rotation
    threshold = config.TOL.sign * abs(wz2)
    if abs(wz2.imag) > threshold:
        raise LevelMismatch(
            wz2.imag, threshold,
            f"Im(w(z2)) = {wz2.imag} is not zero relative to |w(z2)| = {abs(wz2)}",
        )
    return P, zeta, theta_hat, rotation


def build_polynomials(inp: CalabiInput):
    """(w, zeta, theta_hat, rotation): the ascending coefficients
    [c rotation for c in P] of w, with P' = (xi+z)^m z^r and P(0) = 0,
    zeta = P(z2) and rotation = e^{-i theta_hat}, which compute_charges takes.

    P's checks and theta_hat are those of analyze (see _potential).
    """
    P, zeta, theta_hat, rotation = _potential(inp)
    return [c * rotation for c in P], zeta, theta_hat, rotation


def compute_charges(inp: CalabiInput, zeta: complex, rotation: complex):
    """(Z_X, Z_Dinf, Z_P, wp_z2) from zeta = P(z2) and rotation =
    e^{-i theta_hat}, as build_polynomials returns them: the charges, each
    up to the shared positive volume factor, and w'(z2) = rotation z2^r
    (z2 + xi)^m, read from the factors that Z_Dinf shares."""
    m, r, xi, z2 = inp.m, inp.r, inp.xi, inp.z2
    z2_r, shifted_m = z2**r, (z2 + xi) ** m
    Z_X = -I_POWERS[-(m + r + 1) % 4] * zeta
    Z_Dinf = -I_POWERS[-(m + r) % 4] * z2_r * shifted_m
    Z_P = -I_POWERS[-m % 4] * xi**m
    return Z_X, Z_Dinf, Z_P, rotation * (z2_r * shifted_m)


# ---------------------------------------------------------------------------
# crossing counts of the charge paths' lifts


def _z_x_line(theta_hat: float, n: int):
    """(theta_top, line_angle, bound) for w' of degree n - 1.

    theta_top = theta_hat + ell pi is the representative of theta_hat mod
    pi in [lo, lo + pi), lo = n pi/2 - pi, with ell decided in exact
    arithmetic.  line_angle = theta_top - lo is the angle of the Z_X line
    in the lift frame, and its exact value lies in [0, pi); its lines are
    {line_angle + k pi}.

    A path lift (see compute_lifts) rises strictly to pi, crossing each
    line below pi once, counterclockwise.  In units of pi from line 0, it
    starts at lo = (lift - line_angle)/pi and ends on the asymptote
    hi = 1 - line_angle/pi, which lies in (0, 1]: hi = 1 only for
    theta_hat == 0.0 with n even, where line 1 is reached only at t = inf
    and is not crossed.  So the top line a path crosses is always 0, its
    count is -floor(lo), and only lo's distance from a line needs proof.
    A certified count is the index of w' for the computed theta_hat.

    bound = CLIMB_ROUNDING (n + |ell|) = 16u (n + |ell|), u = eps/2, in
    units of pi, bounds how far rounding moves the distance from a lift to
    its nearest line.  A lift is pi - climb over at most n - 1 roots: to
    phase_climb's bound, math.pi adds 1.1u and the subtraction
    u max(pi, climb), so with climb <= (n - 1) pi it is within
    (1.1 + 17.1 (n - 1)) u < 17 n u.  theta_top (float pi times ell, then
    the sum) and lo add (7.5 |ell| + 3.8 n + 7.5) u, forming
    (lift - line_angle)/pi 2.4 n u in units of pi.  The total is below
    12u (n + |ell|) = 6 eps (n + |ell|) in units of pi, since n >= 2.
    """
    # ell = ceil((lo - theta_hat)/pi) = (n - 1 - floor(2 theta_hat/pi)) // 2
    # for theta_hat in (-pi, pi).  math.pi/2 is below pi/2 and no double lies
    # between them, so these comparisons are the exact ones with pi/2
    quadrant = (theta_hat > math.pi / 2) - (theta_hat < 0.0) - (theta_hat < -math.pi / 2)
    ell = (n - 1 - quadrant) // 2
    theta_top = theta_hat + ell * math.pi
    line_angle = theta_top - (n * math.pi / 2 - math.pi)
    return theta_top, line_angle, CLIMB_ROUNDING * (n + abs(ell))


def _count_from(lo: float, bound: float):
    """(count, on_line, margin) of a lift that starts lo lines above line 0.

    count is the number of lines in (lo, 0] the lift crosses, -floor(lo).
    A start TOL.sign/pi or more from every line has floor(lo) certified by
    line_crossings, and margin is that distance.  A nearer start is on the
    line round(lo), counts from it, and has margin inf.
    """
    lo_floor, margin = line_crossings(lo, bound)
    if lo_floor is not None and margin >= config.TOL.sign / math.pi:
        return -lo_floor, False, margin
    return -round(lo), True, math.inf


def compute_lifts(inp: CalabiInput, theta_hat: float, Z_X, Z_Dinf, wp_z2) -> LiftData:
    """Lifted phases, Cauchy indices, and the genericity flag.

    Z_X, Z_Dinf and wp_z2 = w'(z2) come from compute_charges.  The
    closed-form lifts of the Z_Dinf and Z_P paths decide both indices as
    counts of crossings of the Z_X line up to its top line 0 (see
    _z_x_line).
    Each counts from its lift's start (_count_from).  A Z_P start on its
    line is non-generic; a Z_Dinf start on its line puts z2 on a wall, and
    ind_Rb takes the half crossing of that line.  Off the wall, class data
    with Re w'(z2) <= TOL.sign |w'(z2)| raise BoundaryPointUnreachable, and
    the Z_Dinf path's end grade must agree with phi_X + delta/pi, otherwise
    LiftInconsistency is raised.
    """
    m, r, neg_xi = inp.m, inp.r, -inp.xi
    n = m + r + 1
    theta_top, line_angle, bound = _z_x_line(theta_hat, n)

    # explicit paths from each charge out to the shared negative-real-axis
    # asymptote: Z_P(t) = -(-i)^m (xi + it)^m from t = 0, and
    # Z_Dinf(t) = -(-i)^{m+r} (b + it)^r (xi + b + it)^m from t = q, each
    # lifted down from pi at t = inf; _potential keeps the distances
    # to the roots finite, so phase_climb returns
    lift_P = math.pi - phase_climb(((neg_xi, m, 0.0),), 0.0, 0.0)[0]
    lift_D = math.pi - phase_climb(((0j, r, 0.0), (neg_xi, m, 0.0)), inp.b, inp.q)[0]
    phi_P = lift_P / math.pi

    # index along the vertical ray above z2.  Z_Dinf/Z_X = i w'(z2)/w(z2)
    # with w(z2) > 0, so the sine of the Z_Dinf start's angle from its line
    # is |Re w'(z2)|/|w'(z2)|: a start on its line k0 puts z2 on a wall, and
    # the index 1/2 - k0 counts the half crossing of k0
    count, on_wall, margin_D = _count_from((lift_D - line_angle) / math.pi, bound)
    ind_Rb = HalfInteger(2 * count + on_wall)

    # along a graph over [0, b] on the zero level, Re w rises strictly from
    # w(0) = 0 to w(z2) = |P(z2)| > 0, so Re w'(z2) > 0 is necessary.  It is
    # also the sector condition 0 < delta < pi below.  On the wall it fails
    # to TOL.sign, and the wall verdict is reported instead.  w'(z2) is read
    # from its factors, as the lifts read it: the expanded w' loses the last
    # bits of a small w'(z2) near -xi, and Im(Z_Dinf conj Z_X), of the same
    # sign, overflows far sooner
    threshold = config.TOL.sign * abs(wp_z2)
    if not on_wall and not wp_z2.real > threshold:
        raise BoundaryPointUnreachable(
            wp_z2.real, threshold,
            f"Re w'(z2) = {wp_z2.real:.17g} is not above TOL.sign * |w'(z2)| = "
            f"{threshold:.3g}: no graph over [0, b] ends at z2",
        )

    # genericity: is Z_P(0) on the Z_X line (does the zero level's tangent at
    # the origin contain the vertical)?  A non-generic start lies within
    # TOL.sign/pi of its line k0; turned by that small angle, g starts on
    # line k0, and its lift m arg(xi + it) + const rises strictly for every
    # xi1 > 0, so the index is the signed count 0 - k0 of lines from k0 to
    # the top line
    count, on_line, margin_P = _count_from((lift_P - line_angle) / math.pi, bound)
    ind_R0 = HalfInteger.from_int(count)

    Theta_lift = theta_top - float(ind_Rb) * math.pi
    phi_X = (Theta_lift - n * math.pi / 2 + math.pi) / math.pi
    # atan2 rather than cmath.phase, which raises OverflowError on an angle
    # that underflows
    delta = math.atan2(Z_Dinf.imag, Z_Dinf.real) - math.atan2(Z_X.imag, Z_X.real)
    delta %= 2.0 * math.pi
    phi_Dinf = phi_X + delta / math.pi

    if not on_wall and abs(lift_D / math.pi - phi_Dinf) > config.TOL.sign:
        raise LiftInconsistency(
            f"Z_Dinf path grade {lift_D / math.pi} disagrees with "
            f"phi_X + delta/pi = {phi_Dinf}"
        )

    return LiftData(theta_top, Theta_lift, phi_X, phi_Dinf, phi_P, ind_R0, ind_Rb,
                    "non_generic" if on_line else "generic", min(margin_D, margin_P))


# ---------------------------------------------------------------------------
# the decision


def decide_existence(lifts: LiftData, r: int):
    """(verdict, notes) from the Cauchy-index window.

    Generic window: ind_R0 <= ind_Rb <= ind_R0 + r.  Non-generic window:
    ind_R0 + 1 <= ind_Rb <= ind_R0 + r, both ends inclusive; the lower
    equality is a semistable threshold and gets flagged rather than excluded
    (f == 0 on X_{1,1} realizes it).  The window is read on twice the
    difference d = ind_Rb - ind_R0, an int.
    """
    notes = []
    twice_Rb = lifts.ind_Rb.twice_value
    twice_d = twice_Rb - lifts.ind_R0.twice_value
    if twice_Rb % 2:
        notes.append(
            "boundary: the vertical-ray index at z2 is a half-integer, so z2 "
            "sits on a turning arc of the level structure; no smooth solution "
            "is reported at the wall"
        )
        return "no_solution", notes
    if lifts.genericity == "generic":
        exists = 0 <= twice_d <= 2 * r
    else:
        exists = 2 <= twice_d <= 2 * r
        if exists and twice_d == 2:
            notes.append(
                "boundary: the grade difference phi_P - phi_X equals the lower "
                "end of the admissible window (semistable threshold)"
            )
    return ("exists" if exists else "no_solution"), notes


def analyze(inp: CalabiInput) -> ChargeReport:
    """Full pipeline: polynomials, charges, lifts, verdict, cross-checks."""
    _, zeta, theta_hat, rotation = _potential(inp)
    Z_X, Z_Dinf, Z_P, wp_z2 = compute_charges(inp, zeta, rotation)
    lifts = compute_lifts(inp, theta_hat, Z_X, Z_Dinf, wp_z2)
    verdict, notes = decide_existence(lifts, inp.r)
    theta_top, Theta_lift, phi_X, phi_Dinf, phi_P, ind_R0, ind_Rb, genericity, _ = lifts

    # grade form of the decision must match the index form.  The crossing
    # anchor pins phi_P - phi_X inside (d, d+1) for generic inputs and at
    # exactly d for non-generic ones (d = ind_Rb - ind_R0), so the grade
    # window 0 < phi_P - phi_X < r+1 (generic) resp. 1 <= ... <= r
    # (non-generic) must reproduce the index verdict.
    if ind_Rb.is_integer:
        D = phi_P - phi_X
        if genericity == "generic":
            grade_exists = 0.0 < D < inp.r + 1.0
        else:
            grade_exists = 1.0 - config.TOL.sign <= D <= inp.r + config.TOL.sign
        if grade_exists != (verdict == "exists"):
            raise CrossCheckFailure(
                f"grade difference phi_P - phi_X = {D} puts the grade-form "
                f"verdict at {'exists' if grade_exists else 'no_solution'} "
                f"but the index form says {verdict}"
            )

    note = _NORMALIZATION_BASE
    for extra in notes:
        note += "; " + extra
    return ChargeReport(theta_hat, theta_top, Theta_lift, Z_X, Z_Dinf, Z_P, phi_X, phi_Dinf,
                        phi_P, ind_R0, ind_Rb, genericity, verdict, note)
