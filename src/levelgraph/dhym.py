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
number of lines through the total charge Z_X that the lift still crosses:
a floor formula.  A count is trusted only when its lift lies farther from
every line than a stated rounding bound.  The axis index of a
non-generic input, whose Z_P path starts on a line, counts the lines after
that one, and is trusted when the start is within that bound of its line
and far enough inside the sector for the lift to keep rising.  Otherwise
the exact signed-remainder chain of :mod:`levelgraph.cauchy` decides.

Orientation note: the index machinery in :mod:`levelgraph.cauchy` counts a
-inf -> +inf jump as +1.  The lift formulas below need the opposite sign --
a counterclockwise crossing of the Z_X line by w' along an upward ray, which
shows up as a +inf -> -inf jump of Im(w')/Re(w').  Hence ``_chain_index``
negates the index it takes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import config
from .cauchy import CLIMB_ROUNDING, HalfInteger, RationalFunction, index_on_interval
from .cauchy import index_one_sided, line_crossings, phase_climb
from .errors import (
    BoundaryPointUnreachable,
    CrossCheckFailure,
    LevelMismatch,
    LiftInconsistency,
    ZeroTotalCharge,
)
from .poly import I_POWERS, ComplexPolynomial, RealPolynomial, from_roots
from .poly import restrict_to_vertical_line

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

    @property
    def xi(self) -> complex:
        return complex(self.xi1, self.xi2)

    @property
    def z2(self) -> complex:
        return complex(self.b, self.q)


@dataclass(frozen=True)
class LiftData:
    """What compute_lifts decides; analyze copies all but the last two fields.

    line_margin is the smallest distance, in units of pi, from a crossing
    count's ends to a line of Z_X, leaving out the start of a non-generic
    Z_P path, which lies on a line; index_fallbacks (0 to 2) is how many of
    the two indices the exact chain decided.
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
    index_fallbacks: int


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


def build_polynomials(inp: CalabiInput):
    """(w, P, theta_hat) with P' = (xi+z)^m z^r, w' = e^{-i theta_hat} P'.

    theta_hat is the principal argument of P(z2) in (-pi, pi], which makes
    Im(w(z2)) = 0: the boundary point z2 and the origin share a level set.
    """
    # z^r multiplies by shifting the coefficients of (xi + z)^m
    profile = from_roots([-inp.xi] * inp.m).coeffs
    P = ComplexPolynomial((0.0,) * inp.r + profile).antiderivative()
    zeta = P(inp.z2)
    try:
        scale = P.coeff_scale * max(1.0, abs(inp.z2)) ** P.degree
    except OverflowError:
        scale = math.inf
    if not (scale < math.inf and cmath.isfinite(zeta)):
        raise ValueError(
            f"the class data overflow a double: P(z2) = {zeta!r} for P of degree "
            f"{P.degree} at |z2| = {abs(inp.z2)!r}"
        )
    if abs(zeta) < config.TOL.zero_charge * scale:
        raise ZeroTotalCharge(
            f"P({inp.z2}) = {zeta}: total charge vanishes, phase angle undefined"
        )
    theta_hat = math.atan2(zeta.imag, zeta.real)
    if theta_hat == -math.pi:
        theta_hat = math.pi
    w = P * cmath.exp(-1j * theta_hat)
    wz2 = w(inp.z2)
    threshold = config.TOL.sign * abs(wz2)
    if abs(wz2.imag) > threshold:
        raise LevelMismatch(
            wz2.imag, threshold,
            f"Im(w(z2)) = {wz2.imag} is not zero relative to |w(z2)| = {abs(wz2)}",
        )
    return w, P, theta_hat


def compute_charges(inp: CalabiInput, P):
    """(Z_X, Z_Dinf, Z_P), each up to the shared positive volume factor."""
    zeta = P(inp.z2)
    Z_X = -I_POWERS[-(inp.m + inp.r + 1) % 4] * zeta
    Z_Dinf = -I_POWERS[-(inp.m + inp.r) % 4] * inp.z2**inp.r * (inp.z2 + inp.xi) ** inp.m
    Z_P = -I_POWERS[-inp.m % 4] * inp.xi**inp.m
    return Z_X, Z_Dinf, Z_P


# ---------------------------------------------------------------------------
# crossing counts of the charge paths' lifts


def _z_x_line(theta_hat: float, n: int):
    """(theta_top, line_angle, bound) for w' of degree n - 1.

    theta_top = theta_hat + ell pi is the representative of theta_hat mod
    pi in [lo, lo + pi), lo = n pi/2 - pi, with ell decided in exact
    arithmetic.  line_angle = theta_top - lo is the angle of the Z_X line
    in the lift frame, in [0, pi) up to rounding; its lines are
    {line_angle + k pi}.

    A path lift (see compute_lifts) rises strictly to pi, crossing each
    line in (lift, pi) once, counterclockwise: line_crossings counts them
    between (lift - line_angle)/pi and 1 - line_angle/pi, and a line_angle
    rounded out of [0, pi) leaves a margin below bound.  A certified count
    is the index of w' for the computed theta_hat.

    bound = CLIMB_ROUNDING (n + |ell|) = 16u (n + |ell|), u = eps/2, in
    units of pi, bounds how far rounding moves the distance from a lift to
    its nearest line.  A lift is pi - climb over at most n - 1 roots: to
    phase_climb's bound, math.pi adds 1.1u and the subtraction
    u max(pi, climb), so with climb <= (n - 1) pi it is within
    (1.1 + 17.1 (n - 1)) u < 17 n u.  theta_top (float pi times ell, then
    the sum) and lo add (7.5 |ell| + 3.8 n + 7.5) u, forming
    (lift - line_angle)/pi 2.4 n u in units of pi, and 1 - line_angle/pi
    2u more.  The total is below 12u (n + |ell|) = 6 eps (n + |ell|) in
    units of pi, since n >= 2.
    """
    # ell = ceil((lo - theta_hat)/pi) = (n - 1 - floor(2 theta_hat/pi)) // 2
    # for theta_hat in (-pi, pi).  math.pi/2 is below pi/2 and no double lies
    # between them, so these comparisons are the exact ones with pi/2
    quadrant = (theta_hat > math.pi / 2) - (theta_hat < 0.0) - (theta_hat < -math.pi / 2)
    ell = (n - 1 - quadrant) // 2
    theta_top = theta_hat + ell * math.pi
    line_angle = theta_top - (n * math.pi / 2 - math.pi)
    return theta_top, line_angle, CLIMB_ROUNDING * (n + abs(ell))


def _crossings_from_line(lift: float, line_angle: float, bound: float, xi: complex, m: int):
    """(count, margin): the axis index of a non-generic input, from its lift.

    For a non-generic input the Z_P path starts within rounding of a line
    of Z_X.  The index that the exact chain decides is that of
    F(t) = g(it) - a over t > 0, where g(z) = e^{-i theta_hat} i^r (xi + z)^m
    is w' with t^r cancelled, whose phase is the Z_P path's lift turned so
    that the lines of Z_X are {Re g = 0}, and a = Re g(0): the chain zeroes
    a, which puts the start exactly on a line, and the start's half-jump
    cancels (the chain negates its index and index_one_sided adds the
    half-jump back).  So the index counts the lines F's lift crosses after
    its start, and with lo = (lift - line_angle)/pi, k0 = round(lo) and
    hi = 1 - line_angle/pi it is floor(hi) - k0, the lines in (k0, hi]
    that line_crossings counts from k0 + 1/2, when

    - F's lift rises strictly for t >= 0.  With u = xi + it and |c| = 1,
      its rate is m Re(1/(u (1 - a/(c u^m)))), which is positive while
      xi1 |u|^m > |a| (|u| + xi1); since |u| >= xi1, that holds for every
      t once xi1^m > 2|a|.
    - F starts on line k0 and ends on g's asymptote.  |a| < |g(it)|/2 for
      every t keeps F's lift within 1/6 (in units of pi) of g's, so both
      reach hi, and F's start is the line within 1/6 of g's start, which
      is k0 while g's start lies within 1/3 of it.
    - hi lies farther than bound from an integer, so floor(hi) is exact.

    With delta the exact distance of g's start from line k0 in units of
    pi, |a| = |xi|^m |sin(pi delta)| <= pi |delta| |xi|^m and |delta| <=
    |lo - k0| + bound, so the test 2 pi (|lo - k0| + bound) < (xi1/|xi|)^m
    gives xi1^m > 2|a| and |delta| < 1/(2 pi) < 1/3.  The test's own
    rounding, below (m + 4) eps, is covered by the slack in bound, which
    exceeds the 6 eps (n + |ell|) it must cover by 2 eps (n + |ell|):
    times 2 pi, more than 12 n eps.  margin is hi's distance from its
    nearest line, and the count is None unless the test passes and
    margin > bound.
    """
    lo = (lift - line_angle) / math.pi
    k0 = round(lo)
    count, margin = line_crossings(k0 + 0.5, 1 - line_angle / math.pi, bound)
    rising = 2 * math.pi * (abs(lo - k0) + bound) < (xi.real / abs(xi)) ** m
    return (count if rising else None), margin


def _chain_index(inp: CalabiInput, wp, generic: bool, axis: bool) -> HalfInteger:
    """One index from the exact signed-remainder chain alone.

    Restricts wp, the w' that compute_lifts formed, to the vertical ray
    above z2 (axis False, ind_Rb) or to the imaginary axis (axis True,
    ind_R0).  On the axis, w' = e^{-i theta_hat} z^r (xi + z)^m has its r
    lowest coefficients exactly zero (the antiderivative P starts with
    r + 1 of them, 0/(k + 1) = 0), so dropping them divides t^r out of Re
    and Im of w'(it) exactly and leaves those of g(it), g(z) = e^{-i
    theta_hat} i^r (xi + z)^m.  A non-generic Re g(0) is zero up to
    TOL.sign: it is made exact, and the half-jump at t = 0, where the Z_P
    path starts on the Z_X line, is left out: index_one_sided adds back
    what the negated index counts for it.
    """
    re, im = restrict_to_vertical_line(wp, 0.0 if axis else inp.b)
    if axis:
        re, im = RealPolynomial(re.coeffs[inp.r:]), RealPolynomial(im.coeffs[inp.r:])
        if not generic:
            re = RealPolynomial((0.0,) + re.coeffs[1:])
    ratio = RationalFunction(im, re)
    idx = -index_on_interval(ratio, 0.0 if axis else inp.q, math.inf)
    if axis and not generic:
        idx += index_one_sided(ratio, 0.0, +1)
    return idx


def compute_lifts(inp: CalabiInput, w, theta_hat: float, Z_X, Z_Dinf) -> LiftData:
    """Lifted phases, Cauchy indices, and the genericity flag.

    Z_X and Z_Dinf are the charges from compute_charges.  The closed-form
    lifts of the Z_Dinf and Z_P paths decide both indices as counts of
    crossings of the Z_X line, each certified against the rounding bound
    of _z_x_line: ind_Rb and a generic ind_R0 by line_crossings, and the axis
    index of a non-generic input, whose path starts on a line, by
    _crossings_from_line.  An index whose count is not certified comes
    from the exact signed-remainder chain instead (_chain_index);
    ``index_fallbacks`` counts these.  ``line_margin`` is the smallest
    distance, in units of pi, from a count's ends to a line, the start of
    a non-generic Z_P path left out.  The Z_Dinf path's end grade must
    agree with phi_X + delta/pi, otherwise LiftInconsistency is raised.
    Class data with Re w'(z2) <= 0 raise BoundaryPointUnreachable.
    """
    m, r = inp.m, inp.r
    n = m + r + 1
    wp = w.derivative()
    theta_top, line_angle, bound = _z_x_line(theta_hat, n)

    # genericity: does the tangent direction of the zero level at the origin
    # contain the vertical?  Equivalently, is Z_P(0) on the Z_X line?
    g0 = cmath.exp(-1j * theta_hat) * I_POWERS[r % 4] * inp.xi**m
    generic = abs(g0.real) >= config.TOL.sign * abs(inp.xi) ** m
    genericity = "generic" if generic else "non_generic"

    # explicit paths from each charge out to the shared negative-real-axis
    # asymptote: Z_P(t) = -(-i)^m (xi + it)^m from t = 0, and
    # Z_Dinf(t) = -(-i)^{m+r} (b + it)^r (xi + b + it)^m from t = q, each
    # lifted down from pi at t = inf; build_polynomials keeps the distances
    # to the roots finite, so phase_climb returns
    lift_P = math.pi - phase_climb(((-inp.xi, m, 0.0),), 0.0, 0.0)[0]
    lift_D = math.pi - phase_climb(((0j, r, 0.0), (-inp.xi, m, 0.0)), inp.b, inp.q)[0]
    phi_P = lift_P / math.pi
    asymptote = 1 - line_angle / math.pi

    # index along the vertical ray above z2
    count, line_margin = line_crossings((lift_D - line_angle) / math.pi, asymptote, bound)
    fallbacks = 0
    if count is None:
        fallbacks += 1
        ind_Rb = _chain_index(inp, wp, generic, axis=False)
    else:
        ind_Rb = HalfInteger.from_int(count)
    on_wall = not ind_Rb.is_integer

    # along a graph over [0, b] on the zero level, Re w rises strictly from
    # w(0) = 0 to w(z2) = |P(z2)| > 0, so Re w'(z2) > 0 is necessary.  It is
    # also the sector condition 0 < delta < pi below, because
    # Z_Dinf/Z_X = i w'(z2)/w(z2).
    wp_z2 = wp(inp.z2)
    threshold = config.TOL.sign * abs(wp_z2)
    if not on_wall and not wp_z2.real > threshold:
        raise BoundaryPointUnreachable(
            wp_z2.real, threshold,
            f"Re w'(z2) = {wp_z2.real:.17g} is not above TOL.sign * |w'(z2)| = "
            f"{threshold:.3g}: no graph over [0, b] ends at z2",
        )

    # index along the imaginary axis
    if generic:
        count, margin = line_crossings((lift_P - line_angle) / math.pi, asymptote, bound)
    else:
        count, margin = _crossings_from_line(lift_P, line_angle, bound, inp.xi, m)
    line_margin = min(line_margin, margin)
    if count is None:
        fallbacks += 1
        ind_R0 = _chain_index(inp, wp, generic, axis=True)
    else:
        ind_R0 = HalfInteger.from_int(count)

    Theta_lift = theta_top - float(ind_Rb) * math.pi
    phi_X = (Theta_lift - n * math.pi / 2 + math.pi) / math.pi
    delta = (cmath.phase(Z_Dinf) - cmath.phase(Z_X)) % (2.0 * math.pi)
    phi_Dinf = phi_X + delta / math.pi

    if not on_wall and abs(lift_D / math.pi - phi_Dinf) > config.TOL.sign:
        raise LiftInconsistency(
            f"Z_Dinf path grade {lift_D / math.pi} disagrees with "
            f"phi_X + delta/pi = {phi_Dinf}"
        )

    return LiftData(
        theta_top=theta_top,
        Theta_lift=Theta_lift,
        phi_X=phi_X,
        phi_Dinf=phi_Dinf,
        phi_P=phi_P,
        ind_R0=ind_R0,
        ind_Rb=ind_Rb,
        genericity=genericity,
        line_margin=line_margin,
        index_fallbacks=fallbacks,
    )


# ---------------------------------------------------------------------------
# the decision


def decide_existence(lifts: LiftData, r: int):
    """(verdict, notes) from the Cauchy-index window.

    Generic window: ind_R0 <= ind_Rb <= ind_R0 + r.  Non-generic window:
    ind_R0 + 1 <= ind_Rb <= ind_R0 + r, both ends inclusive; the lower
    equality is a semistable threshold and gets flagged rather than excluded
    (f == 0 on X_{1,1} realizes it).
    """
    notes = []
    d = lifts.ind_Rb - lifts.ind_R0
    if not lifts.ind_Rb.is_integer:
        notes.append(
            "boundary: the vertical-ray index at z2 is a half-integer, so z2 "
            "sits on a turning arc of the level structure; no smooth solution "
            "is reported at the wall"
        )
        return "no_solution", notes
    if lifts.genericity == "generic":
        exists = 0 <= d <= r
    else:
        exists = 1 <= d <= r
        if exists and d == 1:
            notes.append(
                "boundary: the grade difference phi_P - phi_X equals the lower "
                "end of the admissible window (semistable threshold)"
            )
    return ("exists" if exists else "no_solution"), notes


def analyze(inp: CalabiInput) -> ChargeReport:
    """Full pipeline: polynomials, charges, lifts, verdict, cross-checks."""
    w, P, theta_hat = build_polynomials(inp)
    Z_X, Z_Dinf, Z_P = compute_charges(inp, P)
    lifts = compute_lifts(inp, w, theta_hat, Z_X, Z_Dinf)
    verdict, notes = decide_existence(lifts, inp.r)

    # grade form of the decision must match the index form.  The crossing
    # anchor pins phi_P - phi_X inside (d, d+1) for generic inputs and at
    # exactly d for non-generic ones (d = ind_Rb - ind_R0), so the grade
    # window 0 < phi_P - phi_X < r+1 (generic) resp. 1 <= ... <= r
    # (non-generic) must reproduce the index verdict.
    if lifts.ind_Rb.is_integer:
        D = lifts.phi_P - lifts.phi_X
        if lifts.genericity == "generic":
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
    return ChargeReport(
        theta_hat=theta_hat,
        theta_top=lifts.theta_top,
        Theta_lift=lifts.Theta_lift,
        Z_X=Z_X,
        Z_Dinf=Z_Dinf,
        Z_P=Z_P,
        phi_X=lifts.phi_X,
        phi_Dinf=lifts.phi_Dinf,
        phi_P=lifts.phi_P,
        ind_R0=lifts.ind_R0,
        ind_Rb=lifts.ind_Rb,
        genericity=lifts.genericity,
        verdict=verdict,
        normalization_note=note,
    )
