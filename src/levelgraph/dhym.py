"""Existence decision for the degenerate line-bundle equation on X_{r,m}.

The input is a pair of cohomology-class coordinates (xi1, xi2) and (b, q)
together with the fibration exponents m >= 1 and r >= 0.  From these we build
the derivative profile

    w'(z) = e^{-i theta_hat} (xi + z)^m z^r,       xi = xi1 + i xi2,

where theta_hat is chosen so that z2 = b + iq and 0 sit on the same level set
of Im(w).  Existence of a solution then reduces to comparing two Cauchy
indices -- one along the imaginary axis, one along the vertical ray above z2
-- or, equivalently, to inequalities between the lifted phases (grades) of
three charge integrals.  Both forms are computed and asserted against each
other.  The phase lifts come from two explicit charge paths whose factors
stay in the right half-plane, so each lift has a closed form in atan2; the
lifts re-derive both indices as counts of crossings of the line through the
total charge Z_X.

Orientation note: the index machinery in :mod:`levelgraph.cauchy` counts a
-inf -> +inf jump as +1.  The lift formulas below need the opposite sign --
a counterclockwise crossing of the Z_X line by w' along an upward ray, which
shows up as a +inf -> -inf jump of Im(w')/Re(w').  Hence the negations in
``_ccw_index``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .cauchy import HalfInteger, RationalFunction, index_on_interval, index_one_sided
from .config import SIGN_TOL
from .errors import (
    BoundaryPointUnreachable,
    CrossCheckFailure,
    LevelMismatch,
    LiftInconsistency,
    ZeroTotalCharge,
)
from .poly import ComplexPolynomial, RealPolynomial, restrict_to_vertical_line

__all__ = [
    "CalabiInput",
    "ChargeReport",
    "LiftData",
    "build_polynomials",
    "compute_charges",
    "compute_lifts",
    "decide_existence",
    "analyze",
    "exhibit_solution",
]

# exact power tables: (-i)^k and i^k have exactly representable values, and
# going through cmath.exp would smear them with ~1e-16 dust that later shows
# up in charges that ought to be purely real or purely imaginary
_MI_POW = (1 + 0j, -1j, -1 + 0j, 1j)
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)

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
    theta_top: float
    Theta_lift: float
    phi_X: float
    phi_Dinf: float
    phi_P: float
    ind_R0: HalfInteger
    ind_Rb: HalfInteger
    genericity: str


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

    def to_dict(self) -> dict:
        def enc(v):
            if isinstance(v, complex):
                return [v.real, v.imag]
            if isinstance(v, HalfInteger):
                return str(v)
            return v

        return {
            name: enc(getattr(self, name))
            for name in (
                "theta_hat", "theta_top", "Theta_lift", "Z_X", "Z_Dinf", "Z_P",
                "phi_X", "phi_Dinf", "phi_P", "ind_R0", "ind_Rb",
                "genericity", "verdict", "normalization_note",
            )
        }


# ---------------------------------------------------------------------------
# construction


def _derivative_profile(inp: CalabiInput) -> ComplexPolynomial:
    """(xi + z)^m z^r as a polynomial."""
    base = ComplexPolynomial([inp.xi, 1.0])
    p = ComplexPolynomial([1.0])
    for _ in range(inp.m):
        p = p * base
    if inp.r:
        p = p * ComplexPolynomial([0.0] * inp.r + [1.0])
    return p


def build_polynomials(inp: CalabiInput):
    """(w, P, theta_hat) with P' = (xi+z)^m z^r, w' = e^{-i theta_hat} P'.

    theta_hat is the principal argument of P(z2) in (-pi, pi], which makes
    Im(w(z2)) = 0: the boundary point z2 and the origin share a level set.
    """
    P = _derivative_profile(inp).antiderivative()
    zeta = P(inp.z2)
    scale = P.coeff_scale * max(1.0, abs(inp.z2)) ** P.degree
    if abs(zeta) < 1e-12 * scale:
        raise ZeroTotalCharge(
            f"P({inp.z2}) = {zeta}: total charge vanishes, phase angle undefined"
        )
    theta_hat = math.atan2(zeta.imag, zeta.real)
    if theta_hat == -math.pi:
        theta_hat = math.pi
    w = P * cmath.exp(-1j * theta_hat)
    wz2 = w(inp.z2)
    if abs(wz2.imag) > SIGN_TOL * abs(wz2):
        raise LevelMismatch(
            f"Im(w(z2)) = {wz2.imag} is not zero relative to |w(z2)| = {abs(wz2)}"
        )
    return w, P, theta_hat


def compute_charges(inp: CalabiInput, P):
    """(Z_X, Z_Dinf, Z_P), each up to the shared positive volume factor."""
    zeta = P(inp.z2)
    Z_X = -_MI_POW[(inp.m + inp.r + 1) % 4] * zeta
    Z_Dinf = -_MI_POW[(inp.m + inp.r) % 4] * inp.z2**inp.r * (inp.z2 + inp.xi) ** inp.m
    Z_P = -_MI_POW[inp.m % 4] * inp.xi**inp.m
    return Z_X, Z_Dinf, Z_P


# ---------------------------------------------------------------------------
# indices


def _ccw_index(re: RealPolynomial, im: RealPolynomial, c: float, d: float) -> HalfInteger:
    # counterclockwise crossings of {Re = 0}: the +inf -> -inf jumps of im/re,
    # which the classical index counts with the opposite sign
    return -index_on_interval(RationalFunction(im, re), c, d)


def _split_real_imag(p: ComplexPolynomial):
    return (
        RealPolynomial(c.real for c in p.coeffs),
        RealPolynomial(c.imag for c in p.coeffs),
    )


# ---------------------------------------------------------------------------
# phase lifts along the charge paths


def _path_lift(factors, t: float) -> float:
    """Lift at t of the phase of c * prod (x_j + i(y_j + t))^{k_j}, anchored at pi.

    ``factors`` is a sequence of (x, y, k) with x > 0, and the prefactor c
    satisfies c * i^{sum k} = -1, so the path tends to the negative real axis
    as t -> infinity and its lift there is pi.  Every factor stays in the
    right half-plane, where its continuous argument is atan2(y + t, x) and
    climbs to pi/2; the lift at t is pi minus the climb still to come, and it
    strictly increases in t.
    """
    return math.pi - sum(k * (math.pi / 2 - math.atan2(y + t, x)) for x, y, k in factors)


def compute_lifts(inp: CalabiInput, w, theta_hat: float, Z_X, Z_Dinf) -> LiftData:
    """Lifted phases, Cauchy indices, and the genericity flag.

    Z_X and Z_Dinf are the charges from compute_charges.  The two index
    computations are the authoritative data.  The closed-form lifts of the
    Z_P and Z_Dinf paths re-derive them as counts of crossings of the Z_X
    line and must agree, as must the Z_Dinf path's end grade and
    phi_X + delta/pi; otherwise LiftInconsistency is raised.  Class data
    with Re w'(z2) <= 0 raise BoundaryPointUnreachable.
    """
    m, r = inp.m, inp.r
    n = m + r + 1
    wp = w.derivative()

    # unique representative of theta_hat mod pi in [n pi/2 - pi, n pi/2)
    lo = n * math.pi / 2 - math.pi
    ell = math.ceil((lo - theta_hat) / math.pi)
    theta_top = theta_hat + ell * math.pi
    line_angle = theta_top - lo  # angle of the Z_X line in [0, pi)
    if line_angle >= math.pi - SIGN_TOL:
        line_angle -= math.pi
        theta_top -= math.pi
    if abs(line_angle) < SIGN_TOL:
        line_angle = 0.0

    # genericity: does the tangent direction of the zero level at the origin
    # contain the vertical?  Equivalently, is Z_P(0) on the Z_X line?
    g0 = cmath.exp(-1j * theta_hat) * _I_POW[r % 4] * inp.xi**m
    generic = abs(g0.real) >= SIGN_TOL * abs(inp.xi) ** m
    genericity = "generic" if generic else "non_generic"

    # index along the vertical ray above z2
    re_b, im_b = restrict_to_vertical_line(wp, inp.b)
    ind_Rb = _ccw_index(re_b, im_b, inp.q, math.inf)
    on_wall = not ind_Rb.is_integer

    # along a graph over [0, b] on the zero level, Re w rises strictly from
    # w(0) = 0 to w(z2) = |P(z2)| > 0, so Re w'(z2) > 0 is necessary.  It is
    # also the sector condition 0 < delta < pi below, because
    # Z_Dinf/Z_X = i w'(z2)/w(z2).
    wp_z2 = wp(inp.z2)
    if not on_wall and not wp_z2.real > SIGN_TOL * abs(wp_z2):
        raise BoundaryPointUnreachable(
            f"Re w'(z2) = {wp_z2.real:.17g} is not above SIGN_TOL * |w'(z2)| = "
            f"{SIGN_TOL * abs(wp_z2):.3g}: no graph over [0, b] ends at z2"
        )

    # index along the imaginary axis; the common factor t^r of Re and Im of
    # w'(it) is cancelled first, leaving g(t) = e^{-i theta} i^r (xi + it)^m.
    # A non-generic Re g(0) is zero up to SIGN_TOL: make it exact, and leave
    # out the half-jump at t = 0, where the Z_P path starts on the Z_X line
    g_poly = ComplexPolynomial([1.0])
    base = ComplexPolynomial([inp.xi, 1j])
    for _ in range(m):
        g_poly = g_poly * base
    g_poly = g_poly * (cmath.exp(-1j * theta_hat) * _I_POW[r % 4])
    re_0, im_0 = _split_real_imag(g_poly)
    if generic:
        ind_R0 = _ccw_index(re_0, im_0, 0.0, math.inf)
    else:
        re_0 = RealPolynomial((0.0,) + re_0.coeffs[1:])
        ind_R0 = _ccw_index(re_0, im_0, 0.0, math.inf) + index_one_sided(
            RationalFunction(im_0, re_0), 0.0, +1
        )

    Theta_lift = theta_top - float(ind_Rb) * math.pi
    phi_X = (theta_top - float(ind_Rb) * math.pi - n * math.pi / 2 + math.pi) / math.pi
    delta = (cmath.phase(Z_Dinf) - cmath.phase(Z_X)) % (2.0 * math.pi)
    phi_Dinf = phi_X + delta / math.pi

    # explicit paths from each charge out to the shared negative-real-axis
    # asymptote: Z_P(t) = -(-i)^m (xi + it)^m from t = 0, and
    # Z_Dinf(t) = -(-i)^{m+r} (b + it)^r (xi + b + it)^m from t = q
    lift_P = _path_lift(((inp.xi1, inp.xi2, m),), 0.0)
    lift_D = _path_lift(((inp.b, 0.0, r), (inp.xi1 + inp.b, inp.xi2, m)), inp.q)
    phi_P = lift_P / math.pi

    # a lift rises to pi without reaching it, crossing the lines
    # {line_angle + k pi} only counterclockwise; the last line below pi is
    # line_angle itself.  A non-generic Z_P path starts on a line, which the
    # axis index leaves out, so its count takes the nearest line
    lines_P = (lift_P - line_angle) / math.pi
    crossings_P = -(math.floor(lines_P) if generic else round(lines_P))
    crossings_D = -math.floor((lift_D - line_angle) / math.pi)

    if crossings_P != ind_R0:
        raise LiftInconsistency(
            f"Z_P path crosses the Z_X line {crossings_P} times "
            f"but the axis index is {ind_R0}"
        )
    if not on_wall and crossings_D != ind_Rb:
        raise LiftInconsistency(
            f"Z_Dinf path crosses the Z_X line {crossings_D} times "
            f"but the vertical-ray index is {ind_Rb}"
        )
    if not on_wall and abs(lift_D / math.pi - phi_Dinf) > SIGN_TOL:
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
            grade_exists = 1.0 - SIGN_TOL <= D <= inp.r + SIGN_TOL
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


def exhibit_solution(inp: CalabiInput):
    """Trace the zero level of Im(w) from z2 back to the origin.

    Returns the tracer's graph check; for inputs where analyze() says
    ``exists`` the curve should arrive (connected) and be a graph over the
    x-axis (graphical).
    """
    from .tracer import graphical_connection

    w, _, _ = build_polynomials(inp)
    return graphical_connection(w, 0j, inp.z2)
