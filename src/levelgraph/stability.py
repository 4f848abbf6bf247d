"""Trichotomy for connecting two boundary points along a level curve.

Both points must lie on a common level of v = Im w (after shifting the level
to zero).  The verdict compares the region labels n1 = N(z1), n2 = N(z2)
assigned by the counting function: the vertical-tangent curves of the level
family cut the right half-plane into horizontally-ordered bands, a graphical
connection cannot leave its band, and a band boundary can only be touched at
the far end.  When z1 sits at a critical point of order k the level set
branches there, opening a window of k+1 (or k, in the non-generic case)
admissible bands for z2.

classify forms and solves w' once per verdict (the BoundaryData it is given
formed w' of the unshifted w only to check it finite): the shifted w goes
straight to one :class:`~levelgraph.landscape.Potential`, and both band
labels and the critical point under z1 are read from it.  Each label is a
phase sum over the roots of w' that the Potential holds, from an exact low
end to a high end certified against their inclusion discs and a stated
rounding bound.  The exact signed-remainder chain decides a label only
where no phase sum can: an uncertified root solve, a disc that reaches
the line, a high end within its bound of a line, or z1 on a non-generic
critical point (see :func:`~levelgraph.landscape.counting_function`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import config
from .cauchy import HalfInteger
from .errors import LevelMismatch
from .landscape import Potential, counting_function
from .poly import ComplexPolynomial, _horner

__all__ = ["BoundaryData", "StabilityVerdict", "shift_to_zero_level", "classify"]


@dataclass(frozen=True)
class BoundaryData:
    """w plus the two points to connect; needs Re z2 > Re z1 >= 0."""

    w: ComplexPolynomial
    z1: complex
    z2: complex

    def __post_init__(self):
        object.__setattr__(self, "z1", complex(self.z1))
        object.__setattr__(self, "z2", complex(self.z2))
        if not all(map(cmath.isfinite, (self.z1, self.z2, *self.w.coeffs))):
            raise ValueError(
                f"z1={self.z1!r}, z2={self.z2!r} and the coefficients of w must be finite"
            )
        # the coefficients k c_k of w', formed in full only for the message
        if not all(cmath.isfinite(k * c) for k, c in enumerate(self.w.coeffs[1:], 1)):
            wp = self.w.derivative().coeffs
            raise ValueError(f"the derivative of w overflows a double: w' = {wp!r}")
        snap = config.TOL.snap * (1.0 + abs(self.z1))
        if self.z1.real < -snap:
            raise ValueError(f"z1={self.z1!r} must have nonnegative real part")
        if not self.z2.real > self.z1.real:
            raise ValueError(
                f"need Re z2 > Re z1, got z1={self.z1!r}, z2={self.z2!r}"
            )


@dataclass(frozen=True)
class StabilityVerdict:
    """verdict is one of stable / strictly_semistable / unstable.

    case records which branch of the decision rule fired: noncritical,
    generic_critical, nongeneric_critical, or z2_on_boundary (z2 exactly on
    a vertical-tangent curve, always unstable).  critical_order is the order
    of the critical point under z1, or None when z1 is a regular point.
    """

    verdict: str
    n1: HalfInteger
    n2: HalfInteger
    case: str
    critical_order: int | None = None


def shift_to_zero_level(data: BoundaryData) -> BoundaryData:
    """Subtract a constant from w so that Im w(z1) = 0.

    Raises LevelMismatch when z2 does not lie on the shifted zero level --
    the two points must be on the same level curve for the question to make
    sense at all.  Raises ValueError when w(z1), w(z2) or the rounding scale
    of w at z2 overflows a double.
    """
    return BoundaryData(_shifted_w(data), data.z1, data.z2)


def _shifted_w(data: BoundaryData) -> ComplexPolynomial:
    """The shifted w of shift_to_zero_level, raising as that documents.

    classify takes it bare, without a second BoundaryData that would form
    w' again to check it: the shift changes only the constant term, to a
    finite one, and adds 0j to the others, which clears the sign of a zero
    part but keeps every check that data passed.
    """
    coeffs = data.w.coeffs
    w1 = _horner(coeffs, data.z1, 0j)
    # w - ComplexPolynomial([shift]) in one polynomial: the same additions, in
    # the same order, so every coefficient keeps its bits
    shift = 1j * w1.imag
    shifted = [c + 0j for c in coeffs]
    if shift:
        shifted[0] = coeffs[0] + -shift
    w = ComplexPolynomial(shifted)
    w2 = _horner(w.coeffs, data.z2, 0j)
    try:
        scale = w.coeff_scale * (1.0 + abs(data.z2)) ** max(w.degree, 0)
    except OverflowError:
        scale = math.inf
    if not (scale < math.inf and cmath.isfinite(w1) and cmath.isfinite(w2)):
        raise ValueError(
            f"w overflows a double at the boundary points: w(z1) = {w1!r}, "
            f"w(z2) = {w2!r}, rounding scale max|c_k| (1 + |z2|)^{w.degree} = {scale!r}"
        )
    resid = w2.imag
    threshold = config.TOL.sign * max(abs(w2), scale, 1.0)
    if abs(resid) > threshold:
        raise LevelMismatch(
            resid, threshold,
            f"Im w(z2) = {resid!r} after shifting; z1 and z2 sit on different levels",
        )
    return w


def classify(data: BoundaryData) -> StabilityVerdict:
    """Decide whether z2 connects to z1 graphically along their level curve."""
    pot = Potential(_shifted_w(data))
    n1 = counting_function(pot, data.z1).value
    n2 = counting_function(pot, data.z2).value
    cp = pot.critical_point_at(data.z1)

    # the rule decides on ints, twice each label (t = 2n) against 2k
    t1, t2 = n1.twice_value, n2.twice_value
    if t2 % 2:
        return StabilityVerdict(
            "unstable", n1, n2, "z2_on_boundary", cp.order if cp else None
        )

    if cp is None:
        # stable at |n1 - n2| = 0, strictly semistable at 1/2
        verdict = {0: "stable", 1: "strictly_semistable"}.get(abs(t1 - t2), "unstable")
        return StabilityVerdict(verdict, n1, n2, "noncritical")

    k = cp.order
    if cp.genericity == "generic":
        # n1 - k <= n2 <= n1
        verdict = "stable" if t1 - 2 * k <= t2 <= t1 else "unstable"
        return StabilityVerdict(verdict, n1, n2, "generic_critical", k)

    # non-generic: the window n1 - k + 1/2 <= n2 <= n1 - 1/2 is a half step
    # narrower on each side, and exactly the two bands just outside it,
    # n1 - k - 1/2 and n1 + 1/2, remain reachable semistably through the tangency
    if t1 - 2 * k + 1 <= t2 <= t1 - 1:
        verdict = "stable"
    elif t2 == t1 - 2 * k - 1 or t2 == t1 + 1:
        verdict = "strictly_semistable"
    else:
        verdict = "unstable"
    return StabilityVerdict(verdict, n1, n2, "nongeneric_critical", k)
