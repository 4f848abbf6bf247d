"""Cauchy indices of real rational functions.

A rational function h = num/den is given by its two parts, each a sequence
of float coefficients, ascending as in ``poly``; the routines drop trailing
zeros of either sign themselves, and no common factor is cancelled.  The
index of h at a point s counts the jump of h across s: +1 for a jump from
-inf to +inf, -1 for the reverse, 0 otherwise, with half-integer one-sided
contributions at interval endpoints.  Indices over an interval
[c, d] collect the right-hand contribution at c, the full jumps strictly
inside, and minus the left-hand contribution at d; this makes the interval
index exactly additive when intervals are concatenated, even at poles.
Only interval indices are computed.  A caller that counts a pole at an
endpoint in its own way divides that root out of den first: on the open
interval the factor keeps the sign of h or flips it throughout, and at the
endpoint it leaves no pole (``landscape._exact_index`` does this).

Every index here is exact.  A double is a dyadic rational, so scaling a
polynomial by a power of two turns its coefficients into integers without
changing a single sign.  The signed-remainder chain den, num, -rem(den, num),
... is then built from primitive pseudo-remainders in integer arithmetic, and
the index over the open interval (c, d) is the drop in sign variations of
the chain from c to d (Basu-Pollack-Roy, *Algorithms in Real Algebraic
Geometry*, Thm. 2.58).  Each chain member is read just inside the interval:
its sign just right of c is that of its first nonzero Taylor coefficient at
c, and at -inf/+inf the sign of its leading term.  The same Taylor data give
the orders of num and den at an endpoint, hence whether it is a pole and
from which side h runs to +inf.  No tolerance enters anywhere, so the result
is the index of the function the doubles represent.

All index routines return :class:`HalfInteger`, the record and rendering
type; both verdicts decide on its ``twice_value``.  When den + i num is a
polynomial on a vertical line right of all its roots, its phase rises
strictly and the index is minus the number of lines {pi/2 + k pi} it
crosses; the band labels and the dHYM indices take that phase from
:func:`phase_climb`, fix one end exactly and certify the floor of the
other with :func:`line_crossings`.  A verdict reaches the chain only for a
band label no phase sum decides (see :mod:`levelgraph.landscape`): an
uncertified root solve, a root disc that reaches the line, a high end
within its bound of a line, or z on a non-generic axis critical point.
"""

from __future__ import annotations

import math
import sys

from .errors import DenominatorIdenticallyZero, ZeroPolynomial
from .poly import _trimmed, divide_linear

__all__ = [
    "HalfInteger",
    "index_on_interval",
    "line_crossings",
    "one_sided_sign",
    "phase_climb",
]


class HalfInteger:
    """An element of (1/2)Z, stored as twice its value (always an int).

    The record and rendering type of an index or a band label.  It equals a
    HalfInteger or an int of the same value and does no arithmetic and no
    ordering: both verdicts decide on ``twice_value``.
    """

    __slots__ = ("twice_value",)

    def __init__(self, twice_value: int):
        if not isinstance(twice_value, int):
            raise TypeError("twice_value must be an int")
        self.twice_value = twice_value

    @classmethod
    def from_int(cls, n: int) -> "HalfInteger":
        return cls(2 * n)

    @property
    def is_integer(self) -> bool:
        return self.twice_value % 2 == 0

    def __eq__(self, other):
        if isinstance(other, HalfInteger):
            return self.twice_value == other.twice_value
        if isinstance(other, int):
            return self.twice_value == 2 * other
        return NotImplemented

    def __hash__(self):
        return hash(self.twice_value / 2)

    def __float__(self):
        return self.twice_value / 2

    def __str__(self):
        if self.twice_value % 2 == 0:
            return str(self.twice_value // 2)
        return f"{self.twice_value}/2"

    def __repr__(self):
        return f"HalfInteger({self.twice_value})"


# ---------------------------------------------------------------------------
# exact integer signed-remainder chain


def _integer_coeffs(p: tuple) -> list:
    """Coefficients of 2**s * p as ints, for the least s that makes them so."""
    ratios = [c.as_integer_ratio() for c in p]
    scale = max(d for _, d in ratios)  # every d is a power of two
    return [n * (scale // d) for n, d in ratios]


def _primitive(p: list) -> list:
    g = math.gcd(*p)
    return [c // g for c in p]


def _pseudo_remainder(a: list, b: list) -> list:
    """Remainder of |lc(b)|**e * a on division by b, trimmed.

    Each elimination step multiplies a by |lc(b)| > 0, so the result is a
    positive multiple of the true remainder and has its signs everywhere.
    """
    a = list(a)
    lead = b[-1]
    scale, sgn = abs(lead), (1 if lead > 0 else -1)
    db = len(b) - 1
    for top in range(len(a) - 1, db - 1, -1):
        q = sgn * a[top]
        a = [scale * c for c in a[:top]]
        off = top - db
        for j in range(db):
            a[off + j] -= q * b[j]
    while a and a[-1] == 0:
        a.pop()
    return a


def _signed_remainder_chain(den: list, num: list) -> list:
    """den, num, -rem(den, num), ..., each a positive multiple of the true one."""
    chain = [_primitive(den), _primitive(num)]
    while len(chain[-1]) > 1:
        r = _pseudo_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in _primitive(r)])
    return chain


def _local(p: list, x) -> tuple:
    """(j, s) for a nonzero integer polynomial p near x.

    For finite x, p vanishes to order j at x and s is the sign of its j-th
    Taylor coefficient there, so s is the sign of p just right of x and
    (-1)**j * s its sign just left of x.  For x = -inf or +inf, j is 0 and
    s is the sign of p far out on that side.
    """
    if math.isinf(x):
        s = 1 if p[-1] > 0 else -1
        return 0, (s if x > 0 or len(p) % 2 else -s)
    # b(v) = E**n p(v/E) has integer coefficients, and its Taylor coefficients
    # at X are positive multiples of those of p at x = X/E
    X, E = x.as_integer_ratio()
    b = list(p)
    e = 1
    for k in range(len(b) - 2, -1, -1):
        e *= E
        b[k] *= e
    # b is nonzero, so one of its len(b) Taylor coefficients at X is nonzero
    for j in range(len(b)):
        b, value = divide_linear(b, X)
        if value:
            return j, (1 if value > 0 else -1)


def _beside(local: tuple, side: int) -> int:
    """Sign just right (side=+1) or left (side=-1) of x, from _local(p, x)."""
    j, s = local
    return s if side > 0 or j % 2 == 0 else -s


def one_sided_sign(p, y: float, side: int) -> int:
    """Exact sign of a nonzero p just right (side=+1) or left (side=-1) of y.

    p is ascending float coefficients; trailing zeros are dropped first.
    """
    p = _trimmed(p)
    if not p:
        raise ZeroPolynomial("the zero polynomial has no one-sided sign")
    return _beside(_local(_integer_coeffs(p), y), side)


def _variations(signs) -> int:
    signs = list(signs)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _pole_sign(den_local: tuple, num_local: tuple, side: int) -> int:
    """Sign of h = num/den on one side of a point when it is a pole, else 0."""
    if den_local[0] <= num_local[0]:
        return 0
    return _beside(den_local, side) * _beside(num_local, side)


def index_on_interval(num, den, c: float, d: float) -> HalfInteger:
    """Exact Cauchy index of h = num/den over [c, d].

    num and den are ascending float coefficients; trailing zeros of either
    sign are dropped first, and a den with none left raises
    DenominatorIdenticallyZero.  Endpoints may be -inf/+inf.  A pole
    exactly at c contributes its right-hand half-jump; a pole at d
    contributes minus its left-hand half-jump.
    """
    num, den = _trimmed(num), _trimmed(den)
    if not den:
        raise DenominatorIdenticallyZero("denominator is the zero polynomial")
    if not c < d:
        raise ValueError(f"need c < d, got c={c}, d={d}")
    if not num:
        return HalfInteger(0)
    chain = _signed_remainder_chain(_integer_coeffs(den), _integer_coeffs(num))
    at_c = [_local(p, c) for p in chain]
    at_d = [_local(p, d) for p in chain]
    twice = 2 * (
        _variations(_beside(loc, +1) for loc in at_c)
        - _variations(_beside(loc, -1) for loc in at_d)
    )
    twice += _pole_sign(at_c[0], at_c[1], +1) - _pole_sign(at_d[0], at_d[1], -1)
    return HalfInteger(twice)


# ---------------------------------------------------------------------------
# certified crossing counts of a rising phase

# rounding bound, in units of pi, per unit of a count formed from phase_climb
CLIMB_ROUNDING = 8 * sys.float_info.epsilon


def phase_climb(terms, x: float, y: float):
    """(climb, spread) of a product of root factors above x + iy, or None.

    terms are (c, k, r): a root c of multiplicity k within a disc of radius
    r about it.  Along Re z = x, right of every root, the phase of
    prod (z - c)^k is sum k atan2(t - Im c, x - Re c) and rises strictly;
    climb = sum k (pi/2 - atan2(y - Im c, x - Re c)) is what it still rises
    above t = y, and n = sum k.  A root moved within its disc, at distance
    d, moves its term by at most k asin(r/d); spread sums these.  None when
    a disc reaches the line (x - Re c <= r), d < 2r (asin ill conditioned)
    or d is not finite.  A term of radius 0 adds k asin(0) = 0 to spread,
    so it adds nothing.  math.fsum of one or two terms is their plain sum.

    Rounding, with u = eps/2 and libm atan2, asin and hypot within 2 ulp,
    against exact arithmetic on the same doubles: dx and dy move a term's
    angle by u, atan2 by 4u, math.pi/2 by 0.6u, the difference by 2u, and
    the product by k and fsum add u times their value each: climb is within
    7.6 n u + 2u climb < 14 n u.  In spread, d is within 5u, r/d 6u, asin
    (condition <= 1.11 for r/d <= 1/2) 10.7u, its product by k 11.7u, and
    the sum adds (n - 1) u: (n + 11) u, relative.  A count formed from climb
    is certified against CLIMB_ROUNDING times a unit count its caller sets,
    whose docstring shows its own operations keep the total within it.
    """
    climb, spread, half_pi = [], 0.0, math.pi / 2
    for c, k, r in terms:
        dx, dy = x - c.real, y - c.imag
        d = math.hypot(dx, dy)
        if not (dx > r and 2 * r <= d < math.inf):
            return None
        climb.append(k * (half_pi - math.atan2(dy, dx)))
        if r:
            spread += k * math.asin(r / d)
    return math.fsum(climb), spread


def line_crossings(v: float, bound: float):
    """(floor(v) or None, margin) for an end v of a rising phase.

    v is in units of pi from one of the lines the phase crosses, so the
    lines are the integers; margin is the distance from v to the nearest.
    floor(v) is None unless margin > bound: an error of at most bound in v
    then moves it across no line.  The lines crossed are counted as this
    floor less the exact floor of the other end, which the caller fixes.
    """
    v_floor = math.floor(v)
    margin = min(v - v_floor, v_floor + 1 - v)
    return (v_floor if margin > bound else None), margin
