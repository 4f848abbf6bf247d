"""Reference Cauchy index: the signed-remainder chain over ``Fraction``.

Every double is a rational number, so this chain is exact for any float
input.  It is slow and refuses pole endpoints (raising IndeterminateSign),
which is why the library does not use it; the tests compare the library's
integer chain, ``levelgraph.cauchy.index_on_interval``, against it.

The jumps at one point are kept here too, also over ``Fraction``:
``index_one_sided``, the half jump from one side, and ``index_at_point``,
the full jump.  The library computes neither; it divides a pole at an
endpoint out instead.
"""

import math
from fractions import Fraction

from levelgraph.cauchy import HalfInteger
from levelgraph.errors import LevelGraphError


class IndeterminateSign(LevelGraphError):
    """An endpoint is a pole: the reference chain cannot decide its sign."""


def _rem_ascending(a: list, b: list):
    """Remainder of a mod b, both ascending coefficient lists (any field)."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    for top in range(len(a) - 1, db - 1, -1):
        q = a[top] / lead
        if q != 0:
            for j in range(db):
                a[top - db + j] -= q * b[j]
        a[top] = a[top] * 0  # exact zero of the right type
    del a[db:]
    return a


def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sign_at_exact(f: list, x) -> int:
    if not f:
        return 0
    if x == math.inf:
        v = f[-1]
    elif x == -math.inf:
        v = f[-1] if (len(f) - 1) % 2 == 0 else -f[-1]
    else:
        v = Fraction(0)
        for c in reversed(f):
            v = v * x + c
    return (v > 0) - (v < 0)


def index_on_interval_exact(num, den, c: float, d: float) -> HalfInteger:
    """Exact Sturm-chain index of num/den over Fraction arithmetic.

    num and den are ascending float coefficients without trailing zeros.
    Floats convert to Fraction losslessly, so this gives the mathematically
    exact index of the function the doubles actually represent.  An endpoint
    that is a pole raises IndeterminateSign.
    """
    if not c < d:
        raise ValueError(f"need c < d, got c={c}, d={d}")
    if not num:
        return HalfInteger(0)
    den = [Fraction(x) for x in den]
    num = [Fraction(x) for x in num]
    cx = Fraction(c) if math.isfinite(c) else c
    dx = Fraction(d) if math.isfinite(d) else d
    for x in (cx, dx):
        if isinstance(x, Fraction):
            v = Fraction(0)
            for co in reversed(den):
                v = v * x + co
            if v == 0:
                raise IndeterminateSign(
                    f"endpoint y={float(x)!r} is a pole; use index_on_interval"
                )
    chain = [den, num]
    while len(chain[-1]) > 1:
        r = _rem_ascending(chain[-2], chain[-1])
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
        # rescale to integer coefficients to keep Fraction sizes tame
        lcm = 1
        for co in r:
            lcm = lcm * co.denominator // math.gcd(lcm, co.denominator)
        g = 0
        for co in r:
            g = math.gcd(g, abs(co.numerator * (lcm // co.denominator)))
        chain.append([Fraction(-co.numerator * (lcm // co.denominator) // g) for co in r])
    vc = _variations([_sign_at_exact(f, cx) for f in chain])
    vd = _variations([_sign_at_exact(f, dx) for f in chain])
    return HalfInteger.from_int(vc - vd)


def _leading_taylor(coeffs, s: Fraction):
    """(j, c): p vanishes to order j at s, and c != 0 is its j-th Taylor
    coefficient there, by repeated division by (y - s)."""
    p = [Fraction(x) for x in coeffs]
    for j in range(len(p)):
        value = Fraction(0)
        quotient = []
        for c in reversed(p):
            value = value * s + c
            quotient.append(value)
        if value:
            return j, value
        p = quotient[-2::-1]
    raise ValueError("the zero polynomial has no Taylor coefficient")


def index_one_sided(num, den, s: float, side: int) -> HalfInteger:
    """ind at s from one side: +-1/2 when h = num/den runs to +-inf there, else 0.

    Near s, num ~ a (y - s)^j and den ~ b (y - s)^k; h has a pole there when
    k > j, and then its sign just right of s is that of a/b, and just left
    of it (-1)^(k - j) times that.
    """
    if side not in (+1, -1):
        raise ValueError("side must be +1 or -1")
    if not num:
        return HalfInteger(0)
    x = Fraction(s)
    j, a = _leading_taylor(num, x)
    k, b = _leading_taylor(den, x)
    if k <= j:
        return HalfInteger(0)
    sign = 1 if (a > 0) == (b > 0) else -1
    return HalfInteger(sign if side > 0 or (k - j) % 2 == 0 else -sign)


def index_at_point(num, den, s: float) -> HalfInteger:
    """Full jump index of num/den at s: ind^+ - ind^-."""
    right, left = index_one_sided(num, den, s, +1), index_one_sided(num, den, s, -1)
    return HalfInteger(right.twice_value - left.twice_value)
