"""Exact Cauchy index of the vertical-line ratio, the verdicts oracle.

For a potential w with double coefficients this computes, in rational
arithmetic, the Cauchy index over (-inf, y_top) of

    R(y) = Im w'(x0 + iy) / Re w'(x0 + iy).

Every double is a rational number, so the derivative, the Taylor shift to
x0 and the signed-remainder (Sturm) chain are all exact: the result is the
index of the ratio the given coefficients define.  It shares no code with
levelgraph, so it stays a valid oracle whatever the index backends become.
Sign-variation form (Basu-Pollack-Roy, Algorithms in Real Algebraic
Geometry, Thm. 2.58): Ind(num/den; a, b) = Var(chain; a) - Var(chain; b)
for the chain den, num, -rem(den, num), ...  Every chain member is kept as
a positive multiple of the true one with integer coefficients, which
leaves every sign, and so the index, unchanged.
"""

from __future__ import annotations

import math
from fractions import Fraction


def line_parts(w_pairs, x0):
    """(re, im): integer coefficients in y, ascending, whose ratio im/re is
    Im w'(x0 + iy) / Re w'(x0 + iy); both carry the same positive factor."""
    fr = [(k * Fraction(re), k * Fraction(im)) for k, (re, im) in enumerate(w_pairs)][1:]
    scale = 1
    for a, b in fr:
        scale = math.lcm(scale, a.denominator, b.denominator)
    d = [(int(a * scale), int(b * scale)) for a, b in fr]
    x = Fraction(x0)
    X, D = x.numerator, x.denominator
    n = len(d) - 1
    # w'(X/D + iy) * scale * D^n = sum_j y^j (iD)^j sum_k d_k C(k,j) X^(k-j) D^(n-k)
    re_out, im_out = [], []
    for j in range(n + 1):
        br = bi = 0
        for k in range(j, n + 1):
            f = math.comb(k, j) * X ** (k - j) * D ** (n - k + j)
            br += d[k][0] * f
            bi += d[k][1] * f
        br, bi = ((br, bi), (-bi, br), (-br, -bi), (bi, -br))[j % 4]
        re_out.append(br)
        im_out.append(bi)
    return re_out, im_out


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive(p):
    g = 0
    for c in p:
        g = math.gcd(g, c)
    return [c // g for c in p]


def _prem(a, b):
    """Remainder of |lc(b)|^e * a on division by b, in integers.

    Each elimination step scales a by |lc(b)| > 0, so the result has the
    sign pattern of the true remainder times a positive constant.
    """
    a = list(a)
    lb = b[-1]
    s, sgn = abs(lb), (1 if lb > 0 else -1)
    db = len(b) - 1
    for top in range(len(a) - 1, db - 1, -1):
        q = sgn * a[top]
        off = top - db
        a = [s * c for c in a]
        for j in range(db + 1):
            a[off + j] -= q * b[j]
    return _trim(a[:db])


def _sign_at(p, y):
    if y == -math.inf:
        v = p[-1] if len(p) % 2 else -p[-1]
    else:
        # p(Y/E) * E^deg, evaluated in integers
        Y, E = y.numerator, y.denominator
        v, ep = p[-1], 1
        for c in reversed(p[:-1]):
            ep *= E
            v = v * Y + c * ep
    return (v > 0) - (v < 0)


def _variations(chain, y):
    signs = [s for s in (_sign_at(p, y) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def cauchy_index_below(num, den, y_top):
    """Cauchy index of num/den over (-inf, y_top), for integer coefficient
    lists; y_top must not be a pole."""
    num, den = _trim(num), _trim(den)
    if not den:
        raise ValueError("denominator is identically zero")
    if not num:
        return 0
    top = Fraction(y_top)
    if _sign_at(den, top) == 0:
        raise ValueError(f"y = {y_top!r} is a pole")
    chain = [_primitive(den), _primitive(num)]
    while len(chain[-1]) > 1:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in _primitive(r)])
    return _variations(chain, -math.inf) - _variations(chain, top)


def line_index(w_pairs, x0, y_top):
    """Exact Cauchy index of Im w'/Re w' on Re z = x0 over (-inf, y_top)."""
    re, im = line_parts(w_pairs, x0)
    return cauchy_index_below(im, re, y_top)
