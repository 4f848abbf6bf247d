"""Reference root solve: the plain form of ``levelgraph.poly.roots``.

It takes the companion eigenvalues from ``numpy.roots``, evaluates p
through ``__call__``, sums the other discs' sizes over a generator and
tests a disc against a whole component with ``any``, and places a multiple
root by Newton on polynomial objects.  The library's solve builds numpy's
companion matrix itself, calls its Horner loop directly, stops testing a
component at its first touching disc and runs Newton on coefficient lists;
it must return the same terms and flag, repr for repr, and the tests
compare the two.
"""

import cmath
import math
import sys

import numpy as np

from levelgraph.errors import LevelGraphError, ZeroPolynomial
from levelgraph.poly import ComplexPolynomial, _horner


def newton(p, dp, z):
    """One Newton pass from z on p: the point of least |p| seen."""
    v = p(z)
    for _ in range(8):
        d = dp(z)
        if d == 0:
            break
        step = z - v / d
        v_step = p(step)
        if not abs(v_step) < abs(v):
            break
        z, v = step, v_step
    return z


def discs(p, approx):
    """(discs, certified): one Gerschgorin disc per approximation, as
    ``levelgraph.poly._discs`` documents them."""
    n = len(approx)
    lc = p.coeffs[-1]
    abs_coeffs = [abs(c) for c in p.coeffs]
    round_factor = 2 * (n + 1) * sys.float_info.epsilon
    centers, sizes, shifts = [], [], []
    certified = True
    for j, z in enumerate(approx):
        prod = lc
        for k, y in enumerate(approx):
            if k != j:
                prod *= z - y
        v = p(z)
        a = shift = 0.0
        if prod != 0 and cmath.isfinite(prod) and cmath.isfinite(v):
            e = round_factor * _horner(abs_coeffs, abs(z), 0.0)
            if not math.isfinite(abs(v) + e):
                certified, e = False, 0.0
            scale = abs(prod)
            a = (abs(v) + e) / scale * (1 + 2 * round_factor)
            shift = e / scale + 2 * round_factor * a
        if math.isfinite(a) and a > 0:
            z -= v / prod
            shift += sys.float_info.epsilon * abs(z)
        else:
            a = shift = 0.0
            certified = False
        centers.append(z)
        sizes.append(math.sqrt(a))
        shifts.append(shift)
    out = [(c, s * sum(sizes[k] for k in range(n) if k != j) + shift)
           for j, (c, s, shift) in enumerate(zip(centers, sizes, shifts))]
    return out, certified


def cluster(discs):
    """Connected components of closed discs, each disc joining, after the
    components it does not touch, the merge of those it touches."""
    components = []
    for disc in discs:
        near, far = [], []
        for comp in components:
            touches = any(abs(disc[0] - q[0]) <= disc[1] + q[1] for q in comp)
            (near if touches else far).append(comp)
        components = far + [[q for comp in near for q in comp] + [disc]]
    return components


def roots(p):
    """(terms, certified): the roots of p as (location, multiplicity,
    radius), as ``levelgraph.poly.roots``."""
    if p.is_zero:
        raise ZeroPolynomial("cannot extract roots of the zero polynomial")
    if p.degree == 0:
        return [], True
    m = next(k for k, c in enumerate(p.coeffs) if c != 0)
    rest = ComplexPolynomial(p.coeffs[m:])
    desc = np.array(rest.coeffs[::-1], dtype=complex)
    # numpy.roots' companion row, -desc[1:] / desc[0], must be finite
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(-desc[1:] / desc[0]).all()
    if not finite:
        raise LevelGraphError(
            f"the leading coefficient {p.coeffs[-1]!r} is too small: "
            "the companion matrix of the root solve overflows a double")
    approx = [complex(z) for z in np.roots(desc)]
    found_discs, certified = discs(rest, approx)
    out = []
    for comp in cluster([(0j, 0.0)] * m + found_discs):
        k = len(comp)
        center = comp[0][0]
        if k > 1:
            dk = p
            for _ in range(k - 1):
                dk = dk.derivative()
            center = newton(dk, dk.derivative(), sum(c for c, _ in comp) / k)
        out.append((center, k, max(abs(c - center) + r for c, r in comp)))
    out.sort(key=lambda term: (term[0].real, term[0].imag))
    found = sum(k for _, k, _ in out)
    if found != p.degree:
        raise LevelGraphError(
            f"root multiplicities sum to {found}, not the degree {p.degree}"
        )
    return out, certified
