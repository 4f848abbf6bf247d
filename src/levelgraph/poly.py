"""Univariate polynomial arithmetic over complex double coefficients.

Coefficient vectors are stored ascending: ``coeffs[k]`` multiplies ``z**k``.
``ComplexPolynomial`` is immutable, evaluates and differentiates, and forms
no products: polynomials are built as coefficient lists, and the package's
one product is ``root_product``.  Trailing coefficients that are exactly
zero are trimmed on construction, so the zero polynomial has an empty
coefficient tuple and ``degree == -1``.
A real polynomial is a plain tuple of floats, ascending and trimmed the
same way: ``restrict_to_vertical_line`` returns two of them, and
``cauchy`` reads them.

This module is the package's only polynomial arithmetic.  One Horner loop,
``_horner``, evaluates at a scalar and elementwise on a NumPy array alike.
An array is summed in place in a zeros accumulator of the result's shape
and dtype, so even the zero polynomial gives a typed array, and a caller
that owns the accumulator (the flow's per-call work arrays in
``kempf_ness``) allocates nothing per pass.  One loop, ``_horner_bound``,
takes a scalar value and its rounding scale sum |c_k| |z|^k in one pass,
with two accumulators: ``_discs`` reads it at each eigenvalue of a root
solve, and ``dhym._potential``, on the path of every dHYM verdict, for
P(z2) and its ``zero_charge`` scale.  ``divide_linear`` divides by
(v - x), and repeated, it gives the Taylor coefficients at x
(``taylor_coeffs``): the exact sign of an integer polynomial beside a
point and the cancellation of a known factor come from it.  Times the
exact powers of i, they are the one line expansion p(x + iy) = sum_k i^k
p^(k)(x)/k! y^k (``line_coeffs``), at a point or on a node array, which
the restriction to a vertical line and the flow's tables in
``kempf_ness`` read; the axis genericity test in ``landscape`` takes one
of its coefficients.

Root finding takes the eigenvalues of the companion matrix that
``numpy.roots`` builds, built here and handed straight to
``numpy.linalg.eigvals``, and one inclusion theorem.  Each eigenvalue z_j
gets a Gerschgorin disc about z_j - W_j, W_j its Weierstrass correction,
and each connected union of k discs that meets no other disc holds exactly
k zeros.  ``roots`` returns each union as the phase-climb term (location,
k, radius) that the band labels sum, its radius reaching every point of
the union, so all k zeros lie within it of the location.  An exact zero at
0 is split off first.  One ``certified`` flag covers the whole solve: when
one disc has no certificate (``_discs``), the inclusion theorem holds for
none of them.  A multiple root is placed by Newton on coefficient lists.

numpy is imported only where an array is needed: by ``roots``, for the
eigenvalue solve, and by a call on an array, for its typed zeros.  A scalar
call and the coefficient-list builders import nothing, so a process that
evaluates at points only (``dhym.analyze``) never loads numpy.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import LevelGraphError, ZeroPolynomial

__all__ = ["I_POWERS", "ComplexPolynomial", "derivative_coeffs", "divide_linear", "line_coeffs",
           "restrict_to_vertical_line", "root_product", "roots", "taylor_coeffs"]


def _trimmed(values: Iterable[complex]) -> tuple:
    out = list(values)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _horner(coeffs: Sequence[complex], z, acc):
    """p(z) for ascending coefficients; acc is the zero of the result type.

    A scalar acc is rebound at each step.  A zeros array of the result's
    shape and dtype is the accumulator itself: the sum is formed in it, in
    place, and it is returned.  Either way every element goes through the
    same acc * z, then + c, in the same order.
    """
    if type(acc) in (complex, float, int):
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc
    for c in reversed(coeffs):
        acc *= z
        acc += c
    return acc


def _horner_bound(coeffs: Sequence[complex], z: complex) -> tuple:
    """(p(z), sum |c_k| |z|^k) in one pass: p(z) as _horner forms it from 0j,
    beside the a priori scale of its rounding (Higham, Accuracy and
    Stability of Numerical Algorithms, section 5.1), formed alike from 0.0.
    abs(z) raises OverflowError when |z| overflows a double though both
    parts of z are finite, and also at a nan part when an earlier C call
    (the eigenvalue solve) left errno at ERANGE; |z| is then taken as inf,
    so the scale is not finite."""
    v, bound = 0j, 0.0
    try:
        az = abs(z)
    except OverflowError:
        az = math.inf
    for c in reversed(coeffs):
        v = v * z + c
        bound = bound * az + abs(c)
    return v, bound


def divide_linear(coeffs: Sequence, x) -> tuple:
    """(q, r) with p = q * (v - x) + r, by synthetic division.

    coeffs and the returned quotient are ascending.  Only + and * are used,
    so integer coefficients and an integer x give an exact integer result.
    """
    acc, partial = 0, []
    for c in reversed(coeffs):
        acc = acc * x + c
        partial.append(acc)
    # the last partial sum is p(x); the others, reversed, are q
    return partial[-2::-1], acc


def taylor_coeffs(coeffs: Sequence, x, count: int) -> list:
    """The first count Taylor coefficients of p at x: p(x), p'(x), p''(x)/2, ...

    Each is the remainder of one more division by (v - x).
    """
    out = []
    for _ in range(count):
        coeffs, r = divide_linear(coeffs, x)
        out.append(r)
    return out


# exact powers of i: through cmath.exp they would carry ~1e-16 dust into
# values that ought to be purely real or purely imaginary.  (-i)^k is
# I_POWERS[-k % 4]
I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


@dataclass(frozen=True)
class ComplexPolynomial:
    """Polynomial with complex double-precision coefficients, ascending."""

    coeffs: tuple

    def __init__(self, coeffs: Iterable):
        object.__setattr__(self, "coeffs", _trimmed(map(complex, coeffs)))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def coeff_scale(self) -> float:
        return max(map(abs, self.coeffs), default=0.0)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, z):
        # a scalar is evaluated without importing numpy
        if not isinstance(z, (int, float, complex)):
            import numpy as np

            if isinstance(z, np.ndarray):
                return _horner(self.coeffs, z, np.zeros(z.shape, np.result_type(0j, z)))
        return _horner(self.coeffs, complex(z), 0j)

    # -- algebra ------------------------------------------------------------

    def derivative(self):
        return ComplexPolynomial(derivative_coeffs(self.coeffs))


def derivative_coeffs(coeffs: Sequence[complex]) -> list:
    """Ascending coefficients of the derivative."""
    return [k * c for k, c in enumerate(coeffs[1:], 1)]


def root_product(roots: Sequence[complex]) -> list:
    """Ascending coefficients of the monic product of (z - r).

    Each factor (z - r) multiplies one coefficient list in place, from the
    top down.  Every coefficient takes the operations of the schoolbook
    product of two coefficient lists (out[i + j] += a[i] * b[j], from 0j)
    in their order, out[k] = (0j + a[k-1] * (1+0j)) + a[k] * (-r), so the
    list is byte-equal to that product of [1.0] and the factors [-r, 1.0],
    signed zeros included.  Nothing is trimmed.
    """
    one = 1 + 0j
    a = [one]
    for r in roots:
        neg = complex(-r)
        a.append(0j + a[-1] * one)
        for k in range(len(a) - 2, 0, -1):
            a[k] = (0j + a[k - 1] * one) + a[k] * neg
        a[0] = 0j + a[0] * neg
    return a


def line_coeffs(coeffs: Sequence, x, count: int) -> list:
    """The first count coefficients of p(x + iy) in y: i^k p^(k)(x)/k!.

    The Taylor coefficients at x (taylor_coeffs), each times the exact
    power I_POWERS[k % 4].  x may be a NumPy array: each coefficient is
    then an array over its points.
    """
    return [b * I_POWERS[k % 4] for k, b in enumerate(taylor_coeffs(coeffs, x, count))]


def restrict_to_vertical_line(p: ComplexPolynomial, x0: float) -> tuple:
    """p restricted to the line Re z = x0, split into real and imaginary parts.

    Returns ascending float coefficients (re, im) in the variable y, each
    trimmed of trailing zeros, with re(y) + i*im(y) = p(x0 + iy).
    """
    c = line_coeffs(p.coeffs, x0, len(p.coeffs))
    return _trimmed([v.real for v in c]), _trimmed([v.imag for v in c])


# ---------------------------------------------------------------------------
# root finding


def _newton(coeffs: Sequence[complex], dcoeffs: Sequence[complex], z: complex) -> complex:
    """One Newton pass from z on p, given with p' by their ascending
    coefficients: the point of least |p| seen.

    Each step evaluates p once, at the new point, and the pass stops at the
    first step that does not lower |p|, or after 8 steps.
    """
    v = _horner(coeffs, z, 0j)
    for _ in range(8):
        d = _horner(dcoeffs, z, 0j)
        if d == 0:
            break
        step = z - v / d
        v_step = _horner(coeffs, step, 0j)
        if not abs(v_step) < abs(v):
            break
        z, v = step, v_step
    return z


def _discs(coeffs: Sequence[complex], approx: Sequence[complex]) -> tuple:
    """(center, radius) of one Gerschgorin disc per approximation z_j to a
    zero of p = coeffs; the n = deg p approximations are distinct for a certificate.

    With the Weierstrass corrections W_j = p(z_j) / (lc * prod_{k!=j} (z_j - z_k)),
    Lagrange interpolation makes the zeros of p the eigenvalues of
    diag(z) - 1 W^T.  After the similarity diag(a_j^(-1/2)), with a_j >= |W_j|,
    Gerschgorin's theorem puts them in the discs of center z_j - W_j and
    radius sqrt(a_j) * sum_{k!=j} sqrt(a_k), and a union of k discs that
    meets no other disc holds exactly k of them (Carstensen, Numer. Math.
    59, 1991, is the unscaled case).  Each computed disc, about the
    computed center c_j, holds its exact disc, so the count holds for the
    computed discs too.

    With u = eps/2 and f = 2 (n + 1) eps = 4 (n + 1) u: |p(z_j)| <= |v| + e,
    v the computed value and e = f sum |c_k| |z_j|^k its Horner rounding
    bound, both from one _horner_bound pass.  The computed product P is
    within rho = 3.3 (n - 1) u, relative (u per difference, sqrt(5) u per
    product).  Past rho and the roundings of |v| + e, |P|, the quotient and
    the factor, (3.3 n + 5) u in all, a_j = (|v| + e)/|P| (1 + 2f) exceeds
    |W_j| by the (n + 1.5) u that the radius's own arithmetic can lose.  The
    center c_j = z_j - v/P misses z_j - W_j by e/|P| (from v), (9u + rho) a_j
    (the quotient, within 9u by Smith's method, and P) and u |c_j| (the
    subtraction): the shift e/|P| + 2f a_j + eps |c_j| covers these and its
    own rounding, and is added to the radius.

    Where W_j is undefined (an approximation repeats), p(z_j) is not finite
    or the product is not finite, a_j is 0: the disc is the point z_j, it
    adds nothing to the other radii, and no count is certified.  Returns
    (discs, certified); certified is False when some a_j is 0 or left out
    its rounding bound, since the theorem then covers no disc.
    """
    n = len(approx)
    lc = coeffs[-1]
    eps = sys.float_info.epsilon
    round_factor = 2 * (n + 1) * eps
    centers, sizes, shifts = [], [], []
    certified = True
    for j, z in enumerate(approx):
        prod = lc
        # each product forms its own differences: z_k - z_j is -(z_j - z_k)
        # only up to the sign of a zero part, which can reach the center
        for y in approx[:j]:
            prod *= z - y
        for y in approx[j + 1:]:
            prod *= z - y
        v, bound = _horner_bound(coeffs, z)
        a = shift = 0.0
        if prod != 0 and cmath.isfinite(prod) and cmath.isfinite(v):
            e = round_factor * bound
            if not math.isfinite(abs(v) + e):
                certified, e = False, 0.0
            scale = abs(prod)
            a = (abs(v) + e) / scale * (1 + 2 * round_factor)
            shift = e / scale + 2 * round_factor * a
        if math.isfinite(a) and a > 0:
            z -= v / prod
            shift += eps * abs(z)
        else:
            a = shift = 0.0
            certified = False
        centers.append(z)
        sizes.append(math.sqrt(a))
        shifts.append(shift)
    # sum(sizes[:j] + sizes[j + 1:]) by the same additions, with no list
    discs, before = [], 0
    for j, (c, s, shift) in enumerate(zip(centers, sizes, shifts)):
        discs.append((c, s * sum(sizes[j + 1:], before) + shift))
        before += s
    return discs, certified


def _cluster(discs: list) -> list:
    """Connected components of closed discs (center, radius): two discs
    touch when the distance of their centers is at most the sum of their
    radii.  Each disc joins every component it touches, merging them."""
    components: list[list[tuple]] = []
    for disc in discs:
        c, r = disc
        near = []
        for i, comp in enumerate(components):
            for q, s in comp:
                if abs(c - q) <= r + s:
                    near.append(i)
                    break
        if near:  # the touched components, in order, and the disc join last
            merged = [q for i in near for q in components[i]] + [disc]
            for i in reversed(near):
                del components[i]
            components.append(merged)
        else:
            components.append([disc])
    return components


@functools.lru_cache(maxsize=32)
def _subdiagonal(n: int):
    """The read-only n x n complex array with ones just below the diagonal."""
    import numpy as np

    sub = np.eye(n, k=-1, dtype=complex)
    sub.flags.writeable = False
    return sub


def roots(p: ComplexPolynomial) -> tuple:
    """(terms, certified): the roots of p, one per component of inclusion discs.

    An m-fold exact zero at 0 (the m lowest coefficients are 0) gives m discs
    of radius 0 at 0; the other zeros get one disc each about the companion
    eigenvalues of the rest (``_discs``), from numpy.roots' companion matrix
    solved by numpy.linalg.eigvals.  A connected union of k discs that
    meets no other disc holds exactly k zeros of p (Gerschgorin), and becomes
    one root of multiplicity k, the phase_climb term (location, k, radius)
    of ``cauchy``.  A simple root is located at its disc's center; a k-fold
    one at a Newton pass on p^(k-1) from the mean of its centers, which a
    k-fold zero leaves simple.  radius reaches every point of the component,
    so it holds all k zeros.  ``certified`` says whether these claims are
    proven, which they are when every disc of the solve has its
    certificate.  The terms are sorted by the location's real part, then
    its imaginary part.  Their multiplicities sum to the degree by
    construction: the components partition the m discs at 0 and the
    deg p - m discs of the eigenvalues, one per zero of p.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot extract roots of the zero polynomial")
    if p.degree == 0:
        return [], True
    m = next(k for k, c in enumerate(p.coeffs) if c != 0)
    rest = p.coeffs[m:]
    approx = []
    if len(rest) > 1:
        import numpy as np

        # numpy.roots' companion matrix, whose first row is -desc[1:]/desc[0];
        # rest has no zero at either end, so numpy.roots would strip nothing
        desc = np.array(rest[::-1], dtype=complex)
        companion = _subdiagonal(len(rest) - 1).copy()
        with np.errstate(over="ignore", invalid="ignore"):
            companion[0] = -desc[1:] / desc[0]
        if not np.isfinite(companion[0]).all():
            raise LevelGraphError(f"the leading coefficient {p.coeffs[-1]!r} is too small: "
                                  "the companion matrix of the root solve overflows a double")
        approx = np.linalg.eigvals(companion).tolist()
    discs, certified = _discs(rest, approx)
    terms = []
    for comp in _cluster([(0j, 0.0)] * m + discs):
        k = len(comp)
        if k == 1:  # the max below over a lone disc, with no generator
            c, r = comp[0]
            terms.append((c, 1, abs(c - c) + r))
            continue
        dk = p.coeffs
        for _ in range(k - 1):
            dk = derivative_coeffs(dk)
        center = _newton(dk, derivative_coeffs(dk), sum(c for c, _ in comp) / k)
        terms.append((center, k, max(abs(c - center) + r for c, r in comp)))
    terms.sort(key=lambda t: (t[0].real, t[0].imag))
    return terms, certified
