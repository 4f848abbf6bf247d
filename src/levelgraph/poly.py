"""Univariate polynomial arithmetic over complex and real coefficients.

Coefficient vectors are stored ascending: ``coeffs[k]`` multiplies ``z**k``.
Containers are immutable; every operation returns a new polynomial.  Trailing
coefficients that are exactly zero are trimmed on construction, so the zero
polynomial has an empty coefficient tuple and ``degree == -1``.

This module is the package's only polynomial arithmetic.  One Horner loop,
``_horner``, evaluates at a scalar and elementwise on a NumPy array alike
(an array starts from a zeros array of the result type, so even the zero
polynomial gives a typed array).  ``divide_linear`` divides by (v - x), and
repeated, it gives the Taylor coefficients at x (``taylor_coeffs``): the
restriction to a vertical line, the exact sign of an integer polynomial
beside a point, and the cancellation of a known factor all come from it.

Root finding goes through the companion matrix (``numpy.roots``).  Each
eigenvalue gets one Newton pass, with p' built once: every step evaluates p
once, at the new point, and the pass stops at the first step that does not
lower |p| (at most 8 steps).  Multiplicities then come from clustering the
polished points.  Clusters are validated with a dominant-term test before a
multiplicity is accepted, which keeps genuinely multiple roots together
(companion eigenvalues of a k-fold root scatter like eps**(1/k)) without
gluing distinct roots that are merely close.

Each root reports a ``cluster_radius``.  For a simple root it is the Newton
inclusion radius n |p(z)| / |p'(z)| at the returned z, with |p(z)| bounded
above for rounding: some root of p lies within it.  The radius is kept
finite: it drops the rounding bound where that overflows, and is 0 where
p'(z) = 0 or the radius overflows even so.  For a k-fold cluster it is the
spread, the farthest distance from the reported center to one of the
cluster's polished points.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Sequence

import numpy as np

from .config import ROOT_CLUSTER_TOL
from .errors import LevelGraphError, ZeroPolynomial


def _trimmed(values: Iterable[complex]) -> tuple:
    out = list(values)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _horner(coeffs: Sequence[complex], z, acc):
    """p(z) for ascending coefficients; acc is the zero of the result type,
    a scalar or, for an array z, a zeros array of z's shape."""
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


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
class _Polynomial:
    """Coefficients in one number field, ascending; what both kinds share.

    A subclass names its field (``_field``, float or complex), the zero of
    that field, the scalar types it multiplies by and how a scalar argument
    is taken before evaluation (``_arg``), and adds its own operations.
    Results keep the subclass, so evaluating a real polynomial at a float
    gives a float.
    """

    coeffs: tuple

    def __init__(self, coeffs: Iterable):
        field = self._field
        object.__setattr__(self, "coeffs", _trimmed(field(c) for c in coeffs))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def coeff_scale(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, z):
        if isinstance(z, np.ndarray):
            return _horner(self.coeffs, z, np.zeros(z.shape, np.result_type(self._zero, z)))
        return _horner(self.coeffs, self._arg(z), self._zero)

    # -- algebra ------------------------------------------------------------

    def derivative(self):
        return type(self)(k * c for k, c in enumerate(self.coeffs) if k >= 1)

    def __neg__(self):
        return type(self)(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return type(self)(c * other for c in self.coeffs)
        if not isinstance(other, type(self)):
            # a real factor widens to complex; a complex one is not narrowed
            if not isinstance(other, RealPolynomial):
                return NotImplemented
            other = other.to_complex()
        if self.is_zero or other.is_zero:
            return type(self)([])
        out = [self._zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return type(self)(out)

    __rmul__ = __mul__


class ComplexPolynomial(_Polynomial):
    """Polynomial with complex double-precision coefficients, ascending."""

    _field = complex
    _zero = 0j
    _scalars = (int, float, complex)
    _arg = complex

    def antiderivative(self) -> "ComplexPolynomial":
        """The antiderivative q with q' = self and q(0) = 0."""
        return ComplexPolynomial([0.0] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    def __add__(self, other):
        pairs = zip_longest(self.coeffs, as_complex_polynomial(other).coeffs, fillvalue=0j)
        return ComplexPolynomial(x + y for x, y in pairs)

    def __sub__(self, other):
        return self + (-as_complex_polynomial(other))


class RealPolynomial(_Polynomial):
    """Polynomial with real double-precision coefficients, ascending."""

    _field = float
    _zero = 0.0
    _scalars = (int, float)
    _arg = operator.pos  # z as given: a complex z gives a complex value

    def to_complex(self) -> ComplexPolynomial:
        return ComplexPolynomial(self.coeffs)


@dataclass(frozen=True)
class RootWithMultiplicity:
    """A root of p, its multiplicity and a radius about its location.

    For a simple root, cluster_radius is the Newton inclusion radius
    n |p(z)| / |p'(z)| at location (n = deg p, |p(z)| plus its rounding
    bound): since p'/p = sum 1/(z - r_j), some root of p lies within it.
    In a tight cluster that root may be a neighbour rather than the one
    location approximates.  The radius is always finite (0 where the bound
    is not; see _newton_polish).
    For a k-fold cluster it is the spread: the largest distance from
    location to the cluster's polished companion eigenvalues.
    """

    location: complex
    multiplicity: int
    cluster_radius: float


def as_complex_polynomial(w) -> ComplexPolynomial:
    """w as a ComplexPolynomial: real polynomials are widened, a scalar is a
    constant, and a coefficient sequence (ascending) is wrapped."""
    if isinstance(w, ComplexPolynomial):
        return w
    if isinstance(w, RealPolynomial):
        return w.to_complex()
    if isinstance(w, (int, float, complex)):
        return ComplexPolynomial([w])
    return ComplexPolynomial(w)


def from_roots(roots: Sequence[complex], leading: complex = 1.0) -> ComplexPolynomial:
    """Monic-times-`leading` polynomial with the given roots (with repetition)."""
    p = ComplexPolynomial([leading])
    for r in roots:
        p = p * ComplexPolynomial([-r, 1.0])
    return p


def restrict_to_vertical_line(p: ComplexPolynomial, x0: float):
    """p restricted to the line Re z = x0, split into real and imaginary parts.

    Returns real polynomials (re, im) in the variable y with
    re(y) + i*im(y) = p(x0 + iy).
    """
    # Taylor-shift to x0, then substitute iy termwise: b_k (iy)^k = b_k i^k y^k
    re, im = [], []
    for k, b in enumerate(taylor_coeffs(p.coeffs, x0, len(p.coeffs))):
        v = b * I_POWERS[k % 4]
        re.append(v.real)
        im.append(v.imag)
    return RealPolynomial(re), RealPolynomial(im)


# ---------------------------------------------------------------------------
# root finding


def _newton_polish(p: ComplexPolynomial, dp: ComplexPolynomial, z: complex,
                   steps: int = 8) -> tuple:
    """One Newton pass from z: (the point of least |p| seen, its inclusion radius).

    Each step evaluates p once, at the new point, and the pass stops at the
    first step that does not lower |p|, or after `steps` steps.  Since
    p'/p = sum 1/(z - r_j), some root r_j lies within n |p(z)| / |p'(z)| of
    the returned z (n = deg p); that distance is the radius.  |p(z)| there is
    the computed value plus a bound on its rounding, 2 (n + 1) eps
    sum |c_k| |z|^k, so a value that happens to round to 0 cannot shrink the
    radius to 0; only the rounding of p'(z) is left unbounded.  The radius
    is kept finite: where the rounding bound overflows it uses the computed
    |p(z)| alone, and where that is not finite either, or p'(z) = 0, it is 0,
    leaving the caller's own tolerance as the only band.
    """
    v = p(z)
    for _ in range(steps):
        d = dp(z)
        if d == 0:
            break
        step = z - v / d
        v_step = p(step)
        if not abs(v_step) < abs(v):
            break
        z, v = step, v_step
    else:
        d = dp(z)
    n = p.degree
    scale = _horner([abs(c) for c in p.coeffs], abs(z), 0.0)
    bound = abs(v) + 2 * (n + 1) * sys.float_info.epsilon * scale
    if d != 0:
        for residual in (bound, abs(v)):
            radius = n * residual / abs(d)
            if math.isfinite(radius):
                return z, radius
    return z, 0.0


def _cluster(points: list, radius: float) -> list:
    """Single-link clustering of (location, radius) pairs by location.

    Points closer than the given merge radius share a cluster: each point,
    in sorted order, joins every cluster it touches, merging them.
    """
    clusters: list[list[tuple]] = []
    for pt in sorted(points, key=lambda q: (q[0].real, q[0].imag)):
        near, far = [], []
        for cl in clusters:
            (near if any(abs(pt[0] - q[0]) <= radius for q in cl) else far).append(cl)
        clusters = far + [[q for cl in near for q in cl] + [pt]]
    return clusters


def _dominant_term_ok(p: ComplexPolynomial, center: complex, k: int, radius: float) -> bool:
    """True when p behaves like a k-fold root at `center` within `radius`.

    Checks that every Taylor term of order j < k is dominated by the order-k
    term on the circle |z - center| = radius.
    """
    taylor = taylor_coeffs(p.coeffs, center, k + 1)
    r = max(radius, 1e-300)
    lead = abs(taylor[k]) * r**k
    if lead == 0:
        return False
    for j in range(k):
        if abs(taylor[j]) * r**j > 0.01 * lead:
            return False
    return True


def _refine_cluster(p: ComplexPolynomial, members: list, tol: float):
    """Turn a validated-or-not cluster of (location, radius) pairs into
    RootWithMultiplicity entries."""
    k = len(members)
    if k == 1:
        # polished once in roots; the pair carries its inclusion radius
        location, radius = members[0]
        return [RootWithMultiplicity(location, 1, radius)]
    locations = [m[0] for m in members]
    # polish the center on the (k-1)-th derivative, where the root is simple
    dk = p
    for _ in range(k - 1):
        dk = dk.derivative()
    center, _ = _newton_polish(dk, dk.derivative(), sum(locations) / k)
    spread = max(abs(m - center) for m in locations)
    if _dominant_term_ok(p, center, k, max(2.0 * spread, tol)):
        return [RootWithMultiplicity(center, k, spread)]
    # not a genuine k-fold root: fall back to tighter subclusters
    subs = _cluster(members, tol)
    if len(subs) == 1:
        # cannot split further; report as-is rather than loop forever
        return [RootWithMultiplicity(center, k, spread)]
    out = []
    for sub in subs:
        out.extend(_refine_cluster(p, sub, tol))
    return out


def roots(p: ComplexPolynomial) -> list:
    """All roots of p with multiplicities.

    Clusters are merged within ROOT_CLUSTER_TOL * (1 + max |coeff|).
    Returned roots are sorted by real part, then imaginary part, and their
    multiplicities sum to the degree.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot extract roots of the zero polynomial")
    if p.degree == 0:
        return []
    tol = ROOT_CLUSTER_TOL * (1.0 + p.coeff_scale)
    raw = np.roots(np.array(p.coeffs[::-1], dtype=complex))
    dp = p.derivative()
    polished = [_newton_polish(p, dp, complex(z)) for z in raw]
    # generous exploration radius so the eps**(1/k) scatter of a multiple root
    # stays in one cluster; the dominant-term test splits false positives
    explore = max(tol, 2.5e-4 * (1.0 + max(abs(z) for z, _ in polished)))
    out: list[RootWithMultiplicity] = []
    for cl in _cluster(polished, explore):
        out.extend(_refine_cluster(p, cl, tol))
    out.sort(key=lambda r: (r.location.real, r.location.imag))
    found = sum(r.multiplicity for r in out)
    if found != p.degree:
        raise LevelGraphError(
            f"root multiplicities sum to {found}, not the degree {p.degree}"
        )
    return out
