"""Univariate polynomial arithmetic over complex and real coefficients.

Coefficient vectors are stored ascending: ``coeffs[k]`` multiplies ``z**k``.
Containers are immutable; every operation returns a new polynomial.  Trailing
coefficients that are exactly zero are trimmed on construction, so the zero
polynomial has an empty coefficient tuple and ``degree == -1``.

Root finding goes through the companion matrix (``numpy.roots``) with Newton
polishing, followed by multiplicity detection by clustering.  Clusters are
validated with a dominant-term test before a multiplicity is accepted, which
keeps genuinely multiple roots together (companion eigenvalues of a k-fold
root scatter like eps**(1/k)) without gluing distinct roots that are merely
close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .config import ROOT_CLUSTER_TOL
from .errors import LevelGraphError, ZeroPolynomial


def _trimmed(values: Iterable[complex]) -> tuple:
    out = list(values)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _horner(coeffs: Sequence[complex], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _horner_array(rev: np.ndarray, z: np.ndarray) -> np.ndarray:
    """np.polyval(rev, z) with the same Horner recurrence, updated in place."""
    acc = np.zeros(z.shape, dtype=np.result_type(rev, z))
    for c in rev:
        acc *= z
        acc += c
    return acc


@dataclass(frozen=True)
class ComplexPolynomial:
    """Polynomial with complex double-precision coefficients, ascending."""

    coeffs: tuple

    def __init__(self, coeffs: Iterable[complex]):
        object.__setattr__(self, "coeffs", _trimmed(complex(c) for c in coeffs))

    @cached_property
    def _rev(self) -> np.ndarray:
        """Coefficients highest power first, for evaluation on arrays."""
        rev = np.array(self.coeffs[::-1], dtype=complex)
        rev.flags.writeable = False
        return rev

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
            if self.is_zero:
                return np.zeros_like(z, dtype=complex)
            return _horner_array(self._rev, z)
        return _horner(self.coeffs, complex(z))

    # -- calculus -----------------------------------------------------------

    def derivative(self) -> "ComplexPolynomial":
        return ComplexPolynomial(k * c for k, c in enumerate(self.coeffs) if k >= 1)

    def antiderivative(self) -> "ComplexPolynomial":
        """The antiderivative q with q' = self and q(0) = 0."""
        return ComplexPolynomial([0.0] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    def derivatives_at(self, z: complex, upto: int) -> list:
        """[p(z), p'(z), ..., p^(upto)(z)] by repeated synthetic division."""
        rem = list(self.coeffs)
        out = []
        fact = 1.0
        for j in range(upto + 1):
            out.append(_horner(rem, z) * fact)
            fact *= j + 1
            # divide by (x - z): Horner deflation
            if rem:
                new = [0j] * (len(rem) - 1)
                acc = 0j
                for k in range(len(rem) - 1, 0, -1):
                    acc = acc * z + rem[k]
                    new[k - 1] = acc
                rem = new
        return out

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0j] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0j] * (n - len(other.coeffs))
        return ComplexPolynomial(x + y for x, y in zip(a, b))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __neg__(self):
        return ComplexPolynomial(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return ComplexPolynomial(c * other for c in self.coeffs)
        other = _coerce(other)
        if self.is_zero or other.is_zero:
            return ComplexPolynomial([])
        out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return ComplexPolynomial(out)

    __rmul__ = __mul__


def _coerce(p) -> ComplexPolynomial:
    if isinstance(p, ComplexPolynomial):
        return p
    if isinstance(p, RealPolynomial):
        return ComplexPolynomial(p.coeffs)
    if isinstance(p, (int, float, complex)):
        return ComplexPolynomial([p])
    raise TypeError(f"cannot treat {type(p).__name__} as a polynomial")


@dataclass(frozen=True)
class RealPolynomial:
    """Polynomial with real double-precision coefficients, ascending."""

    coeffs: tuple

    def __init__(self, coeffs: Iterable[float]):
        object.__setattr__(self, "coeffs", _trimmed(float(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def coeff_scale(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    def __call__(self, y):
        if isinstance(y, np.ndarray):
            if self.is_zero:
                return np.zeros_like(y, dtype=float)
            return np.polyval(np.array(self.coeffs[::-1], dtype=float), y)
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * y + c
        return acc

    def derivative(self) -> "RealPolynomial":
        return RealPolynomial(k * c for k, c in enumerate(self.coeffs) if k >= 1)

    def __neg__(self):
        return RealPolynomial(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return RealPolynomial(c * other for c in self.coeffs)
        if isinstance(other, RealPolynomial):
            if self.is_zero or other.is_zero:
                return RealPolynomial([])
            out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return RealPolynomial(out)
        return NotImplemented

    __rmul__ = __mul__

    def to_complex(self) -> ComplexPolynomial:
        return ComplexPolynomial(self.coeffs)


@dataclass(frozen=True)
class RootWithMultiplicity:
    location: complex
    multiplicity: int
    cluster_radius: float


def as_complex_polynomial(w) -> ComplexPolynomial:
    """w as a ComplexPolynomial: real polynomials are widened, and a
    coefficient sequence (ascending) is wrapped."""
    if isinstance(w, ComplexPolynomial):
        return w
    if isinstance(w, RealPolynomial):
        return w.to_complex()
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
    # Taylor-shift to x0, then substitute iy termwise: b_k (iy)^k = b_k i^k y^k.
    shifted = list(p.coeffs)
    n = len(shifted)
    # repeated synthetic division computes the Taylor coefficients at x0
    taylor = []
    rem = shifted
    for _ in range(n):
        acc = 0j
        new = [0j] * (len(rem) - 1)
        for k in range(len(rem) - 1, 0, -1):
            acc = acc * x0 + rem[k]
            new[k - 1] = acc
        taylor.append(_horner(rem, x0))
        rem = new
    ik = 1 + 0j
    re, im = [], []
    for b in taylor:
        v = b * ik
        re.append(v.real)
        im.append(v.imag)
        ik *= 1j
    return RealPolynomial(re), RealPolynomial(im)


# ---------------------------------------------------------------------------
# root finding


def _newton_polish(p: ComplexPolynomial, z: complex, steps: int = 8) -> complex:
    dp = p.derivative()
    best, best_val = z, abs(p(z))
    for _ in range(steps):
        d = dp(z)
        if d == 0:
            break
        z = z - p(z) / d
        v = abs(p(z))
        if v < best_val:
            best, best_val = z, v
    return best


def _cluster(points: list, radius: float) -> list:
    """Single-link clustering of complex points with the given merge radius."""
    clusters: list[list[complex]] = []
    for z in sorted(points, key=lambda w: (w.real, w.imag)):
        placed = False
        for cl in clusters:
            if any(abs(z - w) <= radius for w in cl):
                cl.append(z)
                placed = True
                break
        if not placed:
            clusters.append([z])
    # single-link needs a second pass to merge chains that formed separately
    merged = True
    while merged:
        merged = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if any(abs(a - b) <= radius for a in clusters[i] for b in clusters[j]):
                    clusters[i].extend(clusters[j])
                    del clusters[j]
                    merged = True
                    break
            if merged:
                break
    return clusters


def _dominant_term_ok(p: ComplexPolynomial, center: complex, k: int, radius: float) -> bool:
    """True when p behaves like a k-fold root at `center` within `radius`.

    Checks that every Taylor term of order j < k is dominated by the order-k
    term on the circle |z - center| = radius.
    """
    ders = p.derivatives_at(center, k)
    r = max(radius, 1e-300)
    lead = abs(ders[k]) / math.factorial(k) * r**k
    if lead == 0:
        return False
    for j in range(k):
        if abs(ders[j]) / math.factorial(j) * r**j > 0.01 * lead:
            return False
    return True


def _refine_cluster(p: ComplexPolynomial, members: list, tol: float):
    """Turn a validated-or-not cluster into RootWithMultiplicity entries."""
    k = len(members)
    center = sum(members) / k
    if k == 1:
        loc = _newton_polish(p, center)
        return [RootWithMultiplicity(loc, 1, abs(loc - center))]
    # polish the center on the (k-1)-th derivative, where the root is simple
    dk = p
    for _ in range(k - 1):
        dk = dk.derivative()
    center = _newton_polish(dk, center)
    spread = max(abs(m - center) for m in members)
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
    polished = [_newton_polish(p, complex(z)) for z in raw]
    # generous exploration radius so the eps**(1/k) scatter of a multiple root
    # stays in one cluster; the dominant-term test splits false positives
    explore = max(tol, 2.5e-4 * (1.0 + max(abs(z) for z in polished)))
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
