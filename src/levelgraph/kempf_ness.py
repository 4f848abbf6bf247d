"""Gradient flow of the height energy on graphs over an interval.

Graphs y = f(x) over (a, b) with pinned endpoint heights are discretized on
an interior Gauss-Legendre grid: open quadrature keeps the weight sigma,
which vanishes linearly at both endpoints, strictly positive at every node,
so quotients like Im(w)/sigma never hit 0/0.  Differentiation is spectral,
through the barycentric form on the full node set (endpoints included);
weights are handled in log magnitude so degree-250+ grids do not overflow,
and the diagonal is the negative row sum, which makes the derivative of a
constant vanish identically.

The energy J is defined through its time derivative along a path,
dJ/dt = integral of (df/dt) Im(w(x+if)) / sigma, and the flow descends it:
df/dt = -Im(w(x+if)) pointwise.  Along the flow dJ/dt = -integral of
Im(w)^2/sigma <= 0.

With W' = w, d/dy Re W(x+iy) = -Im w(x+iy), so J depends only on the
state: J(f) = integral of (Re W(x+if0) - Re W(x+if))/sigma.

The right-hand side acts node by node, so its Jacobian is the diagonal
-Re w'(x+if).  run_flow takes error-controlled exponential Rosenbrock steps
(exprb32) that treat this diagonal exactly through elementwise
phi-functions, so no explicit stability bound limits the step.  Each step's
J increment is exact: node by node it is the integral of Im w(x+iy) dy from
the old height to the new one, a polynomial in y that a short Gauss-Legendre
rule integrates exactly.  J can then rise only through integrator error, and
a step whose increment is positive is rejected, so a nonincreasing J is a
checked property of the recorded trace.  Most runs end from their start:
Newton steps take each node to a limit, and one path certificate proves
that Im w increases along each node's vertical line from the node to that
limit, so it is the first zero on the flow's side; the limit is recorded
at the time by which the exact flow meets the stop test.

During a flow the nodes x_j never move; only the heights y do.  run_flow
therefore tabulates, once per call and by poly.line_coeffs on the node
array, C_k(x_j) = i^k w^(k)(x_j)/k!, so that w(x_j + iy) = sum_k C_k y^k.
Im w = sum Im C_k y^k, Re w' = sum k Im C_k y^(k-1) and
Im w' = -sum k Re C_k y^(k-1) are then real polynomials in y.  Under
their three coefficient rows the Im w rows are stacked once more for each
Gauss height of a J increment, so one pass of poly._horner gives a trial
step that passed its error test both its J increment and its new state's
right-hand side, Jacobian and membership integrand.  The start state takes
the same pass with a zero step, and the stage value F(U) the Im w rows
alone.  Each element goes through the same operations as in separate
passes.
Every pass sums in place, in a zeros accumulator that run_flow makes once
per call, and so do F(U), the exprb32 step with its phi-functions, the J
increment, f' and the membership integrand: a trial allocates no array,
and each accepted state takes the one new array its trial was written
into.  The operations and their order are those of the plain formulas, so
every value keeps its bits (tests/reference_flow.py holds the plain trial).

The Gauss-Legendre rule and the node rows of the differentiation matrix
are built once per grid size on [-1, 1] and mapped affinely onto each
interval.  The rows are kept as their interior block and two endpoint
columns, so the flow's f' at the nodes is one n-by-n product plus a fixed
endpoint term, scaled by 2/(b - a).  A GridFunction is validated on
construction: its nodes must be this map of the Gauss nodes (within
TOL.grid_match (b - a)), so quadrature and differentiation look their rule
up without checking the grid again.

numpy is imported inside each function that builds or reads an array, not
at module level: importing this module loads no numpy, and the first grid,
sigma or flow does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from . import config
from .config import GRID_NODES
from .errors import Diverged, NonIntegrableEndpoint
from .poly import ComplexPolynomial, _horner, line_coeffs

__all__ = [
    "GridFunction",
    "BackgroundSigma",
    "FlowTrace",
    "gauss_interior_nodes",
    "make_grid_function",
    "derivative_values",
    "default_sigma",
    "membership",
    "run_flow",
    "second_variation_at",
]

_T_MAX = 200.0  # run_flow's horizon: a run stops here if stop_tol is not met before
# the finish's Newton steps at most, a safety cap only (the witness flows of
# bench/gen.py seeds 1-4 take at most 7): the certificate, not the count,
# proves the limit, and a start whose stop rule is not met within it is left
# to the time steps
_NEWTON_STEPS = 12

@lru_cache(maxsize=16)
def _reference_rule(n: int):
    import numpy as np

    xi, wt = np.polynomial.legendre.leggauss(n)
    xi.flags.writeable = False
    wt.flags.writeable = False
    return xi, wt


def _gauss_rule(a: float, b: float, n: int):
    xi, wt = _reference_rule(n)
    return 0.5 * (a + b) + 0.5 * (b - a) * xi, 0.5 * (b - a) * wt


def gauss_interior_nodes(a: float, b: float, n: int = GRID_NODES) -> np.ndarray:
    """Interior Gauss-Legendre nodes of (a, b), ascending."""
    return _gauss_rule(float(a), float(b), int(n))[0]


@lru_cache(maxsize=16)
def _reference_operator(n: int):
    """Node rows of the differentiation matrix on -1, the n Gauss-Legendre
    nodes of [-1, 1] and 1: the contiguous n-by-n interior block and the
    columns of the endpoints -1 and 1."""
    import numpy as np

    x = np.concatenate([[-1.0], _reference_rule(n)[0], [1.0]])
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, 1.0)
    # barycentric weights in log magnitude; signs tracked separately
    logw = -np.sum(np.log(np.abs(d)), axis=1)
    sign = np.where(np.arange(n + 2)[::-1] % 2 == 0, 1.0, -1.0)  # sorted nodes
    mat = (sign[:, None] * sign[None, :]) * np.exp(logw[None, :] - logw[:, None]) / d
    np.fill_diagonal(mat, 0.0)
    np.fill_diagonal(mat, -mat.sum(axis=1))
    parts = (np.ascontiguousarray(mat[1:-1, 1:-1]), mat[1:-1, 0].copy(), mat[1:-1, -1].copy())
    for part in parts:
        part.flags.writeable = False
    return parts


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Heights at the interior Gauss-Legendre nodes of (a, b) plus pinned
    endpoint heights."""

    a: float
    b: float
    nodes: np.ndarray
    values: np.ndarray
    boundary: tuple

    def __post_init__(self):
        import numpy as np

        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        nodes = np.array(self.nodes, dtype=float)
        values = np.array(self.values, dtype=float)
        if not self.a < self.b:
            raise ValueError("interval must satisfy a < b")
        if nodes.ndim != 1 or values.shape != nodes.shape:
            raise ValueError("nodes and values must be matching 1-d arrays")
        if nodes.size < 2:
            raise ValueError("need at least two interior nodes")
        gauss = _gauss_rule(self.a, self.b, nodes.size)[0]
        if not (np.abs(nodes - gauss) <= config.TOL.grid_match * (self.b - self.a)).all():
            raise ValueError("nodes must be the Gauss-Legendre nodes of (a, b)")
        if not np.isfinite(values).all():
            raise ValueError("nonfinite height values")
        p, q = map(float, self.boundary)
        if not (math.isfinite(p) and math.isfinite(q)):
            raise ValueError("nonfinite boundary heights")
        nodes.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "boundary", (p, q))


def make_grid_function(a, b, fn, n: int = GRID_NODES, *, boundary) -> GridFunction:
    """Sample a callable on the Gauss-Legendre grid of (a, b), with the end
    heights boundary = (f(a), f(b))."""
    import numpy as np

    nodes = gauss_interior_nodes(a, b, n)
    return GridFunction(a, b, nodes, np.asarray(fn(nodes), dtype=float), boundary)


def derivative_values(f: GridFunction) -> np.ndarray:
    """df/dx at the interior nodes (spectral).

    Subtraction form: sum_j D_ij (f_j - f_i), the endpoint columns taking
    f(a) - f_i and f(b) - f_i.  Every term vanishes exactly when f is
    constant, so no rounding survives regardless of summation order -- a
    plain matvec against the negative-sum diagonal does not quite achieve
    that.  The sum is taken on [-1, 1] and scaled once by 2/(b - a).
    """
    import numpy as np

    inner, left, right = _reference_operator(len(f.nodes))
    v = f.values
    der = np.einsum("ij,ij->i", inner, v[None, :] - v[:, None])
    der += left * (f.boundary[0] - v) + right * (f.boundary[1] - v)
    return der * (2.0 / (f.b - f.a))


@dataclass(frozen=True, eq=False)
class BackgroundSigma:
    """Positive weight on the interior nodes, vanishing linearly at a and b."""

    values: np.ndarray

    def __post_init__(self):
        import numpy as np

        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or not (values > 0).all():
            raise ValueError("sigma must be strictly positive on the interior")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def default_sigma(a: float, b: float, nodes: np.ndarray) -> BackgroundSigma:
    """sigma = (x-a)(b-x)/(b-a), with slope 1 at both endpoints."""
    import numpy as np

    x = np.asarray(nodes, dtype=float)
    return BackgroundSigma((x - a) * (b - x) / (b - a))


def _quadrature_for(f: GridFunction) -> np.ndarray:
    """Gauss-Legendre weights of f's grid."""
    return _gauss_rule(f.a, f.b, len(f.nodes))[1]


def _check_sigma(f: GridFunction, sigma: BackgroundSigma):
    if len(sigma.values) != len(f.nodes):
        raise ValueError("sigma grid does not match the function grid")


def membership(f: GridFunction, w: ComplexPolynomial):
    """Is the graph of f inside the region where heights can only improve?

    Returns (in_set, min_value) where min_value is the minimum over nodes of
    d/dx Re(w(x+if)) = Re(w'(z)) - f'(x) Im(w'(z)).
    """
    import numpy as np

    wp = w.derivative()
    z = f.nodes + 1j * f.values
    d = wp(z)
    vals = d.real - derivative_values(f) * d.imag
    mn = float(np.min(vals))
    return mn > 0.0, mn


@dataclass(frozen=True)
class FlowTrace:
    """Recorded history of one flow run; J is relative to the start."""

    times: list
    J_values: list
    residual_sup: list
    membership_min: list
    final: GridFunction = field(repr=False)
    rejected_steps: int = 0
    stop: str = "stop_tol"  # why the run ended: "stop_tol", "limit" or "horizon" (see run_flow)

    def __post_init__(self):
        k = len(self.times)
        if not (len(self.J_values) == len(self.residual_sup) == len(self.membership_min) == k):
            raise ValueError("trace columns must have equal length")
        if k and self.J_values[0] != 0.0:
            raise ValueError("J is measured relative to the start")
        if self.stop not in ("stop_tol", "limit", "horizon"):
            raise ValueError(f"unknown stop reason {self.stop!r}")


# phi_3(z) = sum_k z^k / (k + 3)!, summed for |z| < _PHI3_SWITCH, where the
# closed form cancels; 11 terms reach the rounding level there, and past it
# the closed form stays within 5e-15 relative
_PHI3_SWITCH = 0.35
_PHI3_SERIES = tuple(1.0 / math.factorial(k + 3) for k in range(11))


def _phi1(z: np.ndarray, em1: np.ndarray, out: np.ndarray) -> np.ndarray:
    """phi_1(z) = (e^z - 1)/z elementwise, with phi_1(0) = 1, written into
    out and returned; em1 is np.expm1(z), which _phi3 shares.

    expm1 keeps the quotient accurate to rounding at every z != 0.  When no
    entry is zero the quotient is one plain division; otherwise the zeros
    keep the value 1 and the division fills the rest.
    """
    import numpy as np

    if np.count_nonzero(z) == z.size:
        return np.divide(em1, z, out=out)
    out.fill(1.0)
    return np.divide(em1, z, out=out, where=z != 0.0)


def _phi3(z: np.ndarray, em1: np.ndarray, out: np.ndarray, num: np.ndarray, den: np.ndarray,
          small: np.ndarray) -> np.ndarray:
    """phi_3(z) = (e^z - 1 - z - z^2/2)/z^3 elementwise, with phi_3(0) = 1/6,
    written into out and returned; em1 is np.expm1(z), which _phi1 shares.
    num, den (floats) and small (bools) are work arrays of z's shape.

    The series is summed by poly._horner where |z| is below the switch and
    the closed form is taken where |z| is at or past it.  When any entry
    lies below the switch, the series is summed once over the whole array;
    the closed form then overwrites it where |z| is at or past the switch,
    and runs alone, on the whole array, when no entry lies below.  The sum
    is elementwise, so each entry gets the same operations either way; a
    series entry past the switch that overflows is overwritten.
    """
    import numpy as np

    count = np.count_nonzero(np.less(np.abs(z, out=num), _PHI3_SWITCH, out=small))
    if count:
        out.fill(0.0)
        _horner(_PHI3_SERIES, z, out)
    # the closed form: num = (em1 - z) - (0.5 z) z, den = (z z) z
    np.subtract(em1, z, out=num)
    np.multiply(0.5, z, out=den)
    den *= z
    num -= den
    np.multiply(z, z, out=den)
    den *= z
    if not count:
        return np.divide(num, den, out=out)
    return np.divide(num, den, out=out, where=np.invert(small, out=small))


def _exprb32(vals: np.ndarray, k: np.ndarray, jac: np.ndarray, rhs, dt: float,
             out: np.ndarray, work):
    """One exprb32 step of f' = rhs(f) from vals, with k = rhs(vals) and jac
    the diagonal Jacobian of rhs at vals: the new state is written into out,
    and (out, error estimate) is returned.

    U = vals + dt phi1(dt jac) k is formed as e^{dt jac} vals plus dt phi1
    times the nonlinear remainder k - jac vals: the same value, but a mode
    that decays by e^{dt jac} keeps its relative accuracy.  The arrays are
    combined in place, in the order of the formulas; vals, k and jac are
    not written.  One expm1(dt jac) serves both phi-functions; e^{dt jac}
    is its own exp, which costs no more than adding 1 to expm1 and keeps
    the relative accuracy of a mode that decays to a tiny factor, where
    expm1 + 1 rounds to a multiple of eps/2.

    work is the trial's work arrays of vals' shape, five of floats and one
    of bools; the error estimate is formed in the fifth.  rhs(U) returns
    F(U) in an array that the step may overwrite (run_flow's F(U) row), so
    a trial allocates no array.
    """
    import numpy as np

    hj, em1, t1, t2, corr, small = work
    np.multiply(dt, jac, out=hj)
    np.expm1(hj, out=em1)
    u = np.exp(hj, out=out)
    u *= vals
    rem = np.multiply(jac, vals, out=t1)
    np.subtract(k, rem, out=rem)
    step = _phi1(hj, em1, t2)
    step *= dt
    step *= rem
    u += step
    # D = rhs(U) - k - jac (U - vals)
    d = rhs(u)
    d -= k
    moved = np.subtract(u, vals, out=t1)
    moved *= jac
    d -= moved
    corr = _phi3(hj, em1, corr, t1, t2, small)
    corr *= 2.0 * dt
    corr *= d
    u += corr
    return u, corr


def _step_pass(stacked: np.ndarray, yi: np.ndarray, yw: np.ndarray, qw: np.ndarray,
               old: np.ndarray, new: np.ndarray, heights: np.ndarray, half: np.ndarray,
               rows: np.ndarray):
    """One Horner pass from the state old to new: (J(new) - J(old), the
    three state rows at new).

    J(new) - J(old) is the sum of qw times the integral of Im w(x + iy) dy
    from old to new at each node, which the Gauss rule (yi, a column, and
    yw) in y takes exactly.  stacked holds the three state rows of
    _vertical_line_tables, the first negated to the right-hand side -Im w,
    over that row once more for each Gauss height.  The pass is formed in
    rows, of the pass's shape, with heights (the same shape) and half (one
    row) as work arrays.
    """
    import numpy as np

    np.subtract(new, old, out=half)
    half *= 0.5
    mid, gauss = heights[0], heights[3:]
    np.add(new, old, out=mid)
    mid *= 0.5
    np.multiply(yi, half, out=gauss)
    np.add(mid, gauss, out=gauss)
    heights[:3] = new
    rows.fill(0.0)
    _horner(stacked, heights, rows)
    np.multiply(qw, half, out=half)
    half *= np.matmul(yw, rows[3:], out=heights[0])
    return -float(half.sum()), rows[:3]


def _vertical_line_tables(w, x: np.ndarray, copies: int = 0) -> np.ndarray:
    """Coefficient rows, ascending in y, of Im w, Re w' and Im w' on the
    vertical lines through the points x, then copies rows of -Im w.

    Returns an array of shape (deg w + 1, 3 + copies, len(x)), at least one
    row deep (the zero polynomial gives one row of zeros).  Its Horner sum
    at heights y (poly._horner) is the (3 + copies, len(x)) array of Im w,
    Re w' and Im w' at x + iy, then -Im w at each further height.  With
    C_k = i^k w^(k)(x)/k! (poly.line_coeffs), w(x + iy) = sum C_k y^k;
    and since d/dy w(x + iy) = i w'(x + iy), Re w' = sum k Im C_k y^(k-1)
    and Im w' = -sum k Re C_k y^(k-1).  The nodes reach line_coeffs as one
    complex array, cast once: numpy would cast the real nodes to the same
    complex values in each synthetic-division product.
    """
    import numpy as np

    coeffs = w.coeffs or (0j,)
    n = len(coeffs)
    c = np.array(line_coeffs(coeffs, np.asarray(x, dtype=complex), n))
    table = np.zeros((n, 3 + copies, len(x)))
    table[:, 0] = c.imag
    k = np.arange(1, n)[:, None]
    table[:-1, 1] = k * c.imag[1:]
    table[:-1, 2] = -k * c.real[1:]
    np.negative(c.imag[:, None], out=table[:, 3:])
    return table


def _path_tables(stacked: np.ndarray) -> tuple:
    """The rows of run_flow's path certificate, from its stacked table
    (whose first two rows are -V = -sum a_k y^k and V' = sum b_k y^k).

    The signed table stacks V', V'' and |a_k|, zero-padded, to be summed at
    the heights c, c and |y**|; the majorant table stacks |b_k| and the
    magnitudes of the coefficients of V'' and V''', to be summed at
    r = |c| + rho: the first two bound the rounding of V'(c) and V''(c),
    the third |V'''| on [-r, r].  Each coefficient of V'' and V''' is
    k (k - 1) a_k or k (k - 1) (k - 2) a_k, an exact integer times a_k,
    rounded once.
    """
    import numpy as np

    n, m = len(stacked), stacked.shape[2]
    a = stacked[:, 0]  # -a_k
    k = np.arange(n, dtype=float)[:, None]
    signed = np.zeros((n, 3, m))
    signed[:, 0] = stacked[:, 1]
    np.multiply(a[2:], -(k[2:] * (k[2:] - 1.0)), out=signed[:n - 2, 1])
    np.abs(a, out=signed[:, 2])
    majorant = np.zeros((max(n - 1, 1), 3, m))
    np.abs(signed[:n - 1, :2], out=majorant[:n - 1, :2])
    np.abs(a[3:] * (k[3:] * (k[3:] - 1.0) * (k[3:] - 2.0)), out=majorant[:n - 3, 2])
    return signed, majorant


def _newton(rows: np.ndarray, vals: np.ndarray, out: np.ndarray, acc: np.ndarray):
    """Newton steps y <- y - V / V' at every node from vals, written into
    out and returned, or None when the stop rule is not met within
    _NEWTON_STEPS steps; rows are the rows of -V and V' (the first two of
    run_flow's stacked table), and acc a work array of two rows.

    The stop rule reads the largest correction d_n of step n.  It stops
    once d_n stops shrinking (d_n >= d_(n-1), or d_n is not finite): the
    corrections are rounding.  Or it stops once quadratic convergence puts
    the next correction below the rounding of the heights: d_(n+1) is about
    K d_n^2 with K about d_n / d_(n-1)^2, so it stops at
    d_n (d_n / d_(n-1))^2 <= eps max|y|.  Heights that all tend to 0 step
    on until their corrections underflow.
    """
    import numpy as np

    eps = np.finfo(float).eps
    np.copyto(out, vals)
    last = math.inf
    for n in range(_NEWTON_STEPS):
        acc.fill(0.0)
        _horner(rows, out, acc)
        step = np.divide(acc[0], acc[1], out=acc[0])
        out += step
        d = float(np.abs(step, out=acc[1]).max())
        if not d < last:
            return out
        if n and d * (d / last) ** 2 <= eps * float(np.abs(out, out=acc[1]).max()):
            return out
        last = d
    return None


def _rounding_bound(sums: np.ndarray, n: int) -> np.ndarray:
    """The a priori rounding bound of Horner sums of n terms, written over
    sums, the Horner sums of the terms' magnitudes, and returned.

    A Horner sum of n terms, each coefficient rounded at most once, errs by
    at most (2n + 2) u times the sum of its terms' magnitudes (Higham,
    Accuracy and Stability of Numerical Algorithms, 5.1): s = 4 n eps times
    that sum covers it and the rounding of the magnitudes' own sum, and n
    times the least subnormal covers underflow.
    """
    import numpy as np

    sums *= 4.0 * n * np.finfo(float).eps
    sums += n * np.finfo(float).smallest_subnormal
    return sums


def _certify_path(vals: np.ndarray, limit: np.ndarray, rows: np.ndarray, tables: tuple,
                  at: np.ndarray, sums: np.ndarray, work):
    """The path certificate of run_flow's finish, from the state vals to
    its Newton limit: lam = min lam_j when every node passes, else None.
    rows are the three state rows at the limit (-V, V' and Im w'), at and
    sums two work arrays of three rows, and work three float arrays of
    vals' shape.

    At node j, with y = vals_j, y** = limit_j, c = (y + y**)/2, the pad
    p_j = 2^11 (|V(y**)| + e_V) / |V'(y**)| and rho = (|y** - y|/2 + p_j)
    (1 + s):
        lam_j = V'(c) - e_1 - rho (|V''(c)| + e_2) - (1 + s) rho^2 M_3 / 2.
    e_V, e_1 and e_2 bound the rounding of V(y**), V'(c) and V''(c)
    (_rounding_bound, with s = 4 n eps); e_1 and e_2 are taken at
    r = |c| + rho, which can only raise them, and
    M_3 = sum |k (k-1) (k-2) a_k| r^(k-3) bounds |V'''| on [-r, r].  By
    Taylor's theorem at c, lam_j bounds V' from below on [c - rho,
    c + rho]; since e_1 >= s |V'(c)| and e_2 >= s |V''(c)|, they also
    cover the rounding of lam_j's own sum.

    A node passes when lam_j > |V'(y**)| / 2^10.  Then
    eta_j = (|V(y**)| + e_V) / lam_j < p_j / 2, without eta_j being
    formed.  The two powers of 2 are one choice: the test lets V' fall to
    2^-10 of its value at the limit along the path, and the pad it needs
    is 2^11 times the next Newton correction at y**, raised by its
    rounding bound: at a converged limit that lies at the rounding level
    of y**, so the pad widens the interval by next to nothing.  So V, strictly increasing on [c - rho, c + rho], has exactly
    one zero there, y*_j, within eta_j of y**: the interval holds y and
    y** +- eta_j with the other half of p_j to spare.  That half covers
    the rounding of c, since |y V'(y)| <= n sum |a_k| |y|^k gives
    p_j >= 2^13 eps |y**|; rho's factor 1 + s covers its own rounding.  A
    zero, negative or nonfinite lam_j fails, and so does a zero or
    nonfinite V'(y**): every comparison is false on nan.
    """
    import numpy as np

    signed, majorant = tables
    mid, rho, low = work
    n = len(signed)
    slack = 4.0 * n * np.finfo(float).eps
    # the signed pass: V'(c), V''(c) and sum |a_k| |y**|^k
    np.add(vals, limit, out=mid)
    mid *= 0.5
    at[0] = mid
    at[1] = mid
    np.abs(limit, out=at[2])
    sums.fill(0.0)
    dv, ddv, pad = _horner(signed, at, sums)
    # pad = 2^11 (|V(y**)| + e_V) / |V'(y**)|
    _rounding_bound(pad, n)
    pad += np.abs(rows[0], out=low)
    pad *= 2048.0
    pad /= np.abs(rows[1], out=low)
    # rho = (|y** - y| / 2 + pad) (1 + s)
    np.subtract(limit, vals, out=rho)
    np.abs(rho, out=rho)
    rho *= 0.5
    rho += pad
    rho *= 1.0 + slack
    # the majorant pass at r = |c| + rho
    reach = np.abs(mid, out=mid)
    reach += rho
    at.fill(0.0)
    m1, m2, m3 = _horner(majorant, reach, at)
    # lam = V'(c) - e_1 - rho (|V''(c)| + e_2) - (1 + s) rho^2 M_3 / 2
    dv -= _rounding_bound(m1, n)
    np.abs(ddv, out=ddv)
    ddv += _rounding_bound(m2, n)
    ddv *= rho
    dv -= ddv
    m3 *= rho
    m3 *= rho
    m3 *= 0.5 * (1.0 + slack)
    dv -= m3
    np.abs(rows[1], out=low)
    low *= 2.0 ** -10
    np.subtract(dv, low, out=low)
    if not float(low.min()) > 0.0:
        return None
    return float(dv.min())


def _within_rounding(vals: np.ndarray, k: np.ndarray, scales: np.ndarray, work) -> bool:
    """Whether |V(y)| at every node lies within the rounding bound of its
    Horner sum (_rounding_bound); k = -V at the state vals, and scales the
    rows |a_k|.  work is two float arrays of vals' shape."""
    import numpy as np

    size, bound = work
    np.abs(vals, out=size)
    bound.fill(0.0)
    _horner(scales, size, bound)
    _rounding_bound(bound, len(scales))
    bound -= np.abs(k, out=size)
    return bool(bound.min() >= 0.0)


def run_flow(
    f0: GridFunction,
    w: ComplexPolynomial,
    sigma: BackgroundSigma,
    stop_tol: float | None = None,
) -> FlowTrace:
    """Flow f0 downhill until the height residual drops below stop_tol.

    Integrator.  The right-hand side -Im w(x + if) acts node by node, so its
    Jacobian is the diagonal -Re w'(z).  Each step is the exponential
    Rosenbrock method exprb32 (Hochbruck, Ostermann & Schweitzer, SIAM J.
    Numer. Anal. 47, 2009) on that diagonal: with F the right-hand side,
    J_n = -Re w'(z_n) and the elementwise phi-functions,

        U     = f + dt phi1(dt J_n) F(f)
        f_new = U + 2 dt phi3(dt J_n) D,   D = F(U) - F(f) - J_n (U - f).

    The linear part is treated exactly, so no stability bound limits dt.
    The correction 2 dt phi3 D is the embedded error estimate: a step is
    accepted when its sup is at most TOL.flow_step_rtol * sup|Im w| * dt.

    Step test.  Node j is the scalar ODE y' = -V_j(y), V_j(y) = Im w(x_j +
    iy): it moves monotonically toward the first zero y*_j of V_j on its
    side of f0(x_j), and stops there.  J is a function of the state, each
    step adds its exact increment and is checked nonincreasing, and
    stop_tol fixes where the run ends.  So the final graph, the final J and
    the stop do not depend on how closely the trajectory is followed, and
    the test has two jobs only.
    - Keep each node in its basin.  Each accepted step departs from the
      exact step from the same state by its error estimate, at most
      rtol sup|Im w| dt, and where Re w' >= 0 along the way the scalar flow
      does not spread two solutions apart.  So, as far as the estimates
      hold, the accepted heights stay within
      E = rtol * sum of residual_sup[n] (times[n+1] - times[n]) of the
      exact trajectory.  While E is below the distance from each node's
      path to the next zero of V_j, the node ends in the basin of y*_j;
      its residual is then below stop_tol, and since V_j' = Re w', it lies
      within stop_tol / min Re w' of y*_j (min over the segment between).
      A run that the finish ends lies within the certified eta_j of y*_j
      (see Finish), and at it to the rounding that Newton's stop rule
      reads.
    - Bound the membership reading.  membership_min_over_run is a minimum
      over accepted states.  Along the flow f' obeys f'_t = -(Im w' +
      f' Re w') node by node, so the integrand Re w' - f' Im w' changes at
      a rate of at most |w''| (1 + |f'|) |Im w| + |Im w'| |Im w' + f' Re w'|,
      both of whose terms vanish at the limit.  The reading therefore lies
      at most max over steps of (that rate) dt / 2 above the least
      membership along the flow, and moves by that much plus the
      integrand's change under a drift of E (the drift is one smooth
      function of x: every node takes the same steps through the same map).
    At rtol = 1e-2 both stay small.  On the 1,440 witness flows of
    bench/gen.py seeds 1-4, E reaches at most 3.3% of the distance to the
    nearest other zero of V_j (0.23% at 1e-3), and no membership reading
    moved by more than 1.1e-4 from a run at 1e-3, or changed sign.  The
    rate bound is loose: on 40 of those flows it allows 5.74 (1.53 at
    1e-3), yet no reading moved by more than 3.2e-8 from a run at 1e-5,
    where the least reading is 0.073.

    Evaluation.  The nodes never move, so w is tabulated once per call:
    rows of Im w, Re w' and Im w' as real polynomials in the height y at
    each node, from the Taylor coefficients i^k w^(k)(x_j)/k!
    (_vertical_line_tables).  Each accepted state costs one real Horner
    pass: the Im w rows at the Gauss points of the J increment are stacked
    under the three state rows, so a trial that passes its error test gets
    its J increment, and its new state's F, J_n and membership integrand
    Re w' - f' Im w', from one pass.  The start state takes the same pass
    with a zero step (_step_pass from f0 to f0), and F(U) the Im w rows
    alone.  f' takes the cached interior block of the differentiation
    matrix and its two endpoint columns.  Every array a trial writes is
    made once per call: the pass is summed in place by poly._horner into
    one of two row blocks, which alternate, so a trial that its J check
    rejects leaves the accepted state's k and jac intact; F(U), the
    exprb32 step (_exprb32, with _phi1 and _phi3), the J increment
    (_step_pass), f' and the membership integrand write into work rows
    with out=.  Only the array a trial writes its new state into is
    replaced, once that state is accepted, so each accepted state keeps an
    array of its own.

    Energy.  J depends only on the state, so each step adds its exact
    increment: at each node the integral of Im w(x + iy) dy from f to f_new,
    weighted by the quadrature weight over sigma.  Im w(x + iy) is a
    polynomial of degree deg w in y, which Gauss-Legendre with
    deg w // 2 + 1 points integrates exactly, without the cancellation of
    differencing Re W.  The exact flow only lowers J, so a positive or
    nonfinite increment is integrator error and rejects the step: the
    recorded J is nonincreasing because every accepted step was checked.

    Step size.  The first trial step is one relaxation time 1 / max|Re w'|.
    A trial's ratio is s = err / (rtol * r * dt), r = sup|k| at its state.
    The estimate 2 dt phi3 D is third order in dt, and D = F(U) - F(f) -
    J_n (U - f) is quadratic in U - f, which scales with the residual: so
    err ~ dt^3 r^2, and the ratio that a test per unit step reads grows
    like dt^2 r (the exponent -1/3 belongs to a test per step: Hairer,
    Norsett & Wanner, Solving ODEs I, II.4).  A rejection by the error test
    retries from the same state at dt max(0.2, 0.9 s^(-1/2)); a rejection
    by J, or a nonfinite ratio, shrinks dt by 0.2.  An accepted step is
    tested next against the new state's residual r+, where the ratio is
    about s (dt'/dt)^2 r+ / r: so the next trial is
    dt min(4, max(0.2, 0.9 (s r+ / r)^(-1/2))), or 4 dt when s = 0.  r+ is
    the residual the loop reads at the new state anyway.

    Finish.  A flow is ended from a state by one path certificate
    (Moore, Interval Analysis, 1966; Ortega & Rheinboldt, Iterative
    Solution of Nonlinear Equations, 12.6), not by time steps.  An attempt
    is made at each recorded state that does not stop, the start included,
    where every node has V' = Re w' > 0 and where the exact flow would meet
    stop_tol by the horizon even at the rate min Re w' (the certified rate
    lam is at most that).
    1. Newton steps y <- y - V/V' on the -V and V' rows, one poly._horner
       pass each, take every node from its height y to y** (_newton, which
       states its stop rule; at most _NEWTON_STEPS).  Their count needs no
       proof in advance: step 3 bounds |y** - y*| afterwards.
    2. _step_pass from y to y** gives the J increment, checked
       nonincreasing, and the readings at y**, whose residual must lie
       below stop_tol.
    3. The path certificate (_certify_path) bounds V' from below, by
       lam_j > 0, on an interval about (y + y**)/2 that holds y and
       y** +- eta_j, eta_j = (|V(y**)| + its rounding bound) / lam_j.  So
       V_j is strictly increasing there and has exactly one zero in it,
       within eta_j of y**, and the flow from y runs monotonically to that
       zero: it is the first zero on the flow's side, the node's limit y*.
    Along the exact flow dV/dt = -V' V, and V' >= lam = min lam_j on the
    whole path, so |V| falls at least like e^{-lam (t' - t)} and the flow
    meets stop_tol by T = t + ln(resid / stop_tol) / lam.  If T <= _T_MAX,
    y** is recorded at time T as the final state.  If a check fails, the
    exprb32 loop goes on, and the next recorded state attempts again: a
    flow makes at most one attempt per state.  Failures are rare, so no
    rule spaces the attempts: of the 1,440 witness flows of bench/gen.py
    seeds 1-4, 1,439 end at their first attempt and one at its fourth, and
    on the unstable cube chord of the tests three attempts end a run of 33
    states, where waiting for the residual to halve between attempts took
    36.
    stop_tol <= 0 makes T infinite, and a state where T would pass the
    horizon even at the rate min Re w' (a run whose Re w' tends to 0 at
    some node) makes no attempt.  The membership reading
    across the jump: no state between y and y* is recorded, so the dip
    bound needs the rate above integrated along the exact flow from y on,
    in place of (that rate) dt / 2.  Each node moves monotonically to its
    limit, inside the certified interval, so |Im w| falls at least like
    e^{-lam (t' - t)} on the way, and so does f'_t up to a factor linear
    in t' - t (the x-derivative of that decay); both terms of the rate
    carry one of these factors, so the integral is finite, of the order of
    the rate at y over lam: the jump counts in the bound as one step of
    about 2 / lam.

    Rounding.  A trial rejected at a state where every node has V' > 0
    and a residual within the rounding bound of its Horner sum
    (_within_rounding) ends the run there, with stop "limit": the state is
    at its limit to rounding, and the step test there reads rounding over
    rounding at every dt, so shrinking the step would only end in Diverged.
    The state's residual is at least stop_tol, or the run would have
    stopped, so that bound lies at or above stop_tol at some node: this
    exit is taken only when stop_tol lies below the rounding of Im w at the
    limit (stop_tol = 0, say), and "limit" then does not mean a residual
    below stop_tol.

    Floating-point overflow, invalid results and division by zero raise no
    warning while the flow runs: np.errstate is entered once per call,
    around the evaluation of f0 and the stepping loop.  A trial step that
    overflows is rejected by its nonfinite error or J increment, a Newton
    step through V' = 0 fails the finish's checks, and the evaluation of a
    state is silenced too: a state whose residual overflows raises Diverged
    anyway.

    Raises Diverged when the residual passes TOL.flow_diverged, or when
    rejections shrink the step below the rounding of t; and
    NonIntegrableEndpoint when the residual per unit sigma passes
    TOL.flow_endpoint_blowup (heights off the zero level at an endpoint).
    stop_tol None means TOL.flow_stop; TOL is read once per call.  The run
    ends at t = _T_MAX at the latest, and FlowTrace.stop says why it ended:
    "stop_tol" (a step met it), "limit" (the finish, or a residual that is
    rounding at a simple zero, see Rounding) or "horizon".
    """
    import numpy as np

    _check_sigma(f0, sigma)
    if stop_tol is None:
        stop_tol = config.TOL.flow_stop
    rtol, diverged = config.TOL.flow_step_rtol, config.TOL.flow_diverged
    blowup = config.TOL.flow_endpoint_blowup
    x = f0.nodes
    sig = sigma.values
    qw = _quadrature_for(f0) / sig  # J(f) = sum(qw * (Re W(x + i f0) - Re W(x + i f)))
    # the nodes never move: rows in the height y of the right-hand side
    # -Im w, of Re w' and of Im w'; stacked under them, the right-hand
    # side's rows once more for each of the len(yi) Gauss heights of a J
    # increment
    yi, yw = _reference_rule(max(w.degree // 2 + 1, 1))
    yi = yi[:, None]
    stacked = _vertical_line_tables(w, x, len(yi))
    stacked[:, 0] *= -1.0
    rhs_rows = stacked[:, 0]
    # the finish's rows: the rows of -V and V' for its Newton steps, and
    # the signed and majorant rows of its path certificate
    newton_rows = stacked[:, :2]
    tables = _path_tables(stacked)
    # f' at the nodes: the interior block acts on the heights, and the
    # pinned endpoints add a fixed column sum
    inner, left, right = _reference_operator(len(x))
    edge = left * f0.boundary[0] + right * f0.boundary[1]
    stretch = 2.0 / (f0.b - f0.a)
    # steps shorter than this are lost in the rounding of t
    dt_min = 4.0 * np.finfo(float).eps * max(_T_MAX, 1.0)
    # the work arrays, made once (see Evaluation): the pass's heights, the
    # two row blocks (the accepted state's k and jac live in cur, a trial's
    # pass fills nxt), F(U), the trial's work, a row for the state's own
    # readings, and the array the next trial writes its new state into
    heights = np.empty(stacked.shape[1:])
    cur, nxt = np.empty((2,) + stacked.shape[1:])
    half, fu, spare, *floats = np.empty((8, len(x)))
    work = (*floats, np.empty(len(x), dtype=bool))
    new = np.empty(len(x))
    at, sums = np.empty((2, 3, len(x)))

    def rhs(vals):
        fu.fill(0.0)
        return _horner(rhs_rows, vals, fu)

    def diag(vals, rows):
        # (right-hand side, membership minimum, Jacobian) at vals, from its
        # three state rows; the Jacobian -Re w' takes the place of Re w'
        k, re_d, im_d = rows
        fp = np.matmul(inner, vals, out=spare)
        fp += edge
        fp *= stretch
        fp *= im_d
        memb = float(np.subtract(re_d, fp, out=fp).min())
        return k, memb, np.negative(re_d, out=re_d)

    f = f0.values.copy()
    t, jval = 0.0, 0.0
    times, js, resids, membs = [], [], [], []
    rejected = 0
    finished = False
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the start state: the stacked pass of a zero step
        k, memb, jac = diag(f, _step_pass(stacked, yi, yw, qw, f, f, heights, half, cur)[1])
        fastest = float(np.abs(jac, out=spare).max())
        dt = min(_T_MAX, 1.0 / fastest if fastest > 0.0 else math.inf)
        while True:
            size = np.abs(k, out=spare)
            resid = float(size.max())
            if not resid <= diverged:
                raise Diverged(f"height residual reached {resid:.3g}")
            ratio = float(np.divide(size, sig, out=size).max())
            if ratio > blowup:
                raise NonIntegrableEndpoint(
                    f"residual per unit sigma reached {ratio:.3g} near an endpoint"
                )
            times.append(t)
            js.append(jval)
            resids.append(resid)
            membs.append(memb)
            if resid < stop_tol or t >= _T_MAX:
                break
            # the finish (see Finish): Newton from this state, the J pass to
            # its limit and the path certificate, kept when the exact flow
            # meets stop_tol by the horizon.  lam <= min Re w' = -max(jac),
            # so a state whose T passes the horizon even at that rate is not
            # tried
            log_ratio = math.log(resid / stop_tol) if stop_tol > 0.0 else math.inf
            slowest = -float(jac.max())
            if slowest > 0.0 and t + log_ratio / slowest <= _T_MAX:
                limit = _newton(newton_rows, f, new, heights[:2])
                lam = None
                if limit is not None:
                    dj, rows = _step_pass(stacked, yi, yw, qw, f, limit, heights, half, nxt)
                    if -math.inf < dj <= 0.0 and float(np.abs(rows[0], out=spare).max()) < stop_tol:
                        lam = _certify_path(f, limit, rows, tables, at, sums, floats[:3])
                if lam is not None and t + log_ratio / lam <= _T_MAX:
                    jval += dj
                    t += log_ratio / lam
                    f, new = limit, np.empty(len(x))
                    cur, nxt = nxt, cur
                    k, memb, jac = diag(f, rows)
                    finished = True
                    continue
            if len(times) > 1:
                # the accepted trial's ratio carried to this state's
                # residual (see Step size), with r = 0 guarded
                ahead = scale * resid / prev if prev > 0.0 else scale
                dt *= 4.0 if ahead == 0.0 else min(4.0, max(0.2, 0.9 * ahead ** -0.5))

            while True:
                last = t + dt >= _T_MAX - dt_min
                if last:
                    dt = _T_MAX - t
                f_new, corr = _exprb32(f, k, jac, rhs, dt, new, work)
                err = float(np.abs(corr, out=spare).max())
                scale = 0.0 if err == 0.0 else err / (rtol * resid * dt)
                if scale <= 1.0:
                    dj, rows = _step_pass(stacked, yi, yw, qw, f, f_new, heights, half, nxt)
                    # the flow only lowers J: a rise, or a nonfinite
                    # increment, is integrator error (a plain if, so it
                    # holds under -O)
                    if not -math.inf < dj <= 0.0:
                        scale = math.inf
                elif not math.isfinite(scale):
                    scale = math.inf
                if scale <= 1.0:
                    break
                rejected += 1
                # a state whose residual is rounding at a simple zero is its
                # limit: every step test there reads rounding
                if slowest > 0.0 and _within_rounding(f, k, tables[0][:, 2], floats[:2]):
                    break
                dt *= max(0.2, 0.9 * scale ** -0.5)
                if dt < dt_min:
                    raise Diverged(f"flow step size fell to {dt:.3g} at t = {t:.6g}")
            if scale > 1.0:
                finished = True
                break

            jval += dj
            t = _T_MAX if last else t + dt
            prev = resid
            f, new = f_new, np.empty(len(x))
            cur, nxt = nxt, cur
            k, memb, jac = diag(f, rows)

    final = GridFunction(f0.a, f0.b, f0.nodes, f, f0.boundary)
    stop = "limit" if finished else "stop_tol" if resids[-1] < stop_tol else "horizon"
    return FlowTrace(times, js, resids, membs, final, rejected, stop)


def second_variation_at(
    f: GridFunction, psi: GridFunction, w: ComplexPolynomial, sigma: BackgroundSigma
) -> float:
    """Quadratic form of J at a critical graph in direction psi.

    integral of (d(psi)/dx)^2 sigma Re(w'(x+if)) dx; positive on stable
    instances, and flips sign exactly under w -> -w.  Raises ValueError when
    sigma or psi is not on the grid of f.
    """
    import numpy as np

    _check_sigma(f, sigma)
    if (psi.a, psi.b, len(psi.nodes)) != (f.a, f.b, len(f.nodes)):
        raise ValueError("psi grid does not match the function grid")
    weights = _quadrature_for(f)
    dpsi = derivative_values(psi)
    d = w.derivative()(f.nodes + 1j * f.values)
    return float(np.sum(weights * dpsi * dpsi * sigma.values * d.real))
