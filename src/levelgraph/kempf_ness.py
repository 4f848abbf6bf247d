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
checked property of the recorded trace.

During a flow the nodes x_j never move; only the heights y do.  run_flow
therefore tabulates, once per call and by poly.taylor_coeffs on the node
array, C_k(x_j) = i^k w^(k)(x_j)/k!, so that w(x_j + iy) = sum_k C_k y^k.
Im w = sum Im C_k y^k, Re w' = sum k Im C_k y^(k-1) and
Im w' = -sum k Re C_k y^(k-1) are then real polynomials in y.  Under
their three coefficient rows the Im w rows are stacked once more for each
Gauss height of a J increment, so one pass of poly._horner gives a trial
step that passed its error test both its J increment and its new state's
right-hand side, Jacobian and membership integrand; the start state reads
the three state rows alone, and the stage value F(U) the Im w rows alone.
Each element goes through the same operations as in separate passes.

The Gauss-Legendre rule and the node rows of the differentiation matrix
are built once per grid size on [-1, 1] and mapped affinely onto each
interval.  The rows are kept as their interior block and two endpoint
columns, so the flow's f' at the nodes is one n-by-n product plus a fixed
endpoint term, scaled by 2/(b - a).  A GridFunction is validated on
construction: its nodes must be this map of the Gauss nodes (within
TOL.grid_match (b - a)), so quadrature and differentiation look their rule
up without checking the grid again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import config
from .config import GRID_NODES
from .errors import Diverged, NonIntegrableEndpoint
from .poly import I_POWERS, ComplexPolynomial, _horner, taylor_coeffs

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

@lru_cache(maxsize=16)
def _reference_rule(n: int):
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
        if not np.all(np.abs(nodes - gauss) <= config.TOL.grid_match * (self.b - self.a)):
            raise ValueError("nodes must be the Gauss-Legendre nodes of (a, b)")
        if not np.all(np.isfinite(values)):
            raise ValueError("nonfinite height values")
        p, q = map(float, self.boundary)
        if not (math.isfinite(p) and math.isfinite(q)):
            raise ValueError("nonfinite boundary heights")
        nodes.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "boundary", (p, q))


def make_grid_function(a, b, fn, n: int = GRID_NODES, boundary=None) -> GridFunction:
    """Sample a callable on the Gauss-Legendre grid of (a, b)."""
    nodes = gauss_interior_nodes(a, b, n)
    values = np.asarray(fn(nodes), dtype=float)
    if boundary is None:
        boundary = (float(fn(float(a))), float(fn(float(b))))
    return GridFunction(a, b, nodes, values, boundary)


def derivative_values(f: GridFunction) -> np.ndarray:
    """df/dx at the interior nodes (spectral).

    Subtraction form: sum_j D_ij (f_j - f_i), the endpoint columns taking
    f(a) - f_i and f(b) - f_i.  Every term vanishes exactly when f is
    constant, so no rounding survives regardless of summation order -- a
    plain matvec against the negative-sum diagonal does not quite achieve
    that.  The sum is taken on [-1, 1] and scaled once by 2/(b - a).
    """
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
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or not np.all(values > 0):
            raise ValueError("sigma must be strictly positive on the interior")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def default_sigma(a: float, b: float, nodes: np.ndarray) -> BackgroundSigma:
    """sigma = (x-a)(b-x)/(b-a), with slope 1 at both endpoints."""
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

    def __post_init__(self):
        k = len(self.times)
        if not (len(self.J_values) == len(self.residual_sup) == len(self.membership_min) == k):
            raise ValueError("trace columns must have equal length")
        if k and self.J_values[0] != 0.0:
            raise ValueError("J is measured relative to the start")

    def to_csv(self) -> str:
        out = ["t,J,residual_sup,membership_min"]
        rows = zip(self.times, self.J_values, self.residual_sup, self.membership_min)
        for row in rows:
            out.append(",".join("%.17g" % c for c in row))
        return "\n".join(out) + "\n"


# phi_3(z) = sum_k z^k / (k + 3)!, summed for |z| < _PHI3_SWITCH, where the
# closed form cancels; 11 terms reach the rounding level there, and past it
# the closed form stays within 5e-15 relative
_PHI3_SWITCH = 0.35
_PHI3_SERIES = tuple(1.0 / math.factorial(k + 3) for k in range(11))


def _phi1(z: np.ndarray, em1: np.ndarray) -> np.ndarray:
    """phi_1(z) = (e^z - 1)/z elementwise, with phi_1(0) = 1; em1 is
    np.expm1(z), which _phi3 shares.

    expm1 keeps the quotient accurate to rounding at every z != 0.  When no
    entry is zero the quotient is one plain division; otherwise the zeros
    keep the value 1 and the division fills the rest.
    """
    if np.count_nonzero(z) == z.size:
        return em1 / z
    return np.divide(em1, z, out=np.ones_like(z), where=z != 0.0)


def _phi3(z: np.ndarray, em1: np.ndarray) -> np.ndarray:
    """phi_3(z) = (e^z - 1 - z - z^2/2)/z^3 elementwise, with phi_3(0) = 1/6;
    em1 is np.expm1(z), which _phi1 shares.

    The series is summed by Horner where |z| is below the switch and the
    closed form is taken where |z| is at or past it.  When every entry lies
    on one side, only that side's formula runs, on the whole array; a mixed
    array sums the series at z where |z| is below the switch and at 0
    elsewhere, and the closed form then overwrites it where |z| is at or
    past the switch.  Each entry gets the same operations either way.
    """
    small = np.abs(z) < _PHI3_SWITCH
    count = np.count_nonzero(small)
    if count == 0:
        return (em1 - z - 0.5 * z * z) / (z * z * z)
    zs = z if count == z.size else np.where(small, z, 0.0)
    out = np.full_like(zs, _PHI3_SERIES[-1])
    for c in _PHI3_SERIES[-2::-1]:
        out *= zs
        out += c
    if count == z.size:
        return out
    return np.divide(em1 - z - 0.5 * z * z, z * z * z, out=out, where=~small)


def _exprb32(vals: np.ndarray, k: np.ndarray, jac: np.ndarray, rhs, dt: float):
    """One exprb32 step of f' = rhs(f) from vals, with k = rhs(vals) and jac
    the diagonal Jacobian of rhs at vals; returns (new, error estimate).

    U = vals + dt phi1(dt jac) k is formed as e^{dt jac} vals plus dt phi1
    times the nonlinear remainder k - jac vals: the same value, but a mode
    that decays by e^{dt jac} keeps its relative accuracy.  The arrays are
    combined in place, in the order of the formulas; vals, k and jac are
    not written.  One expm1(dt jac) serves both phi-functions; e^{dt jac}
    is its own exp, since expm1 + 1 rounds differently.
    """
    hj = dt * jac
    em1 = np.expm1(hj)
    u = np.exp(hj)
    u *= vals
    rem = jac * vals
    np.subtract(k, rem, out=rem)
    step = _phi1(hj, em1)
    step *= dt
    step *= rem
    u += step
    # D = rhs(U) - k - jac (U - vals)
    d = np.subtract(rhs(u), k)
    moved = u - vals
    moved *= jac
    d -= moved
    corr = _phi3(hj, em1)
    corr *= 2.0 * dt
    corr *= d
    u += corr
    return u, corr


def _vertical_line_tables(w, x: np.ndarray) -> np.ndarray:
    """Coefficient rows, ascending in y, of Im w, Re w' and Im w' on the
    vertical lines through the points x.

    Returns an array of shape (deg w + 1, 3, len(x)), at least one row deep
    (the zero polynomial gives one row of zeros).  Its Horner sum at heights
    y (poly._horner) is the (3, len(x)) array of Im w, Re w' and Im w' at
    x + iy.  With C_k = i^k w^(k)(x)/k!, w(x + iy) = sum C_k y^k; and since
    d/dy w(x + iy) = i w'(x + iy), Re w' = sum k Im C_k y^(k-1) and
    Im w' = -sum k Re C_k y^(k-1).
    """
    coeffs = w.coeffs or (0j,)
    n = len(coeffs)
    c = np.array(taylor_coeffs(coeffs, x, n)) * np.array(I_POWERS)[np.arange(n) % 4, None]
    table = np.zeros((n, 3, len(x)))
    table[:, 0] = c.imag
    k = np.arange(1, n)[:, None]
    table[:-1, 1] = k * c.imag[1:]
    table[:-1, 2] = -k * c.real[1:]
    return table


def run_flow(
    f0: GridFunction,
    w: ComplexPolynomial,
    sigma: BackgroundSigma,
    stop_tol: float | None = None,
    t_max: float = 200.0,
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

    Evaluation.  The nodes never move, so w is tabulated once per call:
    rows of Im w, Re w' and Im w' as real polynomials in the height y at
    each node, from the Taylor coefficients i^k w^(k)(x_j)/k!
    (_vertical_line_tables).  Each accepted state costs one real Horner
    pass: the Im w rows at the Gauss points of the J increment are stacked
    under the three state rows, so a trial that passes its error test gets
    its J increment, and its new state's F, J_n and membership integrand
    Re w' - f' Im w', from one pass.  The start state reads the three
    state rows alone and F(U) the Im w rows alone.  f' takes the cached
    interior block of the differentiation matrix and its two endpoint
    columns.

    Energy.  J depends only on the state, so each step adds its exact
    increment: at each node the integral of Im w(x + iy) dy from f to f_new,
    weighted by the quadrature weight over sigma.  Im w(x + iy) is a
    polynomial of degree deg w in y, which Gauss-Legendre with
    deg w // 2 + 1 points integrates exactly, without the cancellation of
    differencing Re W.  The exact flow only lowers J, so a positive or
    nonfinite increment is integrator error and rejects the step: the
    recorded J is nonincreasing because every accepted step was checked.
    The next step is scaled by 0.9 ratio^(-1/3), clamped to [0.2, 4], where
    ratio is the error-to-tolerance ratio (a rejection by J shrinks by 0.2).
    The first trial step is one relaxation time 1 / max|Re w'|.

    Floating-point overflow and invalid results raise no warning while the
    flow runs: np.errstate is entered once per call, around the evaluation
    of f0 and the stepping loop.  A trial step that overflows is rejected by
    its nonfinite error or J increment, and the evaluation of a state is
    silenced too: a state whose residual overflows raises Diverged anyway.

    Raises Diverged when the residual passes TOL.flow_diverged, or when
    rejections shrink the step below the rounding of t; and
    NonIntegrableEndpoint when the residual per unit sigma passes
    TOL.flow_endpoint_blowup (heights off the zero level at an endpoint).
    stop_tol None means TOL.flow_stop; TOL is read once per call.
    """
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
    # increment, and the heights of one pass laid out to the same shape
    table = _vertical_line_tables(w, x)
    table[:, 0] *= -1.0
    rhs_rows = table[:, 0]
    yi, yw = _reference_rule(max(w.degree // 2 + 1, 1))
    stacked = np.concatenate([table, np.repeat(table[:, :1], len(yi), axis=1)], axis=1)
    heights = np.empty(stacked.shape[1:])
    # f' at the nodes: the interior block acts on the heights, and the
    # pinned endpoints add a fixed column sum
    inner, left, right = _reference_operator(len(x))
    edge = left * f0.boundary[0] + right * f0.boundary[1]
    stretch = 2.0 / (f0.b - f0.a)
    # steps shorter than this are lost in the rounding of t
    dt_min = 4.0 * np.finfo(float).eps * max(t_max, 1.0)

    def rhs(vals):
        return _horner(rhs_rows, vals, 0.0)

    def step_pass(old, new):
        # one Horner pass: J(new) - J(old), the sum of qw * integral of
        # Im w(x + iy) dy from old to new (the Gauss rule in y being exact
        # for Im w = -rhs), and the three state rows at new
        half = 0.5 * (new - old)
        heights[:3] = new
        np.add(0.5 * (new + old), yi[:, None] * half, out=heights[3:])
        rows = _horner(stacked, heights, 0.0)
        return -float((qw * half * (yw @ rows[3:])).sum()), rows[:3]

    def diag(vals, rows):
        # (right-hand side, membership minimum, Jacobian) at vals, from
        # its three state rows
        k, re_d, im_d = rows
        fp = (inner @ vals + edge) * stretch
        return k, float((re_d - fp * im_d).min()), -re_d

    f = f0.values.copy()
    t, jval = 0.0, 0.0
    times, js, resids, membs = [], [], [], []
    rejected = 0
    with np.errstate(over="ignore", invalid="ignore"):
        k, memb, jac = diag(f, _horner(table, f, 0.0))
        fastest = float(np.abs(jac).max())
        dt = min(t_max, 1.0 / fastest if fastest > 0.0 else math.inf)
        while True:
            size = np.abs(k)
            resid = float(size.max())
            if not resid <= diverged:
                raise Diverged(f"height residual reached {resid:.3g}")
            ratio = float((size / sig).max())
            if ratio > blowup:
                raise NonIntegrableEndpoint(
                    f"residual per unit sigma reached {ratio:.3g} near an endpoint"
                )
            times.append(t)
            js.append(jval)
            resids.append(resid)
            membs.append(memb)
            if resid < stop_tol or t >= t_max:
                break

            while True:
                last = t + dt >= t_max - dt_min
                if last:
                    dt = t_max - t
                f_new, corr = _exprb32(f, k, jac, rhs, dt)
                err = float(np.abs(corr).max())
                scale = 0.0 if err == 0.0 else err / (rtol * resid * dt)
                if scale <= 1.0:
                    dj, rows = step_pass(f, f_new)
                    # the flow only lowers J: a rise, or a nonfinite
                    # increment, is integrator error (a plain if, so it
                    # holds under -O)
                    if not -math.inf < dj <= 0.0:
                        scale = math.inf
                elif not math.isfinite(scale):
                    scale = math.inf
                factor = 4.0 if scale == 0.0 else min(4.0, max(0.2, 0.9 * scale ** (-1.0 / 3.0)))
                if scale <= 1.0:
                    break
                dt *= factor
                rejected += 1
                if dt < dt_min:
                    raise Diverged(f"flow step size fell to {dt:.3g} at t = {t:.6g}")

            jval += dj
            t = t_max if last else t + dt
            f = f_new
            k, memb, jac = diag(f, rows)
            dt *= factor

    final = GridFunction(f0.a, f0.b, f0.nodes, f, f0.boundary)
    return FlowTrace(times, js, resids, membs, final, rejected)


def second_variation_at(
    f: GridFunction, psi: GridFunction, w: ComplexPolynomial, sigma: BackgroundSigma
) -> float:
    """Quadratic form of J at a critical graph in direction psi.

    integral of (d(psi)/dx)^2 sigma Re(w'(x+if)) dx; positive on stable
    instances, and flips sign exactly under w -> -w.  Raises ValueError when
    sigma or psi is not on the grid of f.
    """
    _check_sigma(f, sigma)
    if (psi.a, psi.b, len(psi.nodes)) != (f.a, f.b, len(f.nodes)):
        raise ValueError("psi grid does not match the function grid")
    weights = _quadrature_for(f)
    dpsi = derivative_values(psi)
    d = w.derivative()(f.nodes + 1j * f.values)
    return float(np.sum(weights * dpsi * dpsi * sigma.values * d.real))
