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

The Gauss-Legendre rule and the differentiation matrix are built once per
grid size on [-1, 1] and mapped affinely onto each interval; quadrature and
differentiation refuse a grid that is not this map of the Gauss nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import (
    FLOW_DIVERGED,
    FLOW_ENDPOINT_BLOWUP,
    FLOW_STEP_RTOL,
    FLOW_STOP_TOL,
    GRID_NODES,
)
from .errors import Diverged, NonIntegrableEndpoint
from .poly import as_complex_polynomial

__all__ = [
    "GridFunction",
    "BackgroundSigma",
    "FlowTrace",
    "gauss_interior_nodes",
    "make_grid_function",
    "derivative_values",
    "default_sigma",
    "membership",
    "j_derivative",
    "run_flow",
    "geodesic_residual",
    "relax_geodesic",
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
def _reference_diff_matrix(n: int) -> np.ndarray:
    """Differentiation matrix on [-1, 1] plus the n Gauss-Legendre nodes."""
    x = np.concatenate([[-1.0], _reference_rule(n)[0], [1.0]])
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, 1.0)
    # barycentric weights in log magnitude; signs tracked separately
    logw = -np.sum(np.log(np.abs(d)), axis=1)
    sign = np.where(np.arange(n + 2)[::-1] % 2 == 0, 1.0, -1.0)  # sorted nodes
    mat = (sign[:, None] * sign[None, :]) * np.exp(logw[None, :] - logw[:, None]) / d
    np.fill_diagonal(mat, 0.0)
    np.fill_diagonal(mat, -mat.sum(axis=1))
    mat.flags.writeable = False
    return mat


def _full_values(f: "GridFunction") -> np.ndarray:
    return np.concatenate([[f.boundary[0]], f.values, [f.boundary[1]]])


def _diff_matrix(f: "GridFunction") -> np.ndarray:
    """Differentiation matrix on a, the nodes of f, and b."""
    _quadrature_for(f)  # raises unless f is on the Gauss-Legendre grid
    return _reference_diff_matrix(len(f.nodes)) * (2.0 / (f.b - f.a))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Heights at interior nodes of (a, b) plus pinned endpoint heights."""

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
        if not (np.all(np.diff(nodes) > 0) and self.a < nodes[0] and nodes[-1] < self.b):
            raise ValueError("nodes must increase strictly inside (a, b)")
        if not np.all(np.isfinite(values)):
            raise ValueError("nonfinite height values")
        p, q = self.boundary
        nodes.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "boundary", (float(p), float(q)))


def make_grid_function(a, b, fn, n: int = GRID_NODES, boundary=None) -> GridFunction:
    """Sample a callable on the Gauss-Legendre grid of (a, b)."""
    nodes = gauss_interior_nodes(a, b, n)
    values = np.asarray(fn(nodes), dtype=float)
    if boundary is None:
        boundary = (float(fn(float(a))), float(fn(float(b))))
    return GridFunction(a, b, nodes, values, boundary)


def derivative_values(f: GridFunction) -> np.ndarray:
    """df/dx at the interior nodes (spectral).

    Subtraction form: sum_j D_ij (f_j - f_i).  Every term vanishes exactly
    when f is constant, so no rounding survives regardless of summation
    order -- a plain matvec against the negative-sum diagonal does not quite
    achieve that.
    """
    mat = _diff_matrix(f)
    vals = _full_values(f)
    der = np.einsum("ij,ij->i", mat, vals[None, :] - vals[:, None])
    return der[1:-1]


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
    nodes, weights = _gauss_rule(f.a, f.b, len(f.nodes))
    if not np.all(np.abs(f.nodes - nodes) <= 1e-12 * (f.b - f.a)):
        raise ValueError("quadrature and differentiation require the Gauss-Legendre grid")
    return weights


def _check_sigma(f: GridFunction, sigma: BackgroundSigma):
    if len(sigma.values) != len(f.nodes):
        raise ValueError("sigma grid does not match the function grid")


def membership(f: GridFunction, w):
    """Is the graph of f inside the region where heights can only improve?

    Returns (in_set, min_value) where min_value is the minimum over nodes of
    d/dx Re(w(x+if)) = Re(w'(z)) - f'(x) Im(w'(z)).
    """
    wp = as_complex_polynomial(w).derivative()
    z = f.nodes + 1j * f.values
    d = wp(z)
    vals = d.real - derivative_values(f) * d.imag
    mn = float(np.min(vals))
    return mn > 0.0, mn


def j_derivative(f: GridFunction, f_dot, w, sigma: BackgroundSigma) -> float:
    """dJ/dt along a path through f with interior velocity f_dot."""
    _check_sigma(f, sigma)
    weights = _quadrature_for(f)
    v = as_complex_polynomial(w)(f.nodes + 1j * f.values).imag
    return float(np.sum(weights * np.asarray(f_dot, dtype=float) * v / sigma.values))


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


def _phi1(z) -> np.ndarray:
    """phi_1(z) = (e^z - 1)/z elementwise, with phi_1(0) = 1.

    expm1 keeps the quotient accurate to rounding at every z != 0.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(z == 0.0, 1.0, np.expm1(z) / z)


def _phi3(z) -> np.ndarray:
    """phi_3(z) = (e^z - 1 - z - z^2/2)/z^3 elementwise, with phi_3(0) = 1/6."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _PHI3_SWITCH
    out = np.empty_like(z)
    zs = z[small]
    acc = np.full_like(zs, _PHI3_SERIES[-1])
    for c in _PHI3_SERIES[-2::-1]:
        acc *= zs
        acc += c
    out[small] = acc
    zl = z[~small]
    out[~small] = (np.expm1(zl) - zl - 0.5 * zl * zl) / (zl * zl * zl)
    return out


def _exprb32(vals: np.ndarray, k: np.ndarray, jac: np.ndarray, rhs, dt: float):
    """One exprb32 step of f' = rhs(f) from vals, with k = rhs(vals) and jac
    the diagonal Jacobian of rhs at vals; returns (new, error estimate).

    U = vals + dt phi1(dt jac) k is formed as e^{dt jac} vals plus dt phi1
    times the nonlinear remainder k - jac vals: the same value, but a mode
    that decays by e^{dt jac} keeps its relative accuracy.
    """
    hj = dt * jac
    u = np.exp(hj) * vals + dt * _phi1(hj) * (k - jac * vals)
    corr = (2.0 * dt) * _phi3(hj) * (rhs(u) - k - jac * (u - vals))
    return u + corr, corr


def run_flow(
    f0: GridFunction,
    w,
    sigma: BackgroundSigma,
    stop_tol: float = FLOW_STOP_TOL,
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
    accepted when its sup is at most FLOW_STEP_RTOL * sup|Im w| * dt.

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

    Raises Diverged when the residual passes 1e6, or when rejections shrink
    the step below the rounding of t; and NonIntegrableEndpoint when the
    residual per unit sigma passes 1e8 (heights off the zero level at an
    endpoint).
    """
    w = as_complex_polynomial(w)
    wp = w.derivative()
    _check_sigma(f0, sigma)
    x = f0.nodes
    dmat = _diff_matrix(f0)
    sig = sigma.values
    qw = _quadrature_for(f0) / sig  # J(f) = sum(qw * (Re W(x + i f0) - Re W(x + i f)))
    # Im w(x + iy) has degree deg w in y; this rule integrates it exactly
    yi, yw = _reference_rule(max(w.degree // 2 + 1, 1))
    # steps shorter than this are lost in the rounding of t
    dt_min = 4.0 * np.finfo(float).eps * max(t_max, 1.0)

    def rhs(vals):
        return -(w(x + 1j * vals).imag)

    def j_increment(old, new):
        # J(new) - J(old): sum of qw * integral of Im w(x + iy) dy from old to new
        half = 0.5 * (new - old)
        ys = 0.5 * (new + old) + np.multiply.outer(yi, half)
        return float(np.sum(qw * half * (yw @ w(x + 1j * ys).imag)))

    def diag(vals):
        z = x + 1j * vals
        v = w(z).imag
        d = wp(z)
        fp = (dmat @ np.concatenate([[f0.boundary[0]], vals, [f0.boundary[1]]]))[1:-1]
        return v, float(np.min(d.real - fp * d.imag)), -d.real

    f = f0.values.copy()
    t, jval = 0.0, 0.0
    v, memb, jac = diag(f)
    fastest = float(np.max(np.abs(jac)))
    dt = min(t_max, 1.0 / fastest if fastest > 0.0 else math.inf)

    times, js, resids, membs = [], [], [], []
    rejected = 0
    while True:
        resid = float(np.max(np.abs(v)))
        if not resid <= FLOW_DIVERGED:
            raise Diverged(f"height residual reached {resid:.3g}")
        ratio = float(np.max(np.abs(v) / sig))
        if ratio > FLOW_ENDPOINT_BLOWUP:
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
            with np.errstate(over="ignore", invalid="ignore"):
                f_new, corr = _exprb32(f, -v, jac, rhs, dt)
                err = float(np.max(np.abs(corr)))
                scale = 0.0 if err == 0.0 else err / (FLOW_STEP_RTOL * resid * dt)
                if scale <= 1.0:
                    dj = j_increment(f, f_new)
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
        v, memb, jac = diag(f)
        dt *= factor

    final = GridFunction(f0.a, f0.b, f0.nodes, f, f0.boundary)
    return FlowTrace(times, js, resids, membs, final, rejected)


# ---------------------------------------------------------------------------
# geodesics in the space of graphs


def _path_arrays(path, times):
    times = np.asarray(times, dtype=float)
    if len(path) != len(times) or len(path) < 3:
        raise ValueError("need at least three path samples with matching times")
    if not np.all(np.diff(times) > 0):
        raise ValueError("times must increase strictly")
    base = path[0]
    full = np.stack([_full_values(g) for g in path])
    return times, base, full


def _graph_rates(phi_full, wp, dmat, x, sig, f0_full):
    """d/dx Re(w(z_f)) and Im(w'(z_f)) on the graph f = f0 + sigma d(phi)/dx."""
    fvals = f0_full.copy()
    fvals[1:-1] += sig * (dmat @ phi_full)[1:-1]
    d = wp(x + 1j * fvals[1:-1])
    return d.real - (dmat @ fvals)[1:-1] * d.imag, d.imag


def _geodesic_sup(full, times, wp, dmat, x, sig, f0_full) -> float:
    """Sup geodesic defect of potentials stacked row by row in full."""
    sup = 0.0
    for k in range(1, len(times) - 1):
        dm = times[k] - times[k - 1]
        dp = times[k + 1] - times[k]
        acc = 2.0 * (dm * full[k + 1] - (dm + dp) * full[k] + dp * full[k - 1])
        acc /= dm * dp * (dm + dp)
        vel = (full[k + 1] - full[k - 1]) / (dm + dp)
        dre, dim = _graph_rates(full[k], wp, dmat, x, sig, f0_full)
        term2 = (dmat @ vel)[1:-1] ** 2 * sig * dim
        sup = max(sup, float(np.max(np.abs(acc[1:-1] * dre + term2))))
    return sup


def geodesic_residual(path, times, w, sigma: BackgroundSigma, f0: GridFunction) -> float:
    """Sup-norm defect of the geodesic equation along a sampled path.

    Each sample is a potential phi; the graph it parametrizes is
    f = f0 + sigma * d(phi)/dx.  The equation checked at interior times and
    nodes is  phi_tt * d/dx Re(w(z_f)) + (d(phi_t)/dx)^2 sigma Im(w'(z_f)).
    """
    wp = as_complex_polynomial(w).derivative()
    times, base, full = _path_arrays(path, times)
    _check_sigma(base, sigma)
    dmat = _diff_matrix(base)
    return _geodesic_sup(full, times, wp, dmat, base.nodes, sigma.values, _full_values(f0))


# relax_geodesic: stop below this sup residual, or after this many sweeps;
# each sweep moves a slice this fraction of the way to its target
_GEODESIC_TOL = 1e-4
_GEODESIC_MAX_SWEEPS = 5000
_GEODESIC_DAMPING = 0.5


def relax_geodesic(
    phi0: GridFunction,
    phi1: GridFunction,
    w,
    sigma: BackgroundSigma,
    f0: GridFunction,
    n_times: int = 9,
):
    """Damped sweep relaxation of the geodesic boundary-value problem.

    Endpoint potentials are held fixed; interior time slices are updated
    toward the second-difference solution of the geodesic equation until the
    sup residual, measured every 20 sweeps on the working array, drops below
    _GEODESIC_TOL.  Returns (times, path).
    """
    wp = as_complex_polynomial(w).derivative()
    _check_sigma(phi0, sigma)
    dmat = _diff_matrix(phi0)
    x = phi0.nodes
    sig = sigma.values
    f0_full = _full_values(f0)
    times = np.linspace(0.0, 1.0, n_times)
    dt = times[1] - times[0]

    full = np.stack([
        (1.0 - t) * _full_values(phi0) + t * _full_values(phi1) for t in times
    ])

    for sweep in range(_GEODESIC_MAX_SWEEPS):
        for k in range(1, n_times - 1):
            vel = (full[k + 1] - full[k - 1]) / (2.0 * dt)
            dre, dim = _graph_rates(full[k], wp, dmat, x, sig, f0_full)
            if np.any(dre <= 0):
                raise ValueError("relaxation path left the membership region")
            src = -((dmat @ vel)[1:-1] ** 2) * sig * dim / dre
            target = 0.5 * (full[k + 1][1:-1] + full[k - 1][1:-1] - dt * dt * src)
            full[k][1:-1] = (
                (1.0 - _GEODESIC_DAMPING) * full[k][1:-1] + _GEODESIC_DAMPING * target
            )
        if sweep % 20 == 19 or sweep == _GEODESIC_MAX_SWEEPS - 1:
            if _geodesic_sup(full, times, wp, dmat, x, sig, f0_full) < _GEODESIC_TOL:
                break
    path = [
        GridFunction(phi0.a, phi0.b, x, row[1:-1], (row[0], row[-1])) for row in full
    ]
    return times, path


def second_variation_at(f: GridFunction, psi: GridFunction, w, sigma: BackgroundSigma) -> float:
    """Quadratic form of J at a critical graph in direction psi.

    integral of (d(psi)/dx)^2 sigma Re(w'(x+if)) dx; positive on stable
    instances, and flips sign exactly under w -> -w.
    """
    _check_sigma(f, sigma)
    weights = _quadrature_for(f)
    dpsi = derivative_values(psi)
    d = as_complex_polynomial(w).derivative()(f.nodes + 1j * f.values)
    return float(np.sum(weights * dpsi * dpsi * sigma.values * d.real))
