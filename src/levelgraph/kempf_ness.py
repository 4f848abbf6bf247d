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

run_flow integrates with classic RK4 under error control: the first stage of
the next step, which the residual check evaluates anyway, turns RK4 into an
embedded pair whose difference estimates the local error for free, and every
step also stays inside the RK4 stability bound.  J is accumulated by
Simpson's rule from three rates that are each minus an integral of squares,
so the recorded energy is nonincreasing by construction, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import (
    FLOW_DIVERGED,
    FLOW_ENDPOINT_BLOWUP,
    FLOW_RK4_SAFETY,
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
    "flow_step",
    "run_flow",
    "geodesic_residual",
    "relax_geodesic",
    "second_variation_at",
]

@lru_cache(maxsize=64)
def _gauss_rule(a: float, b: float, n: int):
    xi, wt = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * xi
    weights = 0.5 * (b - a) * wt
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_interior_nodes(a: float, b: float, n: int = GRID_NODES) -> np.ndarray:
    """Interior Gauss-Legendre nodes of (a, b), ascending."""
    return _gauss_rule(float(a), float(b), int(n))[0]


@lru_cache(maxsize=64)
def _diff_matrix_cached(key: bytes, n: int) -> np.ndarray:
    x = np.frombuffer(key, dtype=float)
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, 1.0)
    # barycentric weights in log magnitude; signs tracked separately
    logw = -np.sum(np.log(np.abs(d)), axis=1)
    sign = np.where(np.arange(n)[::-1] % 2 == 0, 1.0, -1.0)  # sorted nodes
    mat = (sign[:, None] * sign[None, :]) * np.exp(logw[None, :] - logw[:, None]) / d
    np.fill_diagonal(mat, 0.0)
    np.fill_diagonal(mat, -mat.sum(axis=1))
    mat.flags.writeable = False
    return mat


def _full_nodes(f: "GridFunction") -> np.ndarray:
    return np.concatenate([[f.a], f.nodes, [f.b]])


def _full_values(f: "GridFunction") -> np.ndarray:
    return np.concatenate([[f.boundary[0]], f.values, [f.boundary[1]]])


def _diff_matrix(full_x: np.ndarray) -> np.ndarray:
    return _diff_matrix_cached(np.ascontiguousarray(full_x).tobytes(), len(full_x))


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
    mat = _diff_matrix(_full_nodes(f))
    vals = _full_values(f)
    der = np.einsum("ij,ij->i", mat, vals[None, :] - vals[:, None])
    return der[1:-1]


@dataclass(frozen=True, eq=False)
class BackgroundSigma:
    """Positive weight on the interior nodes, vanishing linearly at a and b.

    rate_a and rate_b record the one-sided slopes sigma/(x-a) and sigma/(b-x)
    at the respective endpoints.
    """

    values: np.ndarray
    rate_a: float
    rate_b: float

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or not np.all(values > 0):
            raise ValueError("sigma must be strictly positive on the interior")
        if not (self.rate_a > 0 and self.rate_b > 0):
            raise ValueError("endpoint rates must be positive")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def default_sigma(a: float, b: float, nodes: np.ndarray) -> BackgroundSigma:
    """sigma = (x-a)(b-x)/(b-a); both endpoint rates equal 1."""
    x = np.asarray(nodes, dtype=float)
    return BackgroundSigma((x - a) * (b - x) / (b - a), 1.0, 1.0)


def _quadrature_for(f: GridFunction) -> np.ndarray:
    nodes, weights = _gauss_rule(f.a, f.b, len(f.nodes))
    if not np.allclose(f.nodes, nodes, rtol=0, atol=1e-12 * (f.b - f.a)):
        raise ValueError("quadrature requires the Gauss-Legendre grid")
    return weights


def _check_sigma(f: GridFunction, sigma: BackgroundSigma):
    if len(sigma.values) != len(f.nodes):
        raise ValueError("sigma grid does not match the function grid")


def membership(f: GridFunction, w, sigma: BackgroundSigma | None = None):
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


def _rk4(vals: np.ndarray, k1: np.ndarray, rhs, dt: float):
    """One classic RK4 step from vals with first stage k1; returns (new, k4)."""
    k2 = rhs(vals + 0.5 * dt * k1)
    k3 = rhs(vals + 0.5 * dt * k2)
    k4 = rhs(vals + dt * k3)
    return vals + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), k4


def flow_step(f: GridFunction, w, sigma: BackgroundSigma, dt: float) -> GridFunction:
    """One explicit RK4 step of df/dt = -Im(w(x+if))."""
    w = as_complex_polynomial(w)
    x = f.nodes

    def rhs(vals):
        return -(w(x + 1j * vals).imag)

    new, _ = _rk4(f.values, rhs(f.values), rhs, dt)
    return GridFunction(f.a, f.b, f.nodes, new, f.boundary)


def run_flow(
    f0: GridFunction,
    w,
    sigma: BackgroundSigma,
    dt_ctrl: float | None = None,
    stop_tol: float = FLOW_STOP_TOL,
    t_max: float = 200.0,
) -> FlowTrace:
    """Flow f0 downhill until the height residual drops below stop_tol.

    Step control.  Each RK4 step carries a free embedded third-order
    estimate: with k5 = -Im w at the new state (the next step's first stage,
    which the residual check evaluates anyway), the pair with weights
    (1/6, 1/3, 1/3, 0, 1/6) differs from RK4 by dt/6 * (k4 - k5).  A step is
    accepted when that error is at most FLOW_STEP_RTOL * sup|Im w| * dt,
    and the next step is scaled by 0.9 (tol/err)^(1/4), clamped to
    [0.2, 4].  Every step also stays below FLOW_RK4_SAFETY / max|Re w'| at
    its start, the linear-stability limit, and below dt_ctrl when given.

    J is integrated by Simpson's rule, taking the midpoint rate at the
    step's cubic Hermite midpoint; all three rates are minus integrals of
    squares, so every increment is nonpositive and the recorded J is
    nonincreasing exactly, in floating point too.

    Raises Diverged when the residual passes 1e6, when the state or the
    error estimate turns nonfinite, or when rejections shrink the step below
    the rounding of t; and NonIntegrableEndpoint when the residual per unit
    sigma passes 1e8 (heights off the zero level at an endpoint).
    """
    w = as_complex_polynomial(w)
    wp = w.derivative()
    _check_sigma(f0, sigma)
    weights = _quadrature_for(f0)
    x = f0.nodes
    dmat = _diff_matrix(_full_nodes(f0))
    sig = sigma.values
    # steps shorter than this are lost in the rounding of t
    dt_min = 4.0 * np.finfo(float).eps * max(t_max, 1.0)

    def rhs(vals):
        return -(w(x + 1j * vals).imag)

    def diag(vals):
        z = x + 1j * vals
        v = w(z).imag
        d = wp(z)
        fp = (dmat @ np.concatenate([[f0.boundary[0]], vals, [f0.boundary[1]]]))[1:-1]
        return v, float(np.min(d.real - fp * d.imag)), float(np.max(np.abs(d.real)))

    def rate(v):
        return -float(np.sum(weights * v * v / sig))

    f = f0.values.copy()
    t, jval = 0.0, 0.0
    v, memb, stiff = diag(f)
    g = rate(v)
    cap = math.inf if dt_ctrl is None else dt_ctrl
    dt = cap

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

        k1 = -v
        dt = min(dt, cap, FLOW_RK4_SAFETY / stiff if stiff > 0.0 else math.inf)
        while True:
            last = t + dt >= t_max - dt_min
            if last:
                dt = t_max - t
            f_new, k4 = _rk4(f, k1, rhs, dt)
            if not np.all(np.isfinite(f_new)):
                raise Diverged("flow state turned nonfinite")
            v_new, memb_new, stiff_new = diag(f_new)
            err = (dt / 6.0) * float(np.max(np.abs(k4 + v_new)))
            if not math.isfinite(err):
                raise Diverged("flow error estimate turned nonfinite")
            tol = FLOW_STEP_RTOL * resid * dt
            factor = 4.0 if err == 0.0 else min(4.0, max(0.2, 0.9 * (tol / err) ** 0.25))
            if err <= tol:
                break
            dt *= factor
            rejected += 1
            if dt < dt_min:
                raise Diverged(f"flow step size fell to {dt:.3g} at t = {t:.6g}")

        f_mid = 0.5 * (f + f_new) + (dt / 8.0) * (k1 + v_new)
        g_mid = rate(w(x + 1j * f_mid).imag)
        g_new = rate(v_new)
        jval += (dt / 6.0) * (g + 4.0 * g_mid + g_new)  # Simpson of a nonpositive rate
        t = t_max if last else t + dt
        f, v, memb, stiff, g = f_new, v_new, memb_new, stiff_new, g_new
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
    dmat = _diff_matrix(_full_nodes(base))
    return _geodesic_sup(full, times, wp, dmat, base.nodes, sigma.values, _full_values(f0))


def relax_geodesic(
    phi0: GridFunction,
    phi1: GridFunction,
    w,
    sigma: BackgroundSigma,
    f0: GridFunction,
    n_times: int = 9,
    tol: float = 1e-4,
    max_sweeps: int = 5000,
    damping: float = 0.5,
):
    """Damped sweep relaxation of the geodesic boundary-value problem.

    Endpoint potentials are held fixed; interior time slices are updated
    toward the second-difference solution of the geodesic equation until the
    sup residual, measured every 20 sweeps on the working array, drops below
    tol.  Returns (times, path).
    """
    wp = as_complex_polynomial(w).derivative()
    _check_sigma(phi0, sigma)
    dmat = _diff_matrix(_full_nodes(phi0))
    x = phi0.nodes
    sig = sigma.values
    f0_full = _full_values(f0)
    times = np.linspace(0.0, 1.0, n_times)
    dt = times[1] - times[0]

    full = np.stack([
        (1.0 - t) * _full_values(phi0) + t * _full_values(phi1) for t in times
    ])

    for sweep in range(max_sweeps):
        for k in range(1, n_times - 1):
            vel = (full[k + 1] - full[k - 1]) / (2.0 * dt)
            dre, dim = _graph_rates(full[k], wp, dmat, x, sig, f0_full)
            if np.any(dre <= 0):
                raise ValueError("relaxation path left the membership region")
            src = -((dmat @ vel)[1:-1] ** 2) * sig * dim / dre
            target = 0.5 * (full[k + 1][1:-1] + full[k - 1][1:-1] - dt * dt * src)
            full[k][1:-1] = (1.0 - damping) * full[k][1:-1] + damping * target
        if sweep % 20 == 19 or sweep == max_sweeps - 1:
            if _geodesic_sup(full, times, wp, dmat, x, sig, f0_full) < tol:
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
