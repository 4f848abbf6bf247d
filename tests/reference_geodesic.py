"""Reference geodesics in the space of graphs: the residual and a relaxation.

A potential phi parametrizes the graph f = f0 + sigma d(phi)/dx, and a path
of potentials is a geodesic when it solves the equation that
``geodesic_residual`` measures.  Convexity of the energy along such a path
is a property of ``levelgraph.kempf_ness`` that the tests check, through
the energy's rate ``j_derivative``; no verdict uses either, so the geodesic
code and the rate live here beside those tests.
"""

import numpy as np

from levelgraph.kempf_ness import (
    BackgroundSigma,
    GridFunction,
    _check_sigma,
    _quadrature_for,
    _reference_operator,
)


def _node_rows(g: GridFunction) -> np.ndarray:
    """d/dx at the nodes of g, acting on the values at a, the nodes and b."""
    inner, left, right = _reference_operator(len(g.nodes))
    return np.column_stack([left, inner, right]) * (2.0 / (g.b - g.a))


def _with_ends(g: GridFunction) -> np.ndarray:
    """Heights at a, the nodes and b: the layout _node_rows acts on."""
    return np.concatenate([[g.boundary[0]], g.values, [g.boundary[1]]])


def _path_arrays(path, times):
    times = np.asarray(times, dtype=float)
    if len(path) != len(times) or len(path) < 3:
        raise ValueError("need at least three path samples with matching times")
    if not np.all(np.diff(times) > 0):
        raise ValueError("times must increase strictly")
    base = path[0]
    full = np.stack([_with_ends(g) for g in path])
    return times, base, full


def _graph_rates(phi_full, wp, rows, x, sig, f0_full):
    """d/dx Re(w(z_f)) and Im(w'(z_f)) on the graph f = f0 + sigma d(phi)/dx."""
    fvals = f0_full.copy()
    fvals[1:-1] += sig * (rows @ phi_full)
    d = wp(x + 1j * fvals[1:-1])
    return d.real - (rows @ fvals) * d.imag, d.imag


def _geodesic_sup(full, times, wp, rows, x, sig, f0_full) -> float:
    """Sup geodesic defect of potentials stacked row by row in full."""
    sup = 0.0
    for k in range(1, len(times) - 1):
        dm = times[k] - times[k - 1]
        dp = times[k + 1] - times[k]
        acc = 2.0 * (dm * full[k + 1] - (dm + dp) * full[k] + dp * full[k - 1])
        acc /= dm * dp * (dm + dp)
        vel = (full[k + 1] - full[k - 1]) / (dm + dp)
        dre, dim = _graph_rates(full[k], wp, rows, x, sig, f0_full)
        term2 = (rows @ vel) ** 2 * sig * dim
        sup = max(sup, float(np.max(np.abs(acc[1:-1] * dre + term2))))
    return sup


def geodesic_residual(path, times, w, sigma: BackgroundSigma, f0: GridFunction) -> float:
    """Sup-norm defect of the geodesic equation along a sampled path.

    Each sample is a potential phi; the graph it parametrizes is
    f = f0 + sigma * d(phi)/dx.  The equation checked at interior times and
    nodes is  phi_tt * d/dx Re(w(z_f)) + (d(phi_t)/dx)^2 sigma Im(w'(z_f)).
    """
    wp = w.derivative()
    times, base, full = _path_arrays(path, times)
    _check_sigma(base, sigma)
    return _geodesic_sup(full, times, wp, _node_rows(base), base.nodes, sigma.values,
                         _with_ends(f0))


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
    wp = w.derivative()
    _check_sigma(phi0, sigma)
    rows = _node_rows(phi0)
    x = phi0.nodes
    sig = sigma.values
    f0_full = _with_ends(f0)
    times = np.linspace(0.0, 1.0, n_times)
    dt = times[1] - times[0]

    full = np.stack([
        (1.0 - t) * _with_ends(phi0) + t * _with_ends(phi1) for t in times
    ])

    for sweep in range(_GEODESIC_MAX_SWEEPS):
        for k in range(1, n_times - 1):
            vel = (full[k + 1] - full[k - 1]) / (2.0 * dt)
            dre, dim = _graph_rates(full[k], wp, rows, x, sig, f0_full)
            if np.any(dre <= 0):
                raise ValueError("relaxation path left the membership region")
            src = -((rows @ vel) ** 2) * sig * dim / dre
            target = 0.5 * (full[k + 1][1:-1] + full[k - 1][1:-1] - dt * dt * src)
            full[k][1:-1] = (
                (1.0 - _GEODESIC_DAMPING) * full[k][1:-1] + _GEODESIC_DAMPING * target
            )
        if sweep % 20 == 19 or sweep == _GEODESIC_MAX_SWEEPS - 1:
            if _geodesic_sup(full, times, wp, rows, x, sig, f0_full) < _GEODESIC_TOL:
                break
    path = [
        GridFunction(phi0.a, phi0.b, x, row[1:-1], (row[0], row[-1])) for row in full
    ]
    return times, path


def j_derivative(f: GridFunction, f_dot, w, sigma: BackgroundSigma) -> float:
    """dJ/dt along a path through f with interior velocity f_dot."""
    _check_sigma(f, sigma)
    weights = _quadrature_for(f)
    v = w(f.nodes + 1j * f.values).imag
    return float(np.sum(weights * np.asarray(f_dot, dtype=float) * v / sigma.values))
