"""Reference flow trial: the plain form of ``levelgraph.kempf_ness._phi1``,
``_phi3``, ``_exprb32``, ``_step_pass`` and ``_newton``.

``phi1`` always divides through ``where=``, and ``phi3`` always sums its
series over the whole array and forms the closed form over the whole array,
then masks one with the other.  The library's ``phi1`` divides plainly when
no entry is zero, and its ``phi3`` skips the series when no entry lies
below the switch; they must return the same values, bit for bit, and the
tests compare the two.

``exprb32`` and ``stacked_pass`` are one flow trial as it reads on paper:
every operation returns a new array, and the Horner sums start from the
scalar 0.0.  The library writes the same operations, in the same order,
into work arrays that ``run_flow`` makes once per call; the tests compare
the bytes of both.  ``newton`` takes a Horner pass for every step, where
the library's first step reads the state's own right-hand side and
Jacobian; both must reach the same limit, bit for bit.
"""

import math

import numpy as np

_PHI3_SWITCH = 0.35
_PHI3_SERIES = tuple(1.0 / math.factorial(k + 3) for k in range(11))


def phi1(z) -> np.ndarray:
    """phi_1(z) = (e^z - 1)/z elementwise, with phi_1(0) = 1."""
    z = np.asarray(z, dtype=float)
    return np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0.0)


def phi3(z) -> np.ndarray:
    """phi_3(z) = (e^z - 1 - z - z^2/2)/z^3 elementwise, with phi_3(0) = 1/6.

    The series is summed by Horner over the whole array, at z where |z| is
    below the switch and at 0 elsewhere; the closed form then overwrites it
    where |z| is at or past the switch.  The library sums its series at z
    itself everywhere, where a large |z| can overflow.  Both agree, bit for
    bit: the sum is elementwise, so an entry below the switch goes through
    the same operations in both, and every other entry is overwritten.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _PHI3_SWITCH
    zs = np.where(small, z, 0.0)
    out = np.full_like(zs, _PHI3_SERIES[-1])
    for c in _PHI3_SERIES[-2::-1]:
        out *= zs
        out += c
    return np.divide(np.expm1(z) - z - 0.5 * z * z, z * z * z, out=out, where=~small)


def horner(coeffs, z):
    """The sum over ascending coefficient rows at the heights z, from 0.0."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def exprb32(vals, k, jac, rhs, dt):
    """One exprb32 step of f' = rhs(f) from vals, with k = rhs(vals) and jac
    the diagonal Jacobian: (new state, error estimate)."""
    hj = dt * jac
    u = np.exp(hj) * vals + phi1(hj) * dt * (k - jac * vals)
    d = rhs(u) - k - (u - vals) * jac
    corr = phi3(hj) * (2.0 * dt) * d
    return u + corr, corr


def stacked_pass(stacked, yi, yw, qw, old, new):
    """(J(new) - J(old), the three state rows at new) from one Horner pass
    over stacked: the three state rows at new over the right-hand side's
    rows at the Gauss heights yi of the step from old to new."""
    half = 0.5 * (new - old)
    heights = np.concatenate([np.broadcast_to(new, (3, len(new))),
                              0.5 * (new + old) + yi[:, None] * half])
    rows = horner(stacked, heights)
    return -float((qw * half * (yw @ rows[3:])).sum()), rows[:3]


def newton(rows, vals, steps=12):
    """The finish's Newton steps from vals as they read on paper, every step
    the first included taking its own Horner pass over the rows of -V and
    V', with ``kempf_ness._newton``'s stop rule: (limit, passes), the limit
    None when the rule is not met within steps passes."""
    eps = np.finfo(float).eps
    out, last = vals, math.inf
    for n in range(steps):
        k, slope = horner(rows, out)
        step = k / slope
        out = out + step
        d = float(np.max(np.abs(step)))
        if not d < last:
            return out, n + 1
        if n and d * (d / last) ** 2 <= eps * float(np.max(np.abs(out))):
            return out, n + 1
        last = d
    return None, steps
