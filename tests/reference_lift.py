"""Reference phase lift: the step-controlled numerical unwrap.

``levelgraph.dhym`` lifts the phase of a product of right-half-plane factors
in closed form.  This module keeps the older route, which marches the
principal-value phase increment along the path under a speed bound that
cannot alias a full turn and extrapolates the tail to t = infinity.  It is
slow, and the tests compare the closed form against it.
"""

import cmath

UNWRAP_MAX_STEP = 3.141592653589793 / 8
UNWRAP_TAIL_TOL = 1e-6


def _unwrap_lift(prefactor: complex, factors, t_start: float, checkpoints, t_big: float):
    """Continuous phase lift of prefactor * prod (x_j + i(y_j + t))^{k_j}.

    ``factors`` is a sequence of (x, y, k) with x > 0, so every factor stays
    in the right half-plane and the product never vanishes.  Returns
    (lift_at_checkpoint dict, total) where ``total`` is the phase accumulated
    from t_start to the t -> infinity limit (Richardson extrapolation over
    the last doubling octave kills the C/t tail of the phase exactly to
    first order).

    Step control: the phase speed of one factor, k*x / (x^2 + (y+t)^2), is a
    unimodal bump in t, so the speed of the product over a step [t, t+dt] is
    bounded by summing each bump's max on that window.  Steps are sized so
    that bound times dt stays below UNWRAP_MAX_STEP, which makes the
    principal-value phase increment equal to the true increment -- sampling
    can never alias away a full turn.
    """
    for x, _, _ in factors:
        if not x > 0:
            raise ValueError("unwrap factors must sit in the right half-plane")
    checkpoints = sorted(set(checkpoints))
    if checkpoints and checkpoints[-1] >= t_big:
        t_big = 2.0 * checkpoints[-1]

    def value(t):
        out = prefactor
        for x, y, k in factors:
            u = complex(x, y + t)
            out *= (u / abs(u)) ** k
        return out

    def speed_bound(a, b):
        total = 0.0
        for x, y, k in factors:
            if a <= -y <= b:
                total += k / x
            else:
                total += k * max(
                    x / (x * x + (y + a) ** 2), x / (x * x + (y + b) ** 2)
                )
        return total

    t = t_start
    u = value(t)
    theta = theta_start = cmath.phase(u)
    recorded = {}
    if t in checkpoints:
        recorded[t] = theta

    def march_to(target, t, u, theta):
        while t < target:
            dt = target - t
            while speed_bound(t, t + dt) * dt > 0.95 * UNWRAP_MAX_STEP:
                dt *= 0.5
            u_new = value(t + dt)
            theta += cmath.phase(u_new * u.conjugate())
            t += dt
            u = u_new
        return t, u, theta

    for cp in checkpoints:
        if cp > t:
            t, u, theta = march_to(cp, t, u, theta)
        recorded[cp] = theta

    t, u, theta = march_to(t_big, t, u, theta)
    for _ in range(60):
        theta_prev = theta
        t, u, theta = march_to(2.0 * t, t, u, theta)
        if abs(theta - theta_prev) <= UNWRAP_TAIL_TOL:
            break
    # Richardson over the last octave cancels the C/t tail of the phase
    total_lift = (2.0 * theta - theta_prev) - theta_start
    return recorded, total_lift
