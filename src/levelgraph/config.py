"""Tolerances, one object read at call time, and the flow grid's size.

Every tolerance is a field of ``TOL``, the one :class:`Tolerances`.  Modules
read ``config.TOL.<field>`` when called and import none by name, so one
rebinding of ``config.TOL`` to a ``dataclasses.replace`` copy reaches all
of them.  Sign and snap tolerances are bare factors of a scale from the
data at hand (``sign`` is the one relative-zero test).  The rounding bound
``cauchy.CLIMB_ROUNDING`` stays out: it is proven, certifies a float count,
and must never be scaled.

``GRID_NODES`` is the default node count of the flow's Gauss grid.  No file
or environment variable configures a run: a caller that needs another grid
or flow stop passes it to ``make_grid_function(n=...)`` or
``run_flow(stop_tol=...)``.  The trace radius is always derived from the
coefficients of w (``trace_radius_factor``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GRID_NODES", "TOL", "Tolerances"]


@dataclass(frozen=True)
class Tolerances:
    """Every tolerance of the package; ``TOL`` is the instance in force."""

    # a w'-root c is on the imaginary axis when |Re c| <= sign (1 + |c|); the
    # same relative factor decides whether z1, z2 share a level, a dHYM
    # input is generic when its Z_P start lies sign/pi or more from its line,
    # and the tracer takes a unit tangent with |Re| <= sign as vertical
    sign: float = 1e-9
    # a point z counts as on the imaginary axis, or on an on-axis critical
    # point, when it lies within snap (1 + |z|) of it
    snap: float = 1e-8
    # no total charge: |P(z2)| below zero_charge sum |c_k| |z2|^k, the a priori
    # scale of its Horner rounding, homogeneous in the class data
    zero_charge: float = 1e-12
    # continuation (tracer), each relative to a local scale
    corrector: float = 1e-10          # |level function| after Newton correction
    max_turn_angle: float = 0.2       # radians per accepted step
    trace_radius_factor: float = 4.0  # radius = factor * (1 + Fujiwara's bound on |roots of w|)
    step_initial: float = 1e-3        # first step where the seed has no disc, times (1 + |seed|)
    step_max: float = 0.05            # step cap, times (1 + escape radius)
    step_floor: float = 1e-11         # below this the corrector has genuinely failed
    crit_snap: float = 1e-4           # |u - c| below this counts as hitting c
    connect: float = 1e-6             # |u - target| below this counts as arrival
    seed_snap: float = 1e-2           # how far the seed may move onto the curve
    graph_slack: float = 1e-10        # a rightward step a graph tolerates: corrector rounding
    # flow
    flow_stop: float = 1e-8
    # accepted flow step: embedded error per unit time <= flow_step_rtol * sup |Im w|;
    # the outputs need the drift it allows only to keep each node in its basin
    # and to bound the membership reading (run_flow's docstring)
    flow_step_rtol: float = 1e-2
    flow_diverged: float = 1e6         # height residual past this: Diverged
    flow_endpoint_blowup: float = 1e8  # residual per unit sigma past this: NonIntegrableEndpoint
    grid_match: float = 1e-12          # GridFunction nodes: the Gauss nodes within this * (b - a)


TOL = Tolerances()

GRID_NODES = 257

