"""Tolerance and discretization defaults, collected in one place.

All tolerances that decide a *sign* or a *snap* are relative: they get
multiplied by a scale derived from the coefficients or the geometry at hand.
The constants here are the bare factors.  Root multiplicities need none:
``poly.roots`` counts the zeros in each component of inclusion discs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

# a w'-root is on the imaginary axis when |Re| <= SIGN_TOL * (1 + |root|); the
# same relative factor decides genericity and whether z1, z2 share a level
SIGN_TOL = 1e-9

# a point z counts as on the imaginary axis, or on an on-axis critical point,
# when it lies within SNAP_TOL * (1 + |z|) of it
SNAP_TOL = 1e-8

# continuation (tracer)
CORRECTOR_TOL = 1e-10      # |level function| after Newton correction
MAX_TURN_ANGLE = 0.2       # radians per accepted step
TRACE_RADIUS_FACTOR = 4.0  # radius = factor * (1 + Fujiwara's bound on |roots of w|)

# flow
FLOW_STOP_TOL = 1e-8
# accepted flow step: embedded error per unit time <= FLOW_STEP_RTOL * sup |Im w|
FLOW_STEP_RTOL = 1e-3
FLOW_DIVERGED = 1e6
FLOW_ENDPOINT_BLOWUP = 1e8
GRID_NODES = 257


@dataclass
class RunConfig:
    """Run-wide knobs, mirrored by the CLI ``--config`` JSON file."""

    stop_tol: float = FLOW_STOP_TOL
    grid_nodes: int = GRID_NODES
    trace_radius: float = 0.0   # 0 means "derive from the coefficients of w"
    out_path: str = ""

    def __post_init__(self):
        def number(v) -> bool:  # a finite int or float; a bool is no number here
            return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) < math.inf

        for key, ok, want in (
            ("stop_tol", number(self.stop_tol) and self.stop_tol > 0, "a finite number > 0"),
            ("grid_nodes", number(self.grid_nodes) and isinstance(self.grid_nodes, int)
             and self.grid_nodes >= 3, "an int >= 3"),
            ("trace_radius", number(self.trace_radius) and self.trace_radius >= 0,
             "a finite number >= 0"),
            ("out_path", isinstance(self.out_path, str), "a string"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {want}, got {getattr(self, key)!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)
