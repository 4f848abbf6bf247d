"""Tracing level curves and walls, and checking a connection by eye.

`trace_level` follows {Im w = level} (or the wall {Re w' = 0}) through a
seed with a predictor-corrector scheme and reports how the trace ended:
`target`, `critical_point`, `y_axis` (the imaginary axis), `radius` (the
escape radius) or `step_limit`.  `graphical_connection` wraps a trace
from z2 toward z1 and says whether the result is a graph.

Writes two CSV files next to this script, rendered by the command line's
CSV encoder, `levelgraph.cli.render_csv`.
"""

import os

from levelgraph.cli import render_csv
from levelgraph.poly import ComplexPolynomial
from levelgraph.tracer import graphical_connection, trace_level

HERE = os.path.dirname(os.path.abspath(__file__))

w = ComplexPolynomial([0.0, 0.0, -1j, 1.0 / 3.0])  # z^3/3 - i z^2

# --- a level curve seeded off-axis ------------------------------------
seed = 1.5 + 0.2j
line = trace_level(w, seed, kind="level", level=w(seed).imag, direction=-1)
path = os.path.join(HERE, "level_curve.csv")
with open(path, "w") as fh:
    fh.write(render_csv(("re", "im"), ((p.real, p.imag) for p in line.points)))
print(f"level curve through {seed}: {len(line.points)} points, "
      f"ended at '{line.terminated_by}' -> {path}")

# --- the wall through the same neighbourhood --------------------------
# Re w'(x+iy) = x^2 - y^2 + 2y vanishes at e.g. x=1, y=1-sqrt(2)... take
# the seed from the formula directly
wall_seed = 1.0 + (1.0 - 2.0 ** 0.5) * 1j
wall = trace_level(w, wall_seed, kind="vertical_tangent", direction=1)
path = os.path.join(HERE, "wall_curve.csv")
with open(path, "w") as fh:
    fh.write(render_csv(("re", "im"), ((p.real, p.imag) for p in wall.points)))
print(f"wall through {wall_seed:.4f}: {len(wall.points)} points, "
      f"ended at '{wall.terminated_by}' -> {path}")

# --- connection check --------------------------------------------------
# find where the level through the origin crosses the line x = 2
from levelgraph.poly import restrict_to_vertical_line, roots

im_on_line = restrict_to_vertical_line(w, 2.0)[1]
y2 = min((c.real for c, _, _ in roots(ComplexPolynomial(im_on_line))[0]
          if abs(c.imag) < 1e-9), key=abs)
z2 = 2.0 + 1j * y2
chk = graphical_connection(w, 0j, z2)
print(f"\nis z2={z2:.4f} joined to z1=0 by a graph on the level set?")
print(f"  connected={chk.connected}  graphical={chk.graphical}  "
      f"slope_sup={chk.slope_sup:.3f}")
print(f"  trace ended at '{chk.trace.terminated_by}' "
      f"after {len(chk.trace.points)} points")
