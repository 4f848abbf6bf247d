"""Where numpy loads: a dHYM verdict needs none, a root solve does.

Every module imports numpy inside the functions that build arrays or call
``numpy.linalg.eigvals``, so a process that imports the package and decides
class data never pays numpy's import.  The check runs in a fresh
interpreter, since the test process itself has numpy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import io, sys
from contextlib import redirect_stdout
from levelgraph import poly, cauchy, landscape, stability, tracer, kempf_ness, dhym, cli

report = dhym.analyze(dhym.CalabiInput(m=2, r=1, xi1=1.0, xi2=0.5, b=1.5, q=0.25))
with redirect_stdout(io.StringIO()) as out:
    rc = cli.main(["dhym", "--m", "1", "--r", "0", "--xi1", "1", "--xi2", "0",
                   "--b", "1", "--q", "0"])
if rc != 0 or '"verdict":"exists"' not in out.getvalue():
    sys.exit("the dhym subcommand failed: " + out.getvalue())
print("numpy" in sys.modules)
# w' = (z + 1)^2 has no zero at 0, so classify takes its roots from eigvals
w = poly.ComplexPolynomial([0, 1, 1, 1 / 3])
stability.classify(stability.BoundaryData(w, 0j, 2.0))
print("numpy" in sys.modules)
"""


def test_a_dhym_verdict_loads_no_numpy_and_a_root_solve_does():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
