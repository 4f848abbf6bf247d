"""The operation each workload times, and the oracle that judges it.

``prepare`` turns generated data into levelgraph objects outside the timed
region; ``run`` is the timed operation; ``check`` returns None for a correct
output or a short reason for a wrong one.  Layer functions are looked up on
their modules at call time, so a traced run that rebinds them sees every call.
"""

from __future__ import annotations

from levelgraph import dhym, kempf_ness, stability, tracer
from levelgraph.poly import ComplexPolynomial

import exact

# the CLI's default flow stopping tolerance; the witness oracle holds the
# final residual to it
STOP_TOL = 1e-8
VERDICT_NAMES = ("stable", "strictly_semistable", "unstable")
# acceptance sweep tolerance on the non-generic grade window
GRADE_TOL = 1e-6


def _c(p):
    return complex(p[0], p[1])


def _poly(pairs):
    return ComplexPolynomial([_c(p) for p in pairs])


# --- verdicts: classify(BoundaryData(w, z1, z2)) ---------------------------


def prepare_verdicts(data):
    return _poly(data["w"]), _c(data["z1"]), _c(data["z2"])


def run_verdicts(args):
    return stability.classify(stability.BoundaryData(*args))


def check_verdicts(data, out):
    if out.verdict not in VERDICT_NAMES:
        return "unknown verdict"
    # z2 is off the axis, so its band label is |index of R over (-inf, y2]| + 1
    x2, y2 = data["z2"]
    if out.n2 != abs(exact.line_index(data["w"], x2, y2)) + 1:
        return "z2 band label disagrees with the exact index"
    return None


# --- dhym-sweep: analyze(CalabiInput(m, r, xi1, xi2, b, q)) ---------------


def prepare_dhym(data):
    return tuple(data[k] for k in ("m", "r", "xi1", "xi2", "b", "q"))


def run_dhym(args):
    return dhym.analyze(dhym.CalabiInput(*args))


def check_dhym(data, out):
    if not out.phi_X < out.phi_Dinf < out.phi_X + 1.0:
        return "phi_Dinf outside (phi_X, phi_X + 1)"
    d = out.phi_P - out.phi_X
    if out.genericity == "non_generic":
        grade_exists = 1.0 - GRADE_TOL <= d <= data["r"] + GRADE_TOL
    else:
        grade_exists = 0.0 < d < data["r"] + 1.0
    if grade_exists != (out.verdict == "exists"):
        return "grade window disagrees with the verdict"
    return None


# --- witness: graphical_connection, then run_flow from the chord -----------


def prepare_witness(data):
    w, z1, z2 = _poly(data["w"]), _c(data["z1"]), _c(data["z2"])
    f0 = kempf_ness.GridFunction(0.0, z2.real, data["nodes"], data["f0"],
                                 (z1.imag, z2.imag))
    return w, z1, z2, f0, kempf_ness.default_sigma(0.0, z2.real, f0.nodes)


def run_witness(args):
    w, z1, z2, f0, sigma = args
    check = tracer.graphical_connection(w, z1, z2)
    return check, kempf_ness.run_flow(f0, w, sigma, stop_tol=STOP_TOL)


def check_witness(data, out):
    check, flow = out
    if not (check.connected and check.graphical):
        return "trace not connected and graphical"
    J = flow.J_values
    if any(b > a for a, b in zip(J, J[1:])):
        return "J increased"
    if not flow.residual_sup[-1] < STOP_TOL:
        return "final residual not below stop_tol"
    return None


def witness_work(out):
    check, flow = out
    return {"tracer.points": len(check.trace.points),
            "kempf_ness.flow_steps": len(flow.times)}


WORKLOADS = {
    "verdicts": (prepare_verdicts, run_verdicts, check_verdicts),
    "dhym-sweep": (prepare_dhym, run_dhym, check_dhym),
    "witness": (prepare_witness, run_witness, check_witness),
}


def judge(workload, data, out):
    """None when the operation is correct, else why it failed.

    An exception raised by the operation is a failure named by its type; an
    exception raised by the oracle itself propagates, because then the run
    cannot say whether the program was right.
    """
    if isinstance(out, Exception):
        return type(out).__name__
    return WORKLOADS[workload][2](data, out)

