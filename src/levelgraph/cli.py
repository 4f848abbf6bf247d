"""Command-line entry point: classify / trace / flow / dhym / selfcheck.

Verdicts and reports are printed as single-line JSON on stdout; polylines and
flow histories go to CSV files named by --out.  The exit code only says
success (0) or error (1) -- verdicts are data and scripts should parse the
JSON; for ``classify`` and ``dhym`` it is the verdict record's fields, in
order.  All numeric JSON fields are rendered with 17 significant digits so a
double round-trips losslessly, half-integers are rendered as strings like
"5/2", and complex numbers as [re, im] pairs.  Identical inputs produce
byte-identical output; nothing here consults the clock or an RNG.

The CLI reads no config file, and its run settings are the library's
defaults: ``flow`` and ``dhym --witness`` flow on ``config.GRID_NODES``
Gauss nodes until the residual drops below ``TOL.flow_stop``, and ``trace``
runs out to the radius that Fujiwara's bound on the roots of w gives.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys

import numpy as np

from .cauchy import HalfInteger, RationalFunction, index_on_interval
from .dhym import CalabiInput, analyze, build_polynomials
from .errors import LevelGraphError
from .kempf_ness import default_sigma, j_derivative, make_grid_function, run_flow
from .landscape import Potential, counting_function
from .poly import ComplexPolynomial, RealPolynomial, from_roots
from .stability import BoundaryData, classify, shift_to_zero_level
from .tracer import graphical_connection, trace_level

__all__ = ["main", "render_json"]


# ---------------------------------------------------------------------------
# deterministic JSON


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"cannot render non-finite float {v!r} as JSON")
    text = format(v, ".17g")
    if not any(c in text for c in ".eE"):
        text += ".0"
    return text


def _record_fields(record) -> dict:
    """A dataclass record's fields, in declaration order."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def render_json(obj) -> str:
    """Render with a fixed, locale-free format: dict and record field order
    preserved, floats at 17 significant digits, no whitespace."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return render_json([obj.real, obj.imag])
    if isinstance(obj, HalfInteger):
        return json.dumps(str(obj))
    if dataclasses.is_dataclass(obj):
        return render_json(_record_fields(obj))
    if isinstance(obj, dict):
        parts = (f"{json.dumps(str(k))}:{render_json(v)}" for k, v in obj.items())
        return "{" + ",".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in obj) + "]"
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def _emit(payload, out_path: str | None) -> None:
    text = render_json(payload)
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# argument parsing helpers


def _parse_coefficient(token: str) -> complex:
    text = token.strip().replace(" ", "")
    if not text:
        raise argparse.ArgumentTypeError("empty coefficient")
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse coefficient {token!r}")


def _parse_poly(text: str) -> ComplexPolynomial:
    coeffs = [_parse_coefficient(tok) for tok in text.split(",")]
    return ComplexPolynomial(coeffs)


def _parse_roots(text: str) -> ComplexPolynomial:
    return from_roots([_parse_coefficient(tok) for tok in text.split(",")])


def _parse_point(text: str) -> complex:
    parts = text.split(",")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError(f"expected re,im -- got {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse point {text!r}")
    return complex(re, im)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args) -> int:
    verdict = classify(BoundaryData(args.w, args.z1, args.z2))
    _emit(verdict, args.out)
    return 0


def _cmd_trace(args) -> int:
    if args.kind == "c0":
        kind, level = "level", args.w(args.seed).imag
    else:
        kind, level = "vertical_tangent", 0.0
    line = trace_level(args.w, args.seed, kind=kind, direction=args.direction, level=level)
    with open(args.out, "w") as fh:
        fh.write(line.to_csv())
    _emit(
        {"out": args.out, "points": len(line.points), "terminated_by": line.terminated_by},
        None,
    )
    return 0


def _interp_f0_from_file(path: str):
    """Linear interpolant of the x,f rows of a CSV file."""
    xs, fs = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh):
            row = raw.strip()
            if not row:
                continue
            parts = row.split(",")
            try:
                xs.append(float(parts[0]))
                fs.append(float(parts[1]))
            except (ValueError, IndexError):
                if lineno == 0:
                    continue  # header row
                raise ValueError(f"bad row in {path!r}: {row!r}")
    if len(xs) < 2:
        raise ValueError(f"need at least two samples in {path!r}")
    order = sorted(range(len(xs)), key=xs.__getitem__)
    xs = [xs[i] for i in order]
    fs = [fs[i] for i in order]
    return lambda x: np.interp(x, xs, fs)


def _flow(w, z1: complex, z2: complex, fn):
    """Flow from fn sampled on the default grid of (Re z1, Re z2), its ends
    pinned at Im z1 and Im z2, under the default sigma, to TOL.flow_stop."""
    a, b = z1.real, z2.real
    f0 = make_grid_function(a, b, fn, boundary=(z1.imag, z2.imag))
    return run_flow(f0, w, default_sigma(a, b, f0.nodes))


def _flow_summary(trace, residual_key: str) -> dict:
    """Steps, final residual and J, and the membership minimum of the start
    state and over every recorded state of the run."""
    return {
        "steps": len(trace.times) - 1,
        "rejected_steps": trace.rejected_steps,
        residual_key: trace.residual_sup[-1],
        "final_J": trace.J_values[-1],
        "membership_min_start": trace.membership_min[0],
        "membership_min_over_run": min(trace.membership_min),
    }


def _cmd_flow(args) -> int:
    data = shift_to_zero_level(BoundaryData(args.w, args.z1, args.z2))
    a, b = data.z1.real, data.z2.real
    ya, yb = data.z1.imag, data.z2.imag

    if args.f0 == "line":
        def fn(x):
            return ya + (yb - ya) * (x - a) / (b - a)
    else:
        fn = _interp_f0_from_file(args.f0)
    trace = _flow(data.w, data.z1, data.z2, fn)
    with open(args.out, "w") as fh:
        fh.write(trace.to_csv())
    _emit({"out": args.out, **_flow_summary(trace, "final_residual_sup")}, None)
    return 0


def _decimate(seq, cap: int):
    if len(seq) <= cap:
        return list(seq)
    stride = -(-len(seq) // cap)
    picked = list(seq[::stride])
    if picked[-1] is not seq[-1]:
        picked.append(seq[-1])
    return picked


def _witness(inp: CalabiInput):
    w, _, _ = build_polynomials(inp)
    check = graphical_connection(w, 0j, inp.z2)
    curve = [[p.real, p.imag] for p in _decimate(check.trace.points, 512)]
    try:
        trace = _flow(w, 0j, inp.z2, lambda x: inp.q * x / inp.b)
        final = trace.final
        xs = [final.a, *final.nodes.tolist(), final.b]
        hs = [final.boundary[0], *final.values.tolist(), final.boundary[1]]
        heights = _decimate([[x, h] for x, h in zip(xs, hs)], 65)
        flow_part = {**_flow_summary(trace, "residual_sup"), "heights": heights}
    except LevelGraphError:
        flow_part = None
    return {
        "connected": check.connected,
        "graphical": check.graphical,
        "slope_sup": check.slope_sup,
        "curve": curve,
        "flow": flow_part,
    }


def _cmd_dhym(args) -> int:
    inp = CalabiInput(args.m, args.r, args.xi1, args.xi2, args.b, args.q)
    payload = report = analyze(inp)
    if args.witness:
        witness = _witness(inp) if report.verdict == "exists" else None
        payload = {**_record_fields(report), "witness": witness}
    _emit(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# selfcheck: a fast battery of cross-module invariants on fixed inputs


def _expect(ok: bool, detail) -> None:
    # a raise, not an assert, so the battery still checks under python -O
    if not ok:
        raise AssertionError(detail)


def _check_index_hand_case():
    num = RealPolynomial([-2.0, 0.0, 1.0])
    den = RealPolynomial([0.0, -1.0, 0.0, 1.0])  # y^3 - y
    r = RationalFunction(num, den)
    # simple poles at -1, 0, 1 jumping down, up, down
    a = index_on_interval(r, -3.0, 3.0)
    _expect(a == HalfInteger.from_int(-1), f"expected index -1, got {a}")
    for split in (0.5, 0.0):
        parts = index_on_interval(r, -3.0, split) + index_on_interval(r, split, 3.0)
        _expect(parts == a, f"index not additive at {split}: {parts} != {a}")


def _check_root_counting():
    p = (
        RealPolynomial([1.0, 0.0, 1.0])
        * RealPolynomial([0.0, 1.0])
        * RealPolynomial([-3.0, 1.0])
        * RealPolynomial([2.0, 1.0])
    )
    ind = index_on_interval(
        RationalFunction(p.derivative(), p), -math.inf, math.inf
    )
    _expect(float(ind) == 3.0, f"expected 3 distinct real roots, got {ind}")


_CUBE = ComplexPolynomial([0.0, 0.0, 0.0, 1.0 / 3.0])


def _check_band_labels():
    pot = Potential(_CUBE)
    labels = tuple(str(counting_function(pot, p).value) for p in (1.0 + 0.0j, 2.0 + 0.0j))
    _expect(labels == ("2", "2"), labels)


def _check_classify():
    v = classify(BoundaryData(_CUBE, 1.0, 2.0))
    _expect(v.verdict == "stable", v)
    v = classify(BoundaryData(ComplexPolynomial([0.0, 1.0]), 0.0, 1.0))
    _expect(v.verdict == "stable", v)


def _check_tracer():
    check = graphical_connection(_CUBE, 1.0, 2.0)
    _expect(check.connected and check.graphical, check)


def _check_flow():
    # w = z: the flow f' = -f is linear with Jacobian -1, which the
    # exponential steps integrate exactly, so f(t) = f0 e^{-t} and
    # J(t) = (1 - e^{-2t})/2 * dJ/dt(0), with dJ/dt(0) = -integral f0^2/sigma
    w = ComplexPolynomial([0.0, 1.0])
    f0 = make_grid_function(
        1.0, 2.0, lambda x: 0.3 * np.sin(math.pi * (x - 1.0)), n=65, boundary=(0.0, 0.0),
    )
    sigma = default_sigma(1.0, 2.0, f0.nodes)
    trace = run_flow(f0, w, sigma, stop_tol=1e-8)
    _expect(trace.residual_sup[-1] < 1e-8, trace.residual_sup[-1])
    for prev, cur in zip(trace.J_values, trace.J_values[1:]):
        _expect(cur <= prev, "J increased along the flow")
    t = trace.times[-1]
    exact = f0.values * math.exp(-t)
    err = float(np.max(np.abs(trace.final.values - exact)))
    _expect(err <= 1e-12 * float(np.max(np.abs(exact))), f"final state off e^-t f0 by {err:.3g}")
    J_exact = 0.5 * -math.expm1(-2.0 * t) * j_derivative(f0, -f0.values, w, sigma)
    _expect(abs(trace.J_values[-1] - J_exact) <= 1e-12 * abs(J_exact),
            (trace.J_values[-1], J_exact))

    # w = z^3/3 is nonlinear, but J depends only on the state:
    # J(f) = integral of (Re W(x + i f0) - Re W(x + i f)) / sigma, W = z^4/12
    trace = run_flow(f0, _CUBE, sigma, stop_tol=1e-8)
    _expect(trace.residual_sup[-1] < 1e-8, trace.residual_sup[-1])
    for prev, cur in zip(trace.J_values, trace.J_values[1:]):
        _expect(cur <= prev, "J increased along the cubic flow")
    big_w = _CUBE.antiderivative()
    half = 0.5 * (f0.b - f0.a)
    weights = half * np.polynomial.legendre.leggauss(len(f0.nodes))[1] / sigma.values
    drop = big_w(f0.nodes + 1j * f0.values).real - big_w(f0.nodes + 1j * trace.final.values).real
    J_exact = float(np.sum(weights * drop))
    _expect(abs(trace.J_values[-1] - J_exact) <= 1e-10 * abs(J_exact),
            (trace.J_values[-1], J_exact))


def _check_dhym_hand_case():
    report = analyze(CalabiInput(1, 0, 1.0, 0.0, 1.0, 0.0))
    _expect(report.verdict == "exists", report)
    _expect(report.phi_X == 0.0 and abs(report.phi_Dinf - 0.5) < 1e-9, report)
    # the closed-form lift is pi - pi/2, exact in floating point
    _expect(report.phi_P == 0.5, report)


def _check_dhym_twisted():
    report = analyze(CalabiInput(1, 1, 1.0, 0.0, 1.0, 0.0))
    _expect(report.genericity == "non_generic", report)
    _expect(report.verdict == "exists" and str(report.ind_Rb) == "1", report)


def _check_scale_invariance():
    lam = 2.5
    for m, r, x1, x2, b, q in ((1, 0, 1.0, 0.0, 1.0, 0.0), (1, 1, 1.0, 0.0, 1.0, 0.0)):
        v1 = analyze(CalabiInput(m, r, x1, x2, b, q)).verdict
        v2 = analyze(CalabiInput(m, r, lam * x1, lam * x2, lam * b, lam * q)).verdict
        _expect(v1 == v2, (v1, v2))


def _check_json_round_trip():
    text = render_json(analyze(CalabiInput(1, 0, 1.0, 0.0, 1.0, 0.0)))
    _expect(render_json(json.loads(text)) == text, text)


_SELFCHECKS = (
    ("index_hand_case_and_additivity", _check_index_hand_case),
    ("index_counts_distinct_real_roots", _check_root_counting),
    ("band_labels", _check_band_labels),
    ("classify_hand_cases", _check_classify),
    ("tracer_connects_level_curve", _check_tracer),
    ("flow_decays_to_solution", _check_flow),
    ("dhym_hand_case", _check_dhym_hand_case),
    ("dhym_twisted_boundary_case", _check_dhym_twisted),
    ("scale_invariance", _check_scale_invariance),
    ("json_round_trip", _check_json_round_trip),
)


def _cmd_selfcheck(args) -> int:
    failures = 0
    for name, fn in _SELFCHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 -- report, don't crash the battery
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok {name}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# wiring


def _add_poly_options(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--poly", type=_parse_poly, dest="w", metavar="POLY",
                       help="comma-separated coefficients, ascending; 're+imi' per entry")
    group.add_argument("--roots", type=_parse_roots, dest="w", metavar="ROOTS",
                       help="comma-separated roots of a monic polynomial")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelgraph",
        description="Level-curve stability, flow, and dHYM existence reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="stability verdict for a boundary pair")
    _add_poly_options(p)
    p.add_argument("--z1", type=_parse_point, required=True, metavar="RE,IM")
    p.add_argument("--z2", type=_parse_point, required=True, metavar="RE,IM")
    p.add_argument("--out", default=None, help="also write the JSON here")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("trace", help="trace a level or vertical-tangent curve to CSV")
    _add_poly_options(p)
    p.add_argument("--kind", choices=("c0", "d0"), required=True,
                   help="c0: level curve of Im w through the seed; d0: Re w' = 0")
    p.add_argument("--seed", type=_parse_point, required=True, metavar="RE,IM")
    p.add_argument("--direction", type=int, choices=(1, -1), default=1)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("flow", help="run the height flow from f0 to the level graph")
    _add_poly_options(p)
    p.add_argument("--z1", type=_parse_point, required=True, metavar="RE,IM")
    p.add_argument("--z2", type=_parse_point, required=True, metavar="RE,IM")
    p.add_argument("--f0", required=True,
                   help="'line' for the straight segment, or a CSV file of x,f rows")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(fn=_cmd_flow)

    p = sub.add_parser("dhym", help="charge report and existence verdict")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--xi1", type=float, required=True)
    p.add_argument("--xi2", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--witness", action="store_true",
                   help="attach traced and flowed solution samples")
    p.add_argument("--out", default=None, help="also write the JSON here")
    p.set_defaults(fn=_cmd_dhym)

    p = sub.add_parser("selfcheck", help="run the built-in invariant battery")
    p.set_defaults(fn=_cmd_selfcheck)

    return parser


# argparse reads a value that starts with '-' as an option unless it looks
# like -12 or -.5; no levelgraph option starts with -digit, -i, -j or -n (-h
# stays help), so a token that does, such as -1e-3, -1j,1, -1,-2, -i,1 or
# -inf,0, is joined to the long option before it as --option=value
_NEGATIVE_VALUE = re.compile(r"-(\.?[0-9]|[ijn])")


def _join_negative_values(argv: list) -> list:
    out: list = []
    for token in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and _NEGATIVE_VALUE.match(token):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except LevelGraphError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
