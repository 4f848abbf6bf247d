"""Command-line entry point: classify / trace / flow / dhym.

Verdicts and reports are printed as single-line JSON on stdout; polylines and
flow histories go to CSV files named by --out.  One encoder renders each
format: ``render_json`` and ``render_csv``.  The exit code only says
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

``trace``, ``flow`` and ``dhym --witness`` import ``tracer`` and
``kempf_ness`` when they run, so ``classify`` and ``dhym`` run neither
module's imports.  numpy loads only where arrays are built: ``dhym``
without ``--witness`` never loads it, ``classify`` and ``trace`` load it
for a root solve of w' (none when w' is a constant or a multiple of a
power of z), and a flow and an f0 file's interpolant load it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys

from .cauchy import HalfInteger
from .dhym import CalabiInput, analyze, build_polynomials
from .errors import LevelGraphError
from .poly import ComplexPolynomial, root_product
from .stability import BoundaryData, classify, shift_to_zero_level

__all__ = ["main", "render_csv", "render_json"]


# ---------------------------------------------------------------------------
# deterministic JSON and CSV


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


def render_csv(header, rows) -> str:
    """The column names joined by commas, then one line per row of floats
    at 17 significant digits; every line ends in a newline."""
    lines = [",".join(header)]
    lines.extend(",".join("%.17g" % v for v in row) for row in rows)
    return "\n".join(lines) + "\n"


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
    return ComplexPolynomial(root_product([_parse_coefficient(tok) for tok in text.split(",")]))


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
    from .tracer import trace_level

    if args.kind == "c0":
        kind, level = "level", args.w(args.seed).imag
    else:
        kind, level = "vertical_tangent", 0.0
    line = trace_level(args.w, args.seed, kind=kind, direction=args.direction, level=level)
    with open(args.out, "w") as fh:
        fh.write(render_csv(("re", "im"), ((p.real, p.imag) for p in line.points)))
    _emit(
        {"out": args.out, "points": len(line.points), "terminated_by": line.terminated_by},
        None,
    )
    return 0


def _interp_f0_from_file(path: str, a: float, b: float):
    """Linear interpolant of the x,f rows of a CSV file.  The first nonblank
    row may be a header; every x and height must be finite, every x appear
    once, and the samples span [a, b]."""
    with open(path) as fh:
        rows = [row for row in map(str.strip, fh) if row]
    xs, fs = [], []
    for i, row in enumerate(rows):
        parts = row.split(",")
        try:
            x, f = float(parts[0]), float(parts[1])
        except (ValueError, IndexError):
            if i == 0:
                continue  # header row
            raise ValueError(f"bad row in {path!r}: {row!r}")
        if not math.isfinite(x):
            raise ValueError(f"non-finite x in {path!r}: {row!r}")
        if not math.isfinite(f):
            raise ValueError(f"non-finite height in {path!r}: {row!r}")
        xs.append(x)
        fs.append(f)
    if len(xs) < 2:
        raise ValueError(f"need at least two samples in {path!r}")
    order = sorted(range(len(xs)), key=xs.__getitem__)
    xs = [xs[i] for i in order]
    fs = [fs[i] for i in order]
    repeated = [a for a, b in zip(xs, xs[1:]) if a == b]
    if repeated:
        raise ValueError(f"repeated x = {repeated[0]!r} in {path!r}")
    if xs[0] > a or xs[-1] < b:
        raise ValueError(
            f"the samples of {path!r} span [{xs[0]!r}, {xs[-1]!r}], "
            f"not [Re z1, Re z2] = [{a!r}, {b!r}]"
        )
    import numpy as np

    return lambda x: np.interp(x, xs, fs)


def _flow(w, z1: complex, z2: complex, fn):
    """Flow from fn sampled on the default grid of (Re z1, Re z2), its ends
    pinned at Im z1 and Im z2, under the default sigma, to TOL.flow_stop."""
    from .kempf_ness import default_sigma, make_grid_function, run_flow

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
        fn = _interp_f0_from_file(args.f0, a, b)
    trace = _flow(data.w, data.z1, data.z2, fn)
    with open(args.out, "w") as fh:
        fh.write(render_csv(("t", "J", "residual_sup", "membership_min"),
                            zip(trace.times, trace.J_values, trace.residual_sup,
                                trace.membership_min)))
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
    from .tracer import graphical_connection

    w = ComplexPolynomial(build_polynomials(inp)[0])
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
                   help="'line' for the straight segment, or a CSV file of x,f rows "
                        "spanning [Re z1, Re z2]")
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
