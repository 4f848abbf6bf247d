"""Check the certified phase-sum labels and indices against the exact chain.

    python3 tools/label_margins.py [--workload {verdicts,dhym-sweep}] [--count N] [SEED ...]

``verdicts`` (the default): for the first N inputs of each seed (3750 by
default, all that a 25 s ``bench/run.py`` run times; seeds 1 to 5 by
default), this script labels z1 and z2 the way ``classify`` does, with
``counting_function`` on one ``Potential`` of the shifted w, and labels
each point again with the exact signed-remainder chain alone.  A label is
certified when the phase sum decided it and a fallback when the chain did.
Its margin is ``CountingResult.margin``: how far the phase sum's high end
lies from its nearest line beyond the root discs and rounding.  The low end
is fixed exactly by the leading coefficient of w', so it has no margin.

``dhym-sweep``: for the first N inputs of each seed (6000 by default, all
that a 25 s run times), this script runs ``compute_lifts`` the way
``analyze`` does and decides ind_Rb and a generic ind_R0 again with the
exact chain alone: for ind_Rb minus the index over [q, inf) of w' on the
vertical line Re z = b, and for ind_R0 minus the index over [0, inf) of w'
on the imaginary axis with its r lowest coefficients, exact zeros,
dropped.  ``dhym`` itself takes no chain.  Every generic axis count and
every ray count off a wall is certified.  An input with z2 on a wall (a
half-integer ind_Rb) is set aside, its ray index unchecked (expected 0 on
the timed inputs), and so is the axis index of a non-generic input, which
counts from the line its start snaps to.

The inputs come from the ``bench/`` directory next to this script; nothing
under ``bench/`` is changed.  Prints one summary line per seed: labels or
indices, those set aside (label fallbacks, or inputs on a wall),
certified ones that disagree with the chain (expected 0), inputs whose
label or lifts raised, and the quantiles of the certified margins in units
of pi (a lift's margin is its start's distance from a line).  Then each
one set aside and each disagreement with its input index.  An exception
from the exact chain itself is not counted: it propagates.  Exits with status 0 when nothing certified disagrees, and 1
otherwise.
"""

from __future__ import annotations

import argparse
import math
import sys


def _quantiles(values, qs=(0.0, 0.01, 0.1, 0.5)):
    values = sorted(values)
    if not values:
        return "-"
    return " ".join(f"q{q:g}={values[min(len(values) - 1, int(q * len(values)))]:.3g}"
                    for q in qs)


def _report(seed, total, what, margins, aside, aside_name, wrong, raised) -> int:
    print(f"seed {seed}: {total} {what}, {len(aside)} {aside_name}, "
          f"{len(wrong)} disagree, {len(raised)} raised; certified margin/pi "
          f"{_quantiles(margins)}")
    for line in aside + wrong + raised:
        print(line)
    return len(wrong)


def check_verdicts(seed: int, count: int) -> int:
    """Print the band-label report for one seed; return the number of disagreements."""
    import gen
    import ops
    from levelgraph import landscape
    from levelgraph import config
    from levelgraph.cauchy import HalfInteger
    from levelgraph.stability import BoundaryData, shift_to_zero_level

    inputs = gen.InputStream("verdicts", seed).take(count)
    margins, fallbacks, wrong, raised = [], [], [], []
    for i, data in enumerate(inputs):
        try:
            bd = shift_to_zero_level(BoundaryData(*ops.prepare_verdicts(data)))
            pot = landscape.Potential(bd.w)
            labels = [(name, z, landscape.counting_function(pot, z))
                      for name, z in (("z1", bd.z1), ("z2", bd.z2))]
        except Exception as exc:  # noqa: BLE001 -- reported, not fatal
            raised.append(f"  input {i}: {type(exc).__name__}: {exc}")
            continue
        for name, z, res in labels:
            if res.exact_fallback:
                fallbacks.append(f"  input {i} {name}: margin {res.margin:.3g}")
                continue
            margins.append(res.margin)
            on_axis = z.real <= config.TOL.snap * (1.0 + abs(z))
            idx = landscape._exact_index(pot, z, on_axis)
            value = HalfInteger(abs(idx.twice_value) + 2 * (res.crit_sum + 1))
            if (res.interval_index, res.value) != (idx, value):
                wrong.append(f"  input {i} {name}: phase sum {res.value} "
                             f"({res.interval_index}), chain index {idx}")
    return _report(seed, 2 * (count - len(raised)), "labels", margins, fallbacks, "fallbacks",
                   wrong, raised)


def _ccw_index(re, im, c):
    """Counterclockwise crossings of {Re = 0} by re + i im over [c, inf).

    The chain counts a -inf -> +inf jump of im/re as +1, and a
    counterclockwise crossing is a +inf -> -inf jump, so the count is minus
    the chain's index.
    """
    from levelgraph.cauchy import HalfInteger, index_on_interval

    return HalfInteger(-index_on_interval(im, re, c, math.inf).twice_value)


def _axis_chain_index(inp, wp):
    """A generic ind_R0 from the exact chain alone.

    On the imaginary axis, w' = e^{-i theta_hat} z^r (xi + z)^m has its r
    lowest coefficients exactly zero, so dropping them divides t^r out, and
    a generic start puts no pole at t = 0.
    """
    from levelgraph.poly import restrict_to_vertical_line

    re, im = (p[inp.r:] for p in restrict_to_vertical_line(wp, 0.0))
    return _ccw_index(re, im, 0.0)


def _ray_chain_index(inp, wp):
    """An off-wall ind_Rb from the exact chain alone: w' on Re z = b over [q, inf)."""
    from levelgraph.poly import restrict_to_vertical_line

    return _ccw_index(*restrict_to_vertical_line(wp, inp.b), inp.q)


def check_dhym(seed: int, count: int) -> int:
    """Print the lift-index report for one seed; return the number of disagreements."""
    import gen
    import ops
    from levelgraph import dhym
    from levelgraph.poly import ComplexPolynomial

    inputs = gen.InputStream("dhym-sweep", seed).take(count)
    margins, on_wall, wrong, raised = [], [], [], []
    non_generic = 0
    for i, data in enumerate(inputs):
        try:
            inp = dhym.CalabiInput(*ops.prepare_dhym(data))
            w, zeta, theta_hat, rotation = dhym.build_polynomials(inp)
            Z_X, Z_Dinf, _, wp_z2 = dhym.compute_charges(inp, zeta, rotation)
            lifts = dhym.compute_lifts(inp, theta_hat, Z_X, Z_Dinf, wp_z2)
        except Exception as exc:  # noqa: BLE001 -- reported, not fatal
            raised.append(f"  input {i}: {type(exc).__name__}: {exc}")
            continue
        generic = lifts.genericity == "generic"
        non_generic += not generic
        off_wall = lifts.ind_Rb.is_integer
        if not off_wall:
            on_wall.append(f"  input {i} ({lifts.genericity}): ind_Rb {lifts.ind_Rb}")
        if math.isfinite(lifts.line_margin):
            margins.append(lifts.line_margin)
        wp = ComplexPolynomial(w).derivative()
        chain = (_axis_chain_index(inp, wp) if generic else lifts.ind_R0,
                 _ray_chain_index(inp, wp) if off_wall else lifts.ind_Rb)
        if (lifts.ind_R0, lifts.ind_Rb) != chain:
            wrong.append(f"  input {i} ({lifts.genericity}): lift counts "
                         f"({lifts.ind_R0}, {lifts.ind_Rb}), chain ({chain[0]}, {chain[1]})")
    what = f"indices ({non_generic} inputs non-generic, their axis index unchecked)"
    return _report(seed, 2 * (count - len(raised)), what, margins, on_wall, "on a wall",
                   wrong, raised)


def main(argv=None) -> int:
    from compare_answers import BENCH, COUNTS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 2, 3, 4, 5])
    parser.add_argument("--workload", choices=["dhym-sweep", "verdicts"], default="verdicts")
    parser.add_argument("--count", type=int)
    args = parser.parse_args(argv)
    count = args.count or COUNTS[args.workload]
    check = check_dhym if args.workload == "dhym-sweep" else check_verdicts
    sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
    bad = sum(check(seed, count) for seed in args.seeds)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
