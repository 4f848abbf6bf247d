"""Check the certified phase-sum labels and indices against the exact chain.

    python3 tools/label_margins.py [--workload {verdicts,dhym-sweep}] [--count N] [SEED ...]

``verdicts`` (the default): for the first N inputs of each seed (3750 by
default, all that a 25 s ``bench/run.py`` run times; seeds 1 to 5 by
default), this script labels z1 and z2 the way ``classify`` does, with
``counting_function`` on one ``Potential`` of the shifted w, and labels
each point again with the exact signed-remainder chain alone.  A label is
certified when the phase sum decided it and a fallback when the chain did.

``dhym-sweep``: for the first N inputs of each seed (6000 by default, all
that a 25 s run times), this script runs ``compute_lifts`` the way
``analyze`` does and decides ind_R0 and ind_Rb again with the exact chain
alone (``dhym._chain_index``).  An index is certified when its lift count
decided it and a fallback when the chain did; ``index_fallbacks`` counts
the latter.

The inputs come from the ``bench/`` directory next to this script; nothing
under ``bench/`` is changed.  Prints one summary line per seed: labels or
indices, fallbacks, certified ones that disagree with the chain (expected
0), inputs whose label or lifts raised, and the quantiles of the certified
margins in units of pi.  Then each fallback and each disagreement with its
input index.  An exception from the exact chain itself is not counted: it
propagates.  Exits with status 0 when nothing certified disagrees, and 1
otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
DEFAULT_COUNT = {"verdicts": 3750, "dhym-sweep": 6000}


def _quantiles(values, qs=(0.0, 0.01, 0.1, 0.5)):
    values = sorted(values)
    if not values:
        return "-"
    return " ".join(f"q{q:g}={values[min(len(values) - 1, int(q * len(values)))]:.3g}"
                    for q in qs)


def _report(seed, total, what, margins, fallbacks, wrong, raised) -> int:
    print(f"seed {seed}: {total} {what}, {len(fallbacks)} fallbacks, "
          f"{len(wrong)} disagree, {len(raised)} raised; certified margin/pi "
          f"{_quantiles(margins)}")
    for line in fallbacks + wrong + raised:
        print(line)
    return len(wrong)


def check_verdicts(seed: int, count: int) -> int:
    """Print the band-label report for one seed; return the number of disagreements."""
    import gen
    import ops
    from levelgraph import landscape
    from levelgraph import config
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
            if (res.interval_index, res.value) != (idx, abs(idx) + res.crit_sum + 1):
                wrong.append(f"  input {i} {name}: phase sum {res.value} "
                             f"({res.interval_index}), chain index {idx}")
    return _report(seed, 2 * (count - len(raised)), "labels", margins, fallbacks, wrong, raised)


def check_dhym(seed: int, count: int) -> int:
    """Print the lift-index report for one seed; return the number of disagreements."""
    import gen
    import ops
    from levelgraph import dhym

    inputs = gen.InputStream("dhym-sweep", seed).take(count)
    margins, fallbacks, wrong, raised = [], [], [], []
    non_generic = 0
    for i, data in enumerate(inputs):
        try:
            inp = dhym.CalabiInput(*ops.prepare_dhym(data))
            w, P, theta_hat = dhym.build_polynomials(inp)
            Z_X, Z_Dinf, _ = dhym.compute_charges(inp, P)
            lifts = dhym.compute_lifts(inp, w, theta_hat, Z_X, Z_Dinf)
        except Exception as exc:  # noqa: BLE001 -- reported, not fatal
            raised.append(f"  input {i}: {type(exc).__name__}: {exc}")
            continue
        generic = lifts.genericity == "generic"
        non_generic += not generic
        chain = tuple(dhym._chain_index(inp, w.derivative(), generic, axis)
                      for axis in (True, False))
        if lifts.index_fallbacks:
            fallbacks.append(f"  input {i} ({lifts.genericity}): {lifts.index_fallbacks} "
                             f"of 2, margin {lifts.line_margin:.3g}")
        else:
            margins.append(lifts.line_margin)
        if (lifts.ind_R0, lifts.ind_Rb) != chain:
            wrong.append(f"  input {i} ({lifts.genericity}): lift counts "
                         f"({lifts.ind_R0}, {lifts.ind_Rb}), chain ({chain[0]}, {chain[1]})")
    what = f"indices ({non_generic} inputs non-generic)"
    return _report(seed, 2 * (count - len(raised)), what, margins, fallbacks, wrong, raised)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 2, 3, 4, 5])
    parser.add_argument("--workload", choices=sorted(DEFAULT_COUNT), default="verdicts")
    parser.add_argument("--count", type=int)
    args = parser.parse_args(argv)
    count = args.count or DEFAULT_COUNT[args.workload]
    check = check_dhym if args.workload == "dhym-sweep" else check_verdicts
    sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
    bad = sum(check(seed, count) for seed in args.seeds)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
