"""Check the certified phase-sum band labels against the exact chain.

    python3 tools/label_margins.py [--count N] [SEED ...]

For the first N ``verdicts`` inputs of each seed (3750 by default, all that
a 25 s ``bench/run.py`` run times; seeds 1 to 5 by default), this script
labels z1 and z2 the way ``classify`` does, with ``counting_function`` on
one ``Potential`` of the shifted w, and labels each point again with the
exact signed-remainder chain alone.  A label is certified when the phase
sum decided it and a fallback when the chain did.  The inputs come from the
``bench/`` directory next to this script; nothing under ``bench/`` is
changed.

Prints one summary line per seed: labels, fallbacks, certified labels that
disagree with the chain (value or interval index; expected 0), inputs that
raised, and the quantiles of the certified margins in units of pi.  Then
each fallback and each disagreement with its input index.  Exits with
status 0 when no certified label disagrees, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _quantiles(values, qs=(0.0, 0.01, 0.1, 0.5)):
    values = sorted(values)
    if not values:
        return "-"
    return " ".join(f"q{q:g}={values[min(len(values) - 1, int(q * len(values)))]:.3g}"
                    for q in qs)


def check(seed: int, count: int) -> int:
    """Print the report for one seed; return the number of disagreements."""
    import gen
    import ops
    from levelgraph import landscape
    from levelgraph.config import SNAP_TOL
    from levelgraph.stability import BoundaryData, shift_to_zero_level

    inputs = gen.InputStream("verdicts", seed).take(count)
    margins, fallbacks, wrong, raised = [], [], [], []
    for i, data in enumerate(inputs):
        try:
            bd = shift_to_zero_level(BoundaryData(*ops.prepare_verdicts(data)))
            pot = landscape.Potential(bd.w)
            for name, z in (("z1", bd.z1), ("z2", bd.z2)):
                res = landscape.counting_function(pot, z)
                if res.exact_fallback:
                    fallbacks.append(f"  input {i} {name}: margin {res.margin:.3g}")
                    continue
                margins.append(res.margin)
                on_axis = z.real <= SNAP_TOL * (1.0 + abs(z))
                idx = landscape._exact_index(pot, z, on_axis)
                if (res.interval_index, res.value) != (idx, abs(idx) + res.crit_sum + 1):
                    wrong.append(f"  input {i} {name}: phase sum {res.value} "
                                 f"({res.interval_index}), chain index {idx}")
        except Exception as exc:  # noqa: BLE001 -- reported, not fatal
            raised.append(f"  input {i}: {type(exc).__name__}: {exc}")
    labels = 2 * (count - len(raised))
    print(f"seed {seed}: {labels} labels, {len(fallbacks)} fallbacks, "
          f"{len(wrong)} disagree, {len(raised)} raised; certified margin/pi "
          f"{_quantiles(margins)}")
    for line in fallbacks + wrong + raised:
        print(line)
    return len(wrong)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 2, 3, 4, 5])
    parser.add_argument("--count", type=int, default=3750)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
    bad = sum(check(seed, args.count) for seed in args.seeds)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
