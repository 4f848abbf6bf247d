"""Check that every planted axis height of the verdicts inputs is found.

    python3 tools/planted_heights.py CHECKOUT [SEED ...]

``bench/gen.py`` builds each ``verdicts`` input's w from a w' with some roots
planted on the imaginary axis, at heights y that ``random_w`` returns beside
w.  For the inputs a 25 s ``bench/run.py`` run times (the first 3750 of each
seed; seeds 1 to 4 by default), this script runs CHECKOUT's
``Potential(shift_to_zero_level(data).w)`` and counts a height as found when
an axis critical point lies within 1e-6 (1 + |y|) of it.  The heights are
read by wrapping ``gen.random_w`` while the inputs are drawn; nothing under
``bench/`` is changed, and the inputs come from the ``bench/`` directory next
to this script, so every checkout sees the same data.

Prints one summary line per seed (inputs, planted heights, misses, inputs
that raised), then each miss with its input index and the axis points found,
and each input that raised with its exception.  Exits with status 0 when
nothing is missed and nothing raised, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from compare_answers import BENCH, COUNTS


def check(seed: int) -> int:
    """Print the report for one seed; return the number of misses and raises."""
    import gen
    import ops
    from levelgraph.landscape import Potential
    from levelgraph.stability import BoundaryData, shift_to_zero_level

    planted = []
    random_w = gen.random_w

    def recording(*args, **kwargs):
        w, heights = random_w(*args, **kwargs)
        planted.append(heights)
        return w, heights

    gen.random_w = recording
    try:
        stream = gen.InputStream("verdicts", seed)
        # each input is yielded right after the random_w call that built it
        inputs = [(stream.take(1)[0], planted[-1]) for _ in range(COUNTS["verdicts"])]
    finally:
        gen.random_w = random_w

    misses, raised, total = [], [], 0
    for i, (data, heights) in enumerate(inputs):
        total += len(heights)
        try:
            pot = Potential(shift_to_zero_level(BoundaryData(*ops.prepare_verdicts(data))).w)
        except Exception as exc:  # noqa: BLE001 -- reported, not fatal
            raised.append(f"  input {i}: {type(exc).__name__}: {exc}")
            continue
        found = [cp.y0 for cp in pot.axis_critical_points]
        for y in heights:
            if not any(abs(y0 - y) <= 1e-6 * (1.0 + abs(y)) for y0 in found):
                orders = [(cp.y0, cp.order) for cp in pot.axis_critical_points]
                misses.append(f"  input {i}: height {y!r} missed; axis points "
                              f"(height, order) {orders}")
    print(f"seed {seed}: {len(inputs)} inputs, {total} planted heights, "
          f"{len(misses)} missed, {len(raised)} raised")
    for line in misses + raised:
        print(line)
    return len(misses) + len(raised)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 2, 3, 4])
    args = parser.parse_args(argv)
    src = args.checkout.resolve() / "src"
    if not (src / "levelgraph" / "__init__.py").is_file():
        parser.error(f"no levelgraph sources under {args.checkout}")
    sys.path[:0] = [str(src), str(BENCH)]
    bad = sum(check(seed) for seed in args.seeds)
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
