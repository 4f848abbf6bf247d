"""Cauchy indices, computed exactly, and what they count.

The Cauchy index of a rational function h over [c, d] tallies its jumps
through infinity: +1 for each -inf -> +inf jump as the argument increases,
-1 for the reverse, and a half for a pole sitting on an endpoint.  The
package computes it with a signed-remainder chain in integer arithmetic, so
the answer is exact for the doubles given: a pole a hair away from a
numerator root still counts.  For h = P'/P the index over the whole line
counts the distinct real roots of P.
"""

import math

from numpy.polynomial import Polynomial

from levelgraph.cauchy import HalfInteger, index_on_interval


def show(name, num, den, c, d, expected):
    # num and den are ascending coefficient lists
    got = index_on_interval(num, den, c, d)
    tag = "as expected" if got == expected else f"EXPECTED {expected}"
    print(f"  {name:34s} over [{c:g}, {d:g}]: {str(got):>4s}  ({tag})")


print("The index on a few hand-checkable functions")
print("-" * 60)

# 1/y has a single +1 jump at the origin ...
show("1 / y", [1.0], [0.0, 1.0], -1.0, 1.0, 1)
# ... and a pole on an endpoint contributes half of it
show("1 / y", [1.0], [0.0, 1.0], 0.0, 1.0, HalfInteger(1))

# y / (y^2 - 1): two simple poles, each jumping +1
show("y / (y^2 - 1)", [0.0, 1.0], [-1.0, 0.0, 1.0], -2.0, 2.0, 2)

# a double pole contributes nothing: the one-sided signs match
show("1 / y^2", [1.0], [0.0, 0.0, 1.0], -1.0, 1.0, 0)

# the pole near 0.0624990 is 9.5e-7 from the numerator root 1/16, which a
# root finder with a match radius of 1e-6 would cancel; it jumps -1
show("(y - 1/16) / (y^4/16 + y - 1/16)",
     [-1 / 16, 1.0], [-1 / 16, 1.0, 0.0, 0.0, 1 / 16], 0.0, 1 / 16, -1)

print()
print("Root counting through the logarithmic derivative")
print("-" * 60)
# P = (y+2) y (y-3) (y^2+1): three distinct real roots, one complex pair
P = (Polynomial([2.0, 1.0]) * Polynomial([0.0, 1.0])
     * Polynomial([-3.0, 1.0]) * Polynomial([1.0, 0.0, 1.0]))
count = index_on_interval(P.deriv().coef, P.coef, -math.inf, math.inf)
print(f"  P has real roots -2, 0, 3 (and a complex pair)")
print(f"  index of P'/P over the whole line: {count}")
assert count == 3
print("  matches the distinct real-root count, as it must")
