"""The band landscape of a potential.

For a polynomial w with no derivative roots in the open right half-plane,
the wall {Re w' = 0} slices the right half-plane into regions, and each
region carries a half-integer label computed from Cauchy indices along
vertical lines.  Level curves of Im w can only turn vertical on the wall,
so the labels organise which boundary pairs can be joined by a graph.
"""

from levelgraph.landscape import Potential, counting_function
from levelgraph.poly import ComplexPolynomial

# w = z^3/3 - i z^2: critical points at 0 and 2i, both on the axis
w = ComplexPolynomial([0.0, 0.0, -1j, 1.0 / 3.0])
pot = Potential(w)  # solves w' = 0 once and checks the right half-plane

print("potential coefficients (ascending):", [str(c) for c in w.coeffs])
print()

print("on-axis critical points")
for cp in pot.axis_critical_points:
    print(f"  y0 = {cp.y0:+.4f}   order {cp.order}   {cp.genericity}")
print()

pts = [0.5 + 0.0j, 0.5 + 1.0j, 0.5 + 2.5j, 2.0 + 0.0j, 2.0 - 2.0j]
print("labels at sample points (constant within each region)")
for p in pts:
    res = counting_function(pot, p)
    print(f"  N({p.real:+.1f}{p.imag:+.1f}i) = {str(res.value):>4s}"
          f"   (interval part {res.interval_index}, "
          f"critical part {res.crit_sum})")
