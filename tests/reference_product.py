"""Reference product: the schoolbook product of two coefficient lists.

The library forms one kind of product, ``levelgraph.poly.root_product``,
the monic product of the factors (z - r).  The tests check it against this
generic double loop, repr for repr, and build their fixtures of other
shapes (a leading coefficient first, then factors in the order drawn) with
it, so each fixture keeps the bits it has always had.  They build a w from
its w' with :func:`antiderivative_coeffs`; the library needs no
antiderivative of its own (``dhym._potential`` divides P's coefficients
inline).
"""


def product(a, b) -> list:
    """The ascending coefficients of a times b: each out[i + j] starts at 0j
    and adds complex(a[i]) * complex(b[j]) in order of i, then j."""
    a, b = [complex(c) for c in a], [complex(c) for c in b]
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def antiderivative_coeffs(coeffs) -> list:
    """Ascending coefficients of the antiderivative with value 0 at 0."""
    return [0j] + [c / (k + 1) for k, c in enumerate(coeffs)]
