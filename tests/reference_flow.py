"""Reference phi-functions: the plain form of ``levelgraph.kempf_ness._phi1``
and ``_phi3``.

``phi1`` always divides through ``where=``, and ``phi3`` always sums its
series over the whole array and forms the closed form over the whole array,
then masks one with the other.  The library's functions run only the
formula an array needs when all its entries lie on one side; they must
return the same values, bit for bit, and the tests compare the two.
"""

import math

import numpy as np

_PHI3_SWITCH = 0.35
_PHI3_SERIES = tuple(1.0 / math.factorial(k + 3) for k in range(11))


def phi1(z) -> np.ndarray:
    """phi_1(z) = (e^z - 1)/z elementwise, with phi_1(0) = 1."""
    z = np.asarray(z, dtype=float)
    return np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0.0)


def phi3(z) -> np.ndarray:
    """phi_3(z) = (e^z - 1 - z - z^2/2)/z^3 elementwise, with phi_3(0) = 1/6.

    The series is summed by Horner over the whole array, at z where |z| is
    below the switch and at 0 elsewhere; the closed form then overwrites it
    where |z| is at or past the switch.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _PHI3_SWITCH
    zs = np.where(small, z, 0.0)
    out = np.full_like(zs, _PHI3_SERIES[-1])
    for c in _PHI3_SERIES[-2::-1]:
        out *= zs
        out += c
    return np.divide(np.expm1(z) - z - 0.5 * z * z, z * z * z, out=out, where=~small)
