import math
import pickle

import pytest

from levelgraph import config, poly
from levelgraph.cauchy import HalfInteger
from levelgraph.errors import CriticalPointInRHP, LevelMismatch
from levelgraph.poly import ComplexPolynomial
from levelgraph.stability import BoundaryData, classify, shift_to_zero_level

CUBE_THIRD = ComplexPolynomial([0, 0, 0, 1 / 3])
# w' = z(z+1): one non-generic critical point at the origin
CUBIC_MIXED = ComplexPolynomial([0, 0, 1 / 2, 1 / 3])
# w = i(z^4/4 + 2 z^2): w' = i z (z^2+4), generic critical points at 0, +-2i
QUARTIC_I = ComplexPolynomial([0, 0, 2j, 0, 0.25j])


def _bisect(f, lo, hi, iters=200):
    flo = f(lo)
    assert flo * f(hi) < 0, "bisection bracket must straddle a sign change"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# construction and shifting


def test_boundary_data_validates_ordering():
    with pytest.raises(ValueError):
        BoundaryData(CUBE_THIRD, 2.0 + 0j, 1.0 + 0j)
    with pytest.raises(ValueError):
        BoundaryData(CUBE_THIRD, -1.0 + 0j, 1.0 + 0j)


def test_boundary_data_rejects_overflowing_derivative():
    # w has finite coefficients, but w' = 1e308 + 2e308 z does not
    with pytest.raises(ValueError, match="derivative of w overflows"):
        BoundaryData(ComplexPolynomial([0, 1e308, 1e308]), 0, 1e10)


def test_shift_to_zero_level():
    # z1 = 1+i sits on the level Im w = 2/3; z2 solves the same level at x=2
    y2 = _bisect(lambda y: (12 * y - y**3) / 3 - 2 / 3, 0.0, 1.0)
    data = BoundaryData(CUBE_THIRD, 1 + 1j, 2 + 1j * y2)
    shifted = shift_to_zero_level(data)
    assert shifted.w(1 + 1j).imag == pytest.approx(0.0, abs=1e-12)
    assert shifted.w(2 + 1j * y2).imag == pytest.approx(0.0, abs=1e-9)
    assert shifted.w.coeffs[0] == pytest.approx(-2j / 3)


def test_shift_rejects_overflow_at_a_far_boundary_point():
    # z2 = 1e200 is finite, but w(z2) ~ 1e600 / 3 and its rounding scale are not
    data = BoundaryData(CUBE_THIRD, 0j, 1e200 + 0j)
    with pytest.raises(ValueError, match="overflows a double"):
        shift_to_zero_level(data)
    with pytest.raises(ValueError, match="overflows a double"):
        classify(data)


def test_shift_rejects_level_mismatch():
    with pytest.raises(LevelMismatch) as info:
        shift_to_zero_level(BoundaryData(CUBE_THIRD, 1 + 0j, 2 + 1j))
    # Im w(2 + i) = 11/3 against TOL.sign times the rounding scale
    # max|c_k| (1 + |z2|)^3 = (1 + sqrt 5)^3 / 3
    assert info.value.value == pytest.approx(11 / 3)
    assert info.value.threshold == pytest.approx(config.TOL.sign * (1 + math.sqrt(5)) ** 3 / 3)
    assert repr(info.value.value) in str(info.value)
    copy = pickle.loads(pickle.dumps(info.value))
    assert (copy.value, copy.threshold, str(copy)) == (
        info.value.value, info.value.threshold, str(info.value))


def test_classify_rejects_rhp_critical_point():
    w = ComplexPolynomial([0, 1, -1, 1 / 3])  # w' = (z-1)^2 + ... roots in RHP
    # w' = z^2 - 2z + 1 = (z-1)^2
    with pytest.raises(CriticalPointInRHP) as info:
        classify(BoundaryData(w, 0j, 1 + 0j))
    # both constructor forms keep root and message through pickle: the
    # raised one with its own message, and the default message
    for exc in (info.value, CriticalPointInRHP(1 + 1j)):
        copy = pickle.loads(pickle.dumps(exc))
        assert (copy.root, str(copy)) == (exc.root, str(exc))
    assert str(CriticalPointInRHP(1 + 1j)).count("critical point") == 1


# ---------------------------------------------------------------------------
# trichotomy, noncritical boundary points (w = z^3/3)


def test_stable_same_region():
    res = classify(BoundaryData(CUBE_THIRD, 1 + 0j, 2 + 0j))
    assert res.verdict == "stable"
    assert res.case == "noncritical"
    assert res.n1 == HalfInteger.from_int(2)
    assert res.n2 == HalfInteger.from_int(2)
    assert res.critical_order is None


def test_semistable_z1_on_dividing_curve():
    # z1 = 1+i lies where the level curve turns vertical; shifting the level
    # puts z2 in the adjacent region on either side
    y2 = _bisect(lambda y: 12 * y - y**3 - 2, 0.0, 1.0)
    res = classify(BoundaryData(CUBE_THIRD, 1 + 1j, 2 + 1j * y2))
    assert res.verdict == "strictly_semistable"
    assert res.n1 == HalfInteger(5)  # 5/2
    assert res.n2 == HalfInteger.from_int(2)

    y2_hi = _bisect(lambda y: 12 * y - y**3 - 2, 2.0, 3.45)
    res = classify(BoundaryData(CUBE_THIRD, 1 + 1j, 2 + 1j * y2_hi))
    assert res.verdict == "strictly_semistable"
    assert res.n2 == HalfInteger.from_int(3)


def test_unstable_two_regions_apart():
    # z1 = 1+i in-region count 5/2 at the curve... move z2 two regions down:
    # level Im w = 2/3 crosses x=2 a third time below both dividing curves
    y2_lo = _bisect(lambda y: 12 * y - y**3 - 2, -4.0, -3.0)
    res = classify(BoundaryData(CUBE_THIRD, 1 + 1j, 2 + 1j * y2_lo))
    assert res.verdict == "unstable"
    assert res.n1 == HalfInteger(5)
    assert res.n2 == HalfInteger.from_int(1)


def test_unstable_plain_region_mismatch():
    # same level curve family, z2 dropped into the bottom region
    w = CUBE_THIRD
    y2 = _bisect(lambda y: 12 * y - y**3, -4.0, -3.0)  # level 0 at x=2
    res = classify(BoundaryData(w, 1 + 0j, 2 + 1j * y2))
    assert res.verdict == "unstable"
    assert (res.n1, res.n2) == (HalfInteger.from_int(2), HalfInteger.from_int(1))


def test_z2_on_boundary_flag():
    # z2 = 2+2i sits exactly on a vertical-tangent curve of w = z^3/3;
    # z1 is chosen on the matching level Im w = 16/3 further left
    y1 = _bisect(lambda y: 3 * y - y**3 - 16, -3.5, -2.0)
    res = classify(BoundaryData(CUBE_THIRD, 1 + 1j * y1, 2 + 2j))
    assert res.verdict == "unstable"
    assert res.case == "z2_on_boundary"
    assert not res.n2.is_integer


# ---------------------------------------------------------------------------
# z1 at a generic critical point (w = i(z^4/4 + 2 z^2), k = 1 at origin)


def _quartic_level_crossing(lo, hi):
    # Im(QUARTIC_I) = Re(z^4/4 + 2 z^2); level 0 through the origin, x = 2
    def f(y):
        z = 2 + 1j * y
        return (z**4 / 4 + 2 * z**2).real

    return _bisect(f, lo, hi)


def test_generic_critical_stable():
    res = classify(BoundaryData(QUARTIC_I, 0j, 2 + 1j * _quartic_level_crossing(0.5, 2.0)))
    assert res.case == "generic_critical"
    assert res.critical_order == 1
    assert res.n1 == HalfInteger.from_int(3)
    assert res.n2 == HalfInteger.from_int(3)
    assert res.verdict == "stable"

    res = classify(BoundaryData(QUARTIC_I, 0j, 2 - 1j * _quartic_level_crossing(0.5, 2.0)))
    assert res.n2 == HalfInteger.from_int(2)
    assert res.verdict == "stable"


def test_generic_critical_unstable():
    y = _quartic_level_crossing(4.5, 6.0)  # top region, two curves above z1
    res = classify(BoundaryData(QUARTIC_I, 0j, 2 + 1j * y))
    assert res.case == "generic_critical"
    assert res.n2 == HalfInteger.from_int(4)
    assert res.verdict == "unstable"

    res = classify(BoundaryData(QUARTIC_I, 0j, 2 - 1j * y))
    assert res.n2 == HalfInteger.from_int(1)
    assert res.verdict == "unstable"


# ---------------------------------------------------------------------------
# z1 at a non-generic critical point (w = z^3/3 + z^2/2, k = 1 at origin)


def _mixed_level_crossing(lo, hi):
    def f(y):
        return CUBIC_MIXED(2 + 1j * y).imag

    return _bisect(f, lo, hi)


def test_nongeneric_critical_stable():
    res = classify(BoundaryData(CUBIC_MIXED, 0j, 2 + 0j))
    assert res.case == "nongeneric_critical"
    assert res.critical_order == 1
    assert res.n1 == HalfInteger(5)  # 5/2: the half-integer label is forced
    assert res.n2 == HalfInteger.from_int(2)
    assert res.verdict == "stable"


def test_nongeneric_critical_semistable_both_sides():
    res = classify(BoundaryData(CUBIC_MIXED, 0j, 2 + 1j * _mixed_level_crossing(3.0, 5.0)))
    assert res.case == "nongeneric_critical"
    assert res.n2 == HalfInteger.from_int(3)
    assert res.verdict == "strictly_semistable"

    res = classify(BoundaryData(CUBIC_MIXED, 0j, 2 + 1j * _mixed_level_crossing(-5.0, -3.0)))
    assert res.n2 == HalfInteger.from_int(1)
    assert res.verdict == "strictly_semistable"


def test_nongeneric_critical_unstable():
    # w' = z(z+1)(z^2+9): non-generic at 0, extra generic points at +-3i.
    # Five regions; the level through the origin reaches the bottom one.
    wp = (
        ComplexPolynomial([0, 1])
        * ComplexPolynomial([1, 1])
        * ComplexPolynomial([9, 0, 1])
    )
    w = wp.antiderivative()

    def f(y):
        return w(1 + 1j * y).imag

    # bottom region at x=1 lies below y = -sqrt((18+sqrt(244))/2) ~= -4.1
    y2 = _bisect(f, -6.0, -4.5)
    res = classify(BoundaryData(w, 0j, 1 + 1j * y2))
    assert res.case == "nongeneric_critical"
    assert res.critical_order == 1
    assert res.n1 == HalfInteger(7)  # 7/2
    assert res.n2 == HalfInteger.from_int(1)
    assert res.verdict == "unstable"


# ---------------------------------------------------------------------------
# work done: one verdict, one solve of w' = 0


# verdicts seed 1 input 1616 (bench/gen.py): a planted double axis root of w'
# whose disc is too wide to certify the phase sum, so the z2 label falls back
# to the exact chain
FALLBACK_1616 = BoundaryData(
    ComplexPolynomial([0, complex(-0.9763168428237886, 2.082063962473882),
                       complex(-1.4010367503604904, -0.6569710640237899),
                       complex(0.14736028306692178, -0.31425611176203333)]),
    1.7439334496345507j, complex(2.9211556824970453, -0.8268307972808214))


def _classify_counting_work(monkeypatch, data):
    """(verdict, root solves, cubics differentiated, exact-chain labels)."""
    import levelgraph.landscape as landscape

    calls, formed, fallbacks = [], [], []
    real_roots = landscape.roots
    monkeypatch.setattr(landscape, "roots", lambda p: calls.append(p) or real_roots(p))
    real_exact_index = landscape._exact_index
    monkeypatch.setattr(landscape, "_exact_index",
                        lambda *a: fallbacks.append(a) or real_exact_index(*a))
    # the derivatives of a cubic are the w' formed; roots forms those of w'
    # itself, for the Newton pass at its double root
    real_derivative = poly._Polynomial.derivative
    monkeypatch.setattr(poly._Polynomial, "derivative",
                        lambda p: formed.append(p) or real_derivative(p))
    res = classify(data)
    return res, len(calls), [p.degree for p in formed].count(3), len(fallbacks)


@pytest.mark.parametrize("on_critical_point", [True, False])
def test_classify_solves_w_prime_once(monkeypatch, on_critical_point):
    if on_critical_point:
        data = BoundaryData(CUBE_THIRD, 0j, 2 + 0j)
    else:
        # Im w(1 + iy) = (3y - y^3)/3 meets Im w(i) = -1/3 at y^3 - 3y - 1 = 0
        y2 = _bisect(lambda y: y**3 - 3 * y - 1, 1.5, 2.0)
        data = BoundaryData(CUBE_THIRD, 1j, 1 + 1j * y2)
    res, solves, formed, fallbacks = _classify_counting_work(monkeypatch, data)
    assert res.case == ("generic_critical" if on_critical_point else "noncritical")
    assert (solves, formed, fallbacks) == (1, 1, 0)


def test_classify_with_an_exact_label_forms_w_prime_once(monkeypatch):
    # verdicts seed 1 input 1616 (bench/gen.py): the disc of a planted double
    # axis root of w' is too wide to certify the phase sum, so the z2 label
    # falls back to the exact chain, which reads the w' that was solved
    data = BoundaryData(
        ComplexPolynomial([0, complex(-0.9763168428237886, 2.082063962473882),
                           complex(-1.4010367503604904, -0.6569710640237899),
                           complex(0.14736028306692178, -0.31425611176203333)]),
        1.7439334496345507j, complex(2.9211556824970453, -0.8268307972808214))
    res, solves, formed, fallbacks = _classify_counting_work(monkeypatch, data)
    assert (res.verdict, res.case) == ("unstable", "noncritical")
    assert (solves, formed, fallbacks) == (1, 1, 1)


def test_classify_solves_the_shifted_w_prime_of_a_negative_zero(monkeypatch):
    # w = (-1 + i/2) + (1/2 - 0i) z + (-0 + 2i) z^2: w' = 1/2 + (-0 + 4i) z
    # has a generic critical point at i/8.  Shifting w adds 0j to every
    # higher coefficient, which clears the -0.0: classify solves 1/2 + 4i z,
    # and the unshifted w' would give another companion matrix
    import levelgraph.landscape as landscape

    w = ComplexPolynomial([complex(-1, 0.5), complex(0.5, -0.0), complex(-0.0, 2.0)])
    solved = []
    real_roots = landscape.roots
    monkeypatch.setattr(landscape, "roots", lambda p: solved.append(p) or real_roots(p))
    # Im w(1 + iy) - Im w(i/8) = 63/32 + y/2 - 2 y^2 vanishes at y = -7/8 and 9/8
    for z2, n2 in ((1 - 0.875j, 1), (1 + 1.125j, 2)):
        res = classify(BoundaryData(w, 0.125j, z2))
        assert (res.verdict, res.case, res.critical_order) == ("stable", "generic_critical", 1)
        assert (res.n1, res.n2) == (HalfInteger.from_int(2), HalfInteger.from_int(n2))
    assert [repr(p.coeffs) for p in solved] == [repr((0.5 + 0j, 4j))] * 2
