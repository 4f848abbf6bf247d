import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference_product
import reference_roots
from reference_product import antiderivative_coeffs
from levelgraph import poly
from levelgraph.poly import (
    ComplexPolynomial,
    divide_linear,
    restrict_to_vertical_line,
    root_product,
    roots,
    taylor_coeffs,
)
from levelgraph.errors import LevelGraphError, ZeroPolynomial


# ---------------------------------------------------------------------------
# frozen-value checks (worked by hand)


def test_eval_square():
    p = ComplexPolynomial([0, 0, 1])  # z^2
    assert p(1 + 1j) == pytest.approx(2j)
    assert p(2) == pytest.approx(4)


def test_eval_cubic_over_three():
    p = ComplexPolynomial([0, 0, 0, 1 / 3])  # z^3/3
    # (1+i)^3 = -2+2i
    assert p(1 + 1j) == pytest.approx((-2 + 2j) / 3)


def test_antiderivative_of_square():
    dp = ComplexPolynomial([0, 0, 1])
    p = ComplexPolynomial(antiderivative_coeffs(dp.coeffs))
    assert p.coeffs == (0, 0, 0, pytest.approx(1 / 3))
    assert p(0) == 0


def test_derivative_roundtrip():
    p = ComplexPolynomial([1, -2, 3, 0, 5])
    q = ComplexPolynomial(antiderivative_coeffs(p.coeffs))
    assert q.derivative().coeffs == pytest.approx(p.coeffs)


def test_zero_trimming_and_degree():
    p = ComplexPolynomial([1, 2, 0, 0])
    assert p.degree == 1
    z = ComplexPolynomial([0, 0.0])
    assert z.is_zero and z.degree == -1


def test_restriction_of_square():
    # z^2 on Re z = x0: (x0+iy)^2 = x0^2 - y^2 + 2i x0 y
    re, im = restrict_to_vertical_line(ComplexPolynomial([0, 0, 1]), 1.5)
    assert re == pytest.approx((2.25, 0, -1))
    assert im == pytest.approx((0, 3.0))


def test_restriction_of_cubic():
    # z^3 at x0=1: (1+iy)^3 = 1 - 3y^2 + i(3y - y^3)
    re, im = restrict_to_vertical_line(ComplexPolynomial([0, 0, 0, 1]), 1.0)
    assert re == pytest.approx((1, 0, -3))
    assert im == pytest.approx((0, 3, 0, -1))


def test_restriction_on_axis():
    # iz^2 at x0=0: i(iy)^2 = -i y^2
    re, im = restrict_to_vertical_line(ComplexPolynomial([0, 0, 1j]), 0.0)
    assert re == ()
    assert im == pytest.approx((0, 0, -1))


def test_roots_double():
    rs, _ = roots(ComplexPolynomial([1, -2, 1]))  # (z-1)^2
    assert len(rs) == 1
    assert rs[0][1] == 2
    assert rs[0][0] == pytest.approx(1.0, abs=1e-7)


def test_roots_conjugate_pair():
    rs, _ = roots(ComplexPolynomial([1, 0, 1]))  # z^2+1
    locs = sorted((c for c, _, _ in rs), key=lambda z: z.imag)
    assert locs[0] == pytest.approx(-1j)
    assert locs[1] == pytest.approx(1j)
    assert all(k == 1 for _, k, _ in rs)


def test_roots_triple():
    # (z - (1+2i))^3: companion eigenvalues scatter ~eps^(1/3) but must
    # come back as one multiplicity-3 root
    rs, _ = roots(ComplexPolynomial(root_product([1 + 2j] * 3)))
    assert len(rs) == 1
    assert rs[0][1] == 3
    assert rs[0][0] == pytest.approx(1 + 2j, abs=1e-8)


def test_roots_close_but_distinct():
    # two simple roots 1e-3 apart must NOT merge
    rs, _ = roots(ComplexPolynomial(root_product([0.0, 1e-3])))
    assert len(rs) == 2
    assert all(k == 1 for _, k, _ in rs)


def test_cluster_joins_a_chain_bridged_after_its_ends():
    # the discs about 0 and 0.1 + 1.5i do not touch (1.5 apart, radii 0.1
    # each); the wide disc about 0.2 + 0.75i, listed last, touches both
    discs = [(0j, 0.1), (0.1 + 1.5j, 0.1), (0.2 + 0.75j, 0.7)]
    clusters = poly._cluster(discs)
    assert len(clusters) == 1
    assert set(clusters[0]) == set(discs)
    assert len(poly._cluster(discs[:2])) == 2


def test_roots_mixed_degrees():
    p = ComplexPolynomial(root_product([2, 2, -1 + 1j, 0.5j]))
    rs, _ = roots(p)
    mult = {round(c.real, 4) + 1j * round(c.imag, 4): k for c, k, _ in rs}
    assert mult[(2 + 0j)] == 2
    assert mult[(-1 + 1j)] == 1
    assert mult[0.5j] == 1


def test_roots_plant_and_recover_deg6():
    planted = [1.0, -2.0, 3j, -1 - 1j, 0.25, 2.5 + 0.5j]
    rs, _ = roots(ComplexPolynomial([c * 2.0 for c in root_product(planted)]))
    found = sorted((c for c, _, _ in rs), key=lambda z: (z.real, z.imag))
    want = sorted(planted, key=lambda z: (complex(z).real, complex(z).imag))
    assert len(found) == 6
    for f, w in zip(found, want):
        assert f == pytest.approx(complex(w), abs=1e-8)


def test_roots_polish_each_root_in_one_short_pass(monkeypatch):
    # ten well-separated planted roots: each companion eigenvalue takes one
    # _horner_bound pass in _discs, for p(z_j) and its rounding bound, and
    # a simple root gets no Newton pass, so _horner itself is never called
    planted = [complex(k - 4.5, (-1) ** k * 0.3 * k) for k in range(10)]
    p = ComplexPolynomial([c * (1.5 - 0.5j) for c in root_product(planted)])
    calls = []
    real_horner = poly._horner

    def counted(coeffs, z, acc):
        calls.append(z)
        return real_horner(coeffs, z, acc)

    monkeypatch.setattr(poly, "_horner", counted)
    rs, _ = roots(p)
    assert [k for _, k, _ in rs] == [1] * 10
    assert calls == []
    for w in planted:
        assert min(abs(c - w) for c, _, _ in rs) < 1e-9


def test_newton_stops_where_the_derivative_vanishes():
    # z^2 + 1 from 0: p'(0) = 0 gives no step, so the pass returns its start
    p = ComplexPolynomial([1.0, 0.0, 1.0])
    assert poly._newton(p.coeffs, p.derivative().coeffs, 0j) == 0j


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_simple_root_radius_includes_a_root(n):
    # (z - 1)(z - 2)...(z - n) has integer coefficients that a double holds
    # exactly, so its roots are exactly 1..n.  Near them Horner's value of
    # p is mostly rounding and can come out as 0; the radius still covers
    # the distance to the nearest integer, since it takes |p| with its
    # rounding bound.  At n = 9 the coefficients reach 1.2e6, and each root
    # must still come back simple
    rs, _ = roots(ComplexPolynomial(root_product(range(1, n + 1))))
    assert [k for _, k, _ in rs] == [1] * n
    for c, _, radius in rs:
        k = round(c.real)
        assert abs(c - k) <= radius < 1e-6


def test_inclusion_radius_stays_finite_when_its_rounding_bound_overflows():
    # at z = 1e300 the rounding bound sum |c_k| |z|^k of
    # 1e-290 (z - 1e300)(z + 1) overflows, though the polynomial is finite
    rs, _ = roots(ComplexPolynomial([c * 1e-290 for c in root_product([1e300, -1.0])]))
    assert [c for c, _, _ in rs] == pytest.approx([-1.0, 1e300])
    assert all(math.isfinite(radius) for _, _, radius in rs)
    assert rs[1][2] < 1e-9 * abs(rs[1][0])


def test_roots_of_a_huge_constant_term_stay_simple_with_finite_radii():
    # z^2 - 1e307: roots +-3.16e153, far apart however large the coefficients
    rs, _ = roots(ComplexPolynomial([-1e307, 0, 1]))
    assert [k for _, k, _ in rs] == [1, 1]
    assert [c.real for c, _, _ in rs] == pytest.approx([-math.sqrt(1e307), math.sqrt(1e307)])
    assert all(math.isfinite(radius) for _, _, radius in rs)


def test_repeated_approximations_get_a_point_disc():
    # with z_1 = z_2 the Weierstrass corrections are undefined: no certificate,
    # so the discs are the points themselves and add nothing to other radii
    p = ComplexPolynomial(root_product([1.0, 2.0, 5.0]))
    discs, certified = poly._discs(p.coeffs, [1 + 0j, 1 + 0j, 5 + 0j])
    assert discs[:2] == [(1 + 0j, 0.0), (1 + 0j, 0.0)]
    # the third disc keeps only the rounding of its center, 4.8e-14 at 5
    center, radius = discs[2]
    assert center == 5 + 0j and 0.0 < radius < 1e-13
    assert not certified


def test_disc_radius_covers_the_rounding_of_its_center():
    # w' of verdicts seed 1 input 1918: the zero near -0.898i lies 3.0e-17
    # from its computed center, past the Gerschgorin radius of 2.7e-17; the
    # radius must also carry the rounding of the center, the product and
    # the quotient
    mpmath = pytest.importorskip("mpmath")
    p = ComplexPolynomial([6.831528085836432e-05 + 6.322662062995094e-05j,
                           0.7932956613066551 - 0.8571423771495037j,
                           -0.9541988123997044 - 0.8831225687592137j])
    rs, certified = roots(p)
    assert [k for _, k, _ in rs] == [1, 1] and certified
    with mpmath.workdps(60):
        zeros = mpmath.polyroots([mpmath.mpc(c.real, c.imag) for c in reversed(p.coeffs)],
                                 maxsteps=200, extraprec=200)
        for location, _, radius in rs:
            c = mpmath.mpc(location.real, location.imag)
            assert min(abs(c - z) for z in zeros) <= radius


def test_certified_flag_marks_a_proven_solve():
    # every disc of a well-separated solve has its certificate, and the
    # exact double zero at 0 is proven with a radius of 0
    rs, certified = roots(ComplexPolynomial(root_product([0.0, 0.0, 1.0, -2.0 + 1j])))
    assert certified
    assert [term for term in rs if term[0] == 0] == [(0j, 2, 0.0)]
    # the Horner rounding bound overflows at 1e300: the solve proves nothing
    _, certified = roots(ComplexPolynomial([c * 1e-290 for c in root_product([1e300, -1.0])]))
    assert not certified


def test_roots_of_zero_raises():
    with pytest.raises(ZeroPolynomial):
        roots(ComplexPolynomial([]))


def test_roots_of_constant_empty():
    assert roots(ComplexPolynomial([5])) == ([], True)


def test_taylor_coeffs():
    p = ComplexPolynomial([1, 2, 3])  # 1 + 2z + 3z^2
    t = taylor_coeffs(p.coeffs, 2.0, 3)
    # p(2), p'(2)/1!, p''(2)/2!
    assert t[0] == pytest.approx(1 + 4 + 12)
    assert t[1] == pytest.approx((2 + 12) / 1)
    assert t[2] == pytest.approx(6 / 2)


def test_zero_polynomial_evaluates_to_zero_of_its_type():
    for z in (2.5, 1 + 1j):
        v = ComplexPolynomial([])(z)
        assert type(v) is complex and v == 0j
    arr = ComplexPolynomial([])(np.array([1.0, 2.0]))
    assert arr.dtype == complex and not arr.any()


# ---------------------------------------------------------------------------
# property tests

coeff = st.complex_numbers(
    min_magnitude=0, max_magnitude=5, allow_nan=False, allow_infinity=False
)
small_poly = st.lists(coeff, min_size=1, max_size=6).map(ComplexPolynomial)


# roots with zeros of either sign, huge, tiny and infinite
# parts, and any finite value; the roots of one polynomial are drawn from a
# pool of at most four, so repeated roots are common
signed_zeros = [0.0, -0.0, 0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
extreme = st.one_of(
    st.sampled_from(signed_zeros + [1e300, -1e300j, complex(1e-300, -1e300), 5e-324, math.inf]),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)
root_lists = st.lists(extreme, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=8) if pool else st.just([])
)


@given(root_lists)
@settings(max_examples=300)
def test_from_roots_is_byte_equal_to_the_product_of_its_factors(rs):
    product = functools.reduce(
        reference_product.product, [[-r, 1.0] for r in rs], [1 + 0j]
    )
    got = root_product(rs)
    assert [repr(c) for c in got] == [repr(c) for c in product]
    assert len(got) == len(rs) + 1


@given(
    small_poly,
    st.lists(coeff, min_size=1, max_size=8),
    st.booleans(),
)
@settings(max_examples=100)
def test_array_evaluation_matches_polyval(p, zs, real_points):
    # the in-place Horner runs numpy's polyval recurrence; in-place kernels
    # may round differently, so allow the Horner error bound of both
    assume(not p.is_zero)
    z = np.array(zs)
    if real_points:
        z = z.real.copy()
    expect = np.polyval(np.array(p.coeffs[::-1], dtype=complex), z)
    got = p(z)
    assert got.dtype == expect.dtype and got.shape == expect.shape
    bound = sum(abs(c) * np.abs(z) ** k for k, c in enumerate(p.coeffs))
    assert np.all(np.abs(got - expect) <= 4 * len(p.coeffs) * np.finfo(float).eps * bound)


@given(small_poly, st.floats(-3, 3))
@settings(max_examples=100)
def test_restriction_derivative_identity(p, x0):
    # d/dy p(x0+iy) = i p'(x0+iy), so (re', im') must equal restriction of i*p'
    re, im = restrict_to_vertical_line(p, x0)
    re2, im2 = restrict_to_vertical_line(
        ComplexPolynomial([c * 1j for c in p.derivative().coeffs]), x0)
    scale = (1 + p.coeff_scale) * (1 + abs(x0)) ** 8
    for part, part2 in ((re, re2), (im, im2)):
        dpart = [k * c for k, c in enumerate(part)][1:]
        for k in range(max(len(dpart), len(part2), 1)):
            a = dpart[k] if k < len(dpart) else 0.0
            b = part2[k] if k < len(part2) else 0.0
            assert abs(a - b) <= 1e-9 * scale


@given(
    st.lists(st.integers(-10**30, 10**30), max_size=12),
    st.integers(-10**6, 10**6),
)
@settings(max_examples=200)
def test_divide_linear_is_exact_on_integers(p, x):
    # q * (v - x) + r == p coefficient by coefficient, in integer arithmetic
    q, r = divide_linear(p, x)
    assert type(r) is int and all(type(c) is int for c in q)
    back = [0] * (len(q) + 1)
    for k, c in enumerate(q):
        back[k + 1] += c
        back[k] -= x * c
    back[0] += r
    assert back == (list(p) if p else [0])


well_separated_roots = st.lists(
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
).filter(
    lambda rs: all(abs(a - b) > 1e-2 for i, a in enumerate(rs) for b in rs[i + 1 :])
)


@given(well_separated_roots)
@settings(max_examples=60)
def test_roots_recover_planted_simple(planted):
    rs, _ = roots(ComplexPolynomial(root_product(planted)))
    assert len(rs) == len(planted)
    # greedy nearest-neighbour pairing; sort order on real parts is not
    # stable under roundoff when two roots share a real part
    remaining = [c for c, _, _ in rs]
    for w in planted:
        best = min(remaining, key=lambda f: abs(f - w))
        assert abs(best - w) < 1e-6
        remaining.remove(best)


@given(small_poly, st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=100)
def test_restriction_matches_direct_evaluation(p, x0, y):
    re, im = restrict_to_vertical_line(p, x0)
    direct = p(complex(x0, y))
    scale = (1 + p.coeff_scale) * (1 + abs(x0) + abs(y)) ** 8
    assert abs(poly._horner(re, y, 0.0) - direct.real) <= 1e-9 * scale
    assert abs(poly._horner(im, y, 0.0) - direct.imag) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# the root solve against its plain reference form


def _outcome(solve, *args):
    """The repr of what a solve returns, which shows every float and complex
    field to the last bit and the sign of a zero, or what it raises."""
    try:
        return repr(solve(*args))
    except Exception as exc:  # noqa: BLE001 -- a raised error is an outcome too
        return type(exc).__name__, str(exc)


# parts with signed zeros, unit values and any value of moderate size
part = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                 st.floats(-4, 4, allow_nan=False, allow_infinity=False))
number = st.builds(complex, part, part)
signed_zero = st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                               complex(-0.0, -0.0)])


@st.composite
def solve_inputs(draw):
    """Polynomials of degree 1-12: any coefficients (signed zeros among
    them), or planted roots drawn from a pool of at most four with repeats
    and clusters within 1e-2; some have an exact zero at 0 of some order."""
    degree = draw(st.integers(1, 12))
    m = draw(st.integers(0, degree - 1)) if draw(st.booleans()) else 0
    low = [draw(signed_zero) for _ in range(m)]
    if draw(st.booleans()):
        top = draw(st.lists(number, min_size=degree - m + 1, max_size=degree - m + 1))
        if top[-1] == 0:
            top[-1] = 1 + 0j
        return ComplexPolynomial(low + top)
    pool = draw(st.lists(number, min_size=1, max_size=4))
    planted = [draw(st.sampled_from(pool))
               + draw(st.sampled_from([0.0, 0.0, 1e-3, -4e-3j, 9e-3 + 5e-3j, 1e-8]))
               for _ in range(degree - m)]
    lead = draw(st.sampled_from([1.0, -2.5j, 0.3 - 0.7j]))
    return ComplexPolynomial(low + [c * lead for c in root_product(planted)])


@given(solve_inputs())
# a leading coefficient so small that the companion row overflows
@example(ComplexPolynomial([1, 2, 3, 1e-310]))
# a companion row whose eigenvalue solve returns nan with errno left at
# ERANGE, where abs of that nan raised OverflowError: its rounding scale
# sum |c_k| |z|^k is not finite, and it has no disc
@example(ComplexPolynomial([3 + 3j, 2.2250738585072014e-308j]))
@settings(max_examples=300, deadline=None)
def test_roots_match_the_reference_solve(p):
    assert _outcome(roots, p) == _outcome(reference_roots.roots, p)


def test_roots_name_a_leading_coefficient_that_overflows_the_companion_row():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LevelGraphError, match=r"leading coefficient \(1e-310\+0j\)"):
            roots(ComplexPolynomial([1, 2, 3, 1e-310]))


# approximations that repeat and that share a real or an imaginary part
approximations = st.lists(st.sampled_from([1 + 0j, -1j, 2 - 1j, 2 + 1j, complex(0.0, -1.0),
                                            complex(-0.0, 1.0), 0.5 + 3j]) | number,
                          min_size=1, max_size=8)


@given(solve_inputs(), approximations)
# both approximations have imaginary part -0.0, so z_0 - z_1 and z_1 - z_0
# both have +0.0 there: taking z_1 - z_0 as -(z_0 - z_1) would give -0.0,
# and that sign reaches the second center
@example(ComplexPolynomial([2j, complex(-0.0, -1.0), 1e-300j]),
         [complex(0.5, -0.0), complex(-0.0, -0.0)])
@settings(max_examples=200, deadline=None)
def test_discs_match_the_reference_discs(p, approx):
    approx = approx[: p.degree]
    assert _outcome(poly._discs, p.coeffs, approx) == _outcome(reference_roots.discs, p, approx)


# 0 and 5 touch, 3 and 6 touch, and 7 touches both pairs, so the component
# that 7 closes lists its discs as 0, 5, 3, 6, 7: out of index order
CHAIN = [(0j, 0.5), (10 + 0j, 0.1), (20 + 0j, 0.1), (5 + 0j, 0.5), (30 + 0j, 0.1),
         (1 + 0j, 0.6), (4 + 0j, 0.6), (2.5 + 0j, 1.0)]


@given(st.lists(st.tuples(number, st.floats(0, 2)), max_size=10))
@example(CHAIN)
@settings(max_examples=200, deadline=None)
def test_cluster_matches_the_reference_cluster(discs):
    assert _outcome(poly._cluster, discs) == _outcome(reference_roots.cluster, discs)
