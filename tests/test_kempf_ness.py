import contextlib
import dataclasses
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference_flow import exprb32 as reference_exprb32
from reference_flow import horner as reference_horner
from reference_flow import phi1 as reference_phi1
from reference_flow import phi3 as reference_phi3
from reference_flow import stacked_pass as reference_stacked_pass
from reference_geodesic import geodesic_residual, j_derivative, relax_geodesic
from reference_product import antiderivative_coeffs
from test_acceptance import draw_stable_flow_pair

from levelgraph import cauchy, config, kempf_ness
from levelgraph.errors import Diverged, NonIntegrableEndpoint
from levelgraph.kempf_ness import (
    BackgroundSigma,
    FlowTrace,
    GridFunction,
    default_sigma,
    derivative_values,
    gauss_interior_nodes,
    make_grid_function,
    membership,
    run_flow,
    second_variation_at,
)
from levelgraph.poly import ComplexPolynomial, _horner
from levelgraph.poly import restrict_to_vertical_line

W_LINEAR = ComplexPolynomial([0, 1])          # w = z
CUBE_THIRD = ComplexPolynomial([0, 0, 0, 1 / 3])

A, B = 1.0, 2.0


def _setup(n=257):
    nodes = gauss_interior_nodes(A, B, n)
    sigma = default_sigma(A, B, nodes)
    return nodes, sigma


# ---------------------------------------------------------------------------
# grid basics


def test_differentiates_constant_to_zero():
    f = make_grid_function(A, B, lambda x: 3.7 + 0.0 * x, boundary=(3.7, 3.7))
    assert np.max(np.abs(derivative_values(f))) == 0.0


def _direct_diff_matrix(full_x):
    # barycentric differentiation matrix built on the nodes themselves, the
    # way the library built it before it scaled one reference per grid size
    n = len(full_x)
    d = full_x[:, None] - full_x[None, :]
    np.fill_diagonal(d, 1.0)
    logw = -np.sum(np.log(np.abs(d)), axis=1)
    sign = np.where(np.arange(n)[::-1] % 2 == 0, 1.0, -1.0)
    mat = (sign[:, None] * sign[None, :]) * np.exp(logw[None, :] - logw[:, None]) / d
    np.fill_diagonal(mat, 0.0)
    np.fill_diagonal(mat, -mat.sum(axis=1))
    return mat


@pytest.mark.parametrize("a, b", [(0.0, 1.3), (0.5, 4.0), (1.0, 2.0)])
def test_scaled_reference_diff_matrix_matches_direct_build(a, b):
    # the cached operator is the node rows of the matrix: its interior
    # block and the columns of a and b
    f = make_grid_function(a, b, lambda x: 0.0 * x, boundary=(0.0, 0.0))
    direct = _direct_diff_matrix(np.concatenate([[a], f.nodes, [b]]))[1:-1]
    inner, left, right = kempf_ness._reference_operator(len(f.nodes))
    scaled = np.column_stack([left, inner, right]) * (2.0 / (b - a))
    assert np.max(np.abs(scaled - direct)) <= 1e-11 * np.max(np.abs(direct))


@pytest.mark.parametrize("a, b", [(0.0, 1.3), (0.5, 4.0), (1.0, 2.0)])
def test_derivative_values_match_direct_build(a, b):
    # the direct build applied to the full values (end heights included),
    # in the same subtraction form; each row's error is bounded relative to
    # the sum of its terms' magnitudes
    for n in (9, 17, 33, 65, 129, 257):
        f = make_grid_function(a, b, np.sin, n=n, boundary=(np.sin(a), np.sin(b)))
        full = np.concatenate([[f.boundary[0]], f.values, [f.boundary[1]]])
        direct = _direct_diff_matrix(np.concatenate([[a], f.nodes, [b]]))[1:-1]
        terms = direct * (full[None, :] - f.values[:, None])
        err = np.abs(derivative_values(f) - terms.sum(axis=1))
        assert np.all(err <= 1e-12 * np.abs(terms).sum(axis=1)), n


def test_gauss_rule_solved_once_per_grid_size(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    kempf_ness._reference_rule.cache_clear()
    kempf_ness._reference_operator.cache_clear()
    try:
        first = make_grid_function(0.0, 1.3, lambda x: np.sin(x), n=41,
                                   boundary=(np.sin(0.0), np.sin(1.3)))
        second = make_grid_function(0.5, 4.0, lambda x: np.sin(x), n=41,
                                    boundary=(np.sin(0.5), np.sin(4.0)))
        derivative_values(first)
        derivative_values(second)
    finally:
        kempf_ness._reference_rule.cache_clear()
        kempf_ness._reference_operator.cache_clear()
    assert calls == [41]
    xi, wt = leggauss(41)
    assert np.array_equal(second.nodes, 0.5 * (0.5 + 4.0) + 0.5 * (4.0 - 0.5) * xi)


# ---------------------------------------------------------------------------
# phi-functions of the exponential flow steps


def _nan_filled(z, count):
    # work arrays filled with NaN: a result that read one before writing it
    # would show
    return [np.full_like(z, np.nan) for _ in range(count)]


def _phi1(z):
    z = np.asarray(z, dtype=float)
    return kempf_ness._phi1(z, np.expm1(z), *_nan_filled(z, 1))


def _phi3(z):
    z = np.asarray(z, dtype=float)
    return kempf_ness._phi3(z, np.expm1(z), *_nan_filled(z, 3), np.ones(z.shape, dtype=bool))


def test_phi_functions_at_zero():
    assert _phi1(np.array([0.0]))[0] == 1.0
    assert _phi3(np.array([0.0]))[0] == 1.0 / 6.0


def test_phi3_continuous_across_series_switch():
    # phi_3 switches from its series to the closed form at |z| = 0.35
    switch = kempf_ness._PHI3_SWITCH
    for edge in (switch, -switch):
        below = np.nextafter(edge, 0.0)
        pair = _phi3(np.array([below, edge]))
        assert abs(pair[1] - pair[0]) <= 1e-14 * abs(pair[1])
    # and phi_1 = expm1(z)/z meets its value 1 at z = 0
    tiny = np.array([-1e-9, 1e-9, -1e-300, 1e-300])
    assert np.all(np.abs(_phi1(tiny) - (1.0 + tiny / 2.0)) <= 1e-14)


def _phi_series(z, k, terms=40):
    # sum_j z^j / (j + k)! in exact rational arithmetic
    zf = Fraction(z)
    return float(sum(zf**j / math.factorial(j + k) for j in range(terms)))


def test_phi_functions_match_exact_series():
    z = np.array([-2.0, -1.5, -0.7, -0.2, -0.05, 0.05, 0.3, 0.9, 2.0])
    for phi, k in ((_phi1, 1), (_phi3, 3)):
        exact = np.array([_phi_series(v, k) for v in z])
        assert np.allclose(phi(z), exact, rtol=1e-14, atol=0), phi.__name__


def test_phi3_matches_exact_series_around_switch():
    # just past the switch the closed form cancels the most; just below it
    # the truncated series is furthest from the full sum
    switch = kempf_ness._PHI3_SWITCH
    z = np.concatenate([np.linspace(0.2, 0.6, 81), [np.nextafter(switch, 0.0), switch]])
    z = np.concatenate([z, -z])
    exact = np.array([_phi_series(v, 3) for v in z])
    assert np.allclose(_phi3(z), exact, rtol=1e-14, atol=0)


def test_phi_functions_finite_for_stiff_decay():
    z = -np.geomspace(1e-3, 1e4, 50)
    for phi in (_phi1, _phi3):
        vals = phi(z)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)
    assert _phi1(np.array([-1e4]))[0] == pytest.approx(1e-4, rel=1e-12)
    assert _phi3(np.array([-1e4]))[0] == pytest.approx(
        (1e4 - 5e7 - 1.0) / -1e12, rel=1e-12)


_SWITCH = kempf_ness._PHI3_SWITCH
_JUST_BELOW = float(np.nextafter(_SWITCH, 0.0))
# entries with |z| below the switch, where phi_3 sums its series, and at or
# past it, where it takes the closed form; both include the edges, exact
# zeros of either sign, subnormals and a stiff decay rate
_BELOW = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, _JUST_BELOW, -_JUST_BELOW]) | st.floats(
    -_SWITCH, _SWITCH, exclude_min=True, exclude_max=True)
_AT_OR_PAST = st.sampled_from([_SWITCH, -_SWITCH, -1e4]) | st.floats(-1e4, -_SWITCH) | st.floats(
    _SWITCH, 700.0)
_PHI_ARRAYS = (
    st.lists(_BELOW, min_size=1, max_size=20)
    | st.lists(_AT_OR_PAST, min_size=1, max_size=20)
    | st.lists(_BELOW | _AT_OR_PAST, min_size=2, max_size=20)
)


@settings(max_examples=300, deadline=None)
@given(_PHI_ARRAYS)
@example([0.0, -0.0, 5e-324, -_JUST_BELOW, 0.125])  # series alone; phi_1 meets zeros
@example([_SWITCH, -_SWITCH, -1e4, 2.5])  # closed form alone; phi_1 divides plainly
@example([-0.0, _SWITCH, -5e-324, -1e4, _JUST_BELOW])  # mixed
@example([-0.34, 0.2, -1e-8, 0.0, 0.3])  # series alone, over the whole array
# mixed, with entries whose series _phi3 sums and the closed form
# overwrites: at -1e32 that series overflows (at -1e31 it is still finite)
@example([0.125, -1e31, -1e32, -_JUST_BELOW])
def test_phi_functions_equal_reference_bit_for_bit(values):
    z = np.array(values)
    # as run_flow calls them
    with np.errstate(over="ignore", invalid="ignore"):
        assert _phi1(z).tobytes() == reference_phi1(z).tobytes()
        assert _phi3(z).tobytes() == reference_phi3(z).tobytes()


def test_differentiates_cubic_exactly():
    f = make_grid_function(A, B, lambda x: x**3, boundary=(A**3, B**3))
    err = derivative_values(f) - 3.0 * f.nodes**2
    assert np.max(np.abs(err)) < 1e-9


def test_grid_function_validation():
    nodes = gauss_interior_nodes(A, B, 17)
    with pytest.raises(ValueError):
        GridFunction(B, A, nodes, np.zeros(17), (0.0, 0.0))
    with pytest.raises(ValueError):
        GridFunction(A, B, nodes, np.zeros(16), (0.0, 0.0))
    with pytest.raises(ValueError):
        GridFunction(A, B, nodes[::-1], np.zeros(17), (0.0, 0.0))
    # a nan end height would flow to residual 0 with a nan membership minimum
    for boundary in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError, match="nonfinite boundary"):
            make_grid_function(0.0, 1.0, lambda x: 0 * x, n=9, boundary=boundary)
    with pytest.raises(ValueError, match="nonfinite height values"):
        make_grid_function(0.0, 1.0, lambda x: math.nan * x, n=9, boundary=(math.nan, math.nan))
    with pytest.raises(ValueError, match="need at least two interior nodes"):
        make_grid_function(0.0, 1.0, lambda x: 0 * x, n=1, boundary=(0.0, 0.0))


def test_flow_and_second_variation_reject_sigma_on_another_grid():
    f = make_grid_function(A, B, lambda x: 0.0 * x, n=9, boundary=(0.0, 0.0))
    _, sigma = _setup(17)
    with pytest.raises(ValueError, match="sigma grid does not match the function grid"):
        run_flow(f, W_LINEAR, sigma)
    with pytest.raises(ValueError, match="sigma grid does not match the function grid"):
        second_variation_at(f, f, W_LINEAR, sigma)


def test_flow_trace_checks_its_columns():
    f = make_grid_function(A, B, lambda x: 0.0 * x, n=9, boundary=(0.0, 0.0))
    with pytest.raises(ValueError, match="equal length"):
        FlowTrace([0.0], [0.0, -1.0], [0.0], [1.0], f)
    with pytest.raises(ValueError, match="relative to the start"):
        FlowTrace([0.0], [1.0], [0.0], [1.0], f)
    with pytest.raises(ValueError, match="unknown stop reason 'done'"):
        FlowTrace([0.0], [0.0], [0.0], [1.0], f, 0, "done")


def test_diff_matrix_rejects_other_grids():
    # the grid is checked once, when the GridFunction is built, so no
    # differentiation or quadrature ever sees another grid
    nodes = np.linspace(A, B, 19)[1:-1]
    with pytest.raises(ValueError, match="Gauss-Legendre"):
        GridFunction(A, B, nodes, np.zeros_like(nodes), (0.0, 0.0))
    # a Gauss grid of the wrong interval is another grid too
    with pytest.raises(ValueError, match="Gauss-Legendre"):
        GridFunction(A, B + 0.5, gauss_interior_nodes(A, B, 17), np.zeros(17), (0.0, 0.0))


def test_default_sigma_values_and_rates():
    nodes = np.array([0.25, 0.5, 0.75])
    s = default_sigma(0.0, 1.0, nodes)
    assert np.allclose(s.values, [0.1875, 0.25, 0.1875], atol=0, rtol=0)
    # sigma vanishes with slope 1 at both ends
    near = gauss_interior_nodes(0.0, 1.0, 257)[[0, -1]]
    rates = default_sigma(0.0, 1.0, near).values / np.array([near[0], 1.0 - near[1]])
    assert np.allclose(rates, 1.0, rtol=1e-4, atol=0)


def test_sigma_rejects_nonpositive():
    with pytest.raises(ValueError):
        BackgroundSigma(np.array([0.1, -0.2]))


# ---------------------------------------------------------------------------
# per-node tables of Im w, Re w' and Im w' on vertical lines


def _magnitude(top):
    # 0, or a float whose magnitude lies in [1e-3, top]: no underflow in a
    # degree-8 Horner sum, so rounding is the only error
    return st.one_of(st.just(0.0), st.floats(1e-3, top), st.floats(-top, -1e-3))


_COEFF = st.builds(complex, _magnitude(1e3), _magnitude(1e3))
_POINT = st.tuples(_magnitude(5.0), _magnitude(5.0))


@given(st.lists(_COEFF, max_size=9), st.lists(_POINT, min_size=1, max_size=6))
@example([], [(0.5, -0.25)])  # the zero polynomial
@example([0.5j], [(0.0, 0.0), (-3.0, 4.0)])
@settings(max_examples=300, deadline=None)
def test_vertical_line_tables_match_complex_horner(coeffs, points):
    # the complex Horner of w and w' at x + iy is the oracle; each side's
    # rounding is within 2 n eps sum |c_k| (|x| + |y|)^k of the exact value
    w = ComplexPolynomial(coeffs)
    wp = w.derivative()
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    im_w, re_dw, im_dw = _horner(kempf_ness._vertical_line_tables(w, x), y, 0.0)
    z = x + 1j * y
    reach = np.abs(x) + np.abs(y)
    eps = np.finfo(float).eps
    for got, want, p in ((im_w, w(z).imag, w), (re_dw, wp(z).real, wp), (im_dw, wp(z).imag, wp)):
        n = max(len(p.coeffs), 1)
        scale = _horner([abs(c) for c in p.coeffs], reach, np.zeros_like(reach))
        assert np.all(np.abs(got - want) <= 4.0 * eps * n * scale)


@given(st.lists(_COEFF, max_size=9), st.lists(_magnitude(5.0), min_size=1, max_size=6))
@example([], [0.5])  # the zero polynomial
@example([1.0, -2.0j, 0.5 + 0.25j], [0.0, -0.0, -3.0])
@settings(max_examples=300, deadline=None)
def test_vertical_line_tables_read_the_restriction_bit_for_bit(coeffs, xs):
    # both read poly.line_coeffs, on a node array and at one point: at each
    # node, row 0 of the tables is the Im part restrict_to_vertical_line
    # returns, to the last bit, followed by the zeros that it trims; the
    # copies run_flow stacks under the three rows are -row 0, bit for bit
    w = ComplexPolynomial(coeffs)
    table = kempf_ness._vertical_line_tables(w, np.array(xs))
    stacked = kempf_ness._vertical_line_tables(w, np.array(xs), 2)
    assert stacked[:, :3].tobytes() == table.tobytes()
    assert stacked[:, 3].tobytes() == stacked[:, 4].tobytes() == np.negative(table[:, 0]).tobytes()
    rows = table[:, 0]
    for j, x in enumerate(xs):
        im = restrict_to_vertical_line(w, x)[1]
        col = rows[:, j].tolist()
        assert [repr(v) for v in col[:len(im)]] == [repr(v) for v in im]
        assert all(v == 0.0 for v in col[len(im):])


# rows of degree 0 to 10 and heights with signed zeros, subnormals and
# magnitudes whose powers overflow
_ENTRY = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e150, -1e150]) | st.floats(-1e3, 1e3)


@st.composite
def _stacked_pass(draw):
    """(state table, Gauss count, state heights, Gauss heights)."""
    deg, n, m = draw(st.integers(0, 10)), draw(st.integers(1, 5)), draw(st.integers(1, 6))

    def array(*shape):
        return draw(arrays(float, shape, elements=_ENTRY))

    return array(deg + 1, 3, n), m, array(n), array(m, n)


@settings(max_examples=200, deadline=None)
@given(_stacked_pass())
@example((np.array([[[1e150], [-0.0], [5e-324]], [[-1e3], [0.0], [1e150]]]), 2,
          np.array([1e150]), np.array([[-0.0], [-5e-324]])))
def test_one_stacked_horner_pass_equals_separate_passes(case):
    # run_flow stacks the -Im w rows, tiled once per Gauss height, under the
    # three state rows and evaluates both in one pass: each element must
    # come out as the two separate passes give it, to the bit
    table, m, state, gauss = case
    tiled = np.repeat(table[:, :1], m, axis=1)
    stacked = np.concatenate([table, tiled], axis=1)
    heights = np.concatenate([np.broadcast_to(state, (3, len(state))), gauss])
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _horner(stacked, heights, 0.0)
        assert rows[:3].tobytes() == _horner(table, state, 0.0).tobytes()
        assert rows[3:].tobytes() == _horner(tiled, gauss, 0.0).tobytes()
        # a zeros accumulator of the result's shape and dtype is summed in
        # place, through the same operations, and is what comes back
        acc = np.zeros(rows.shape)
        assert _horner(stacked, heights, acc) is acc
        assert acc.tobytes() == rows.tobytes()
        acc = np.zeros((3, len(state)))
        assert _horner(table, state, acc).tobytes() == rows[:3].tobytes()


@st.composite
def _flow_trial(draw):
    """(state table, Gauss count, state, k, jac, dt, quadrature over sigma)
    for one trial of run_flow."""
    deg, n, m = draw(st.integers(0, 8)), draw(st.integers(1, 6)), draw(st.integers(1, 5))

    def array(*shape):
        return draw(arrays(float, shape, elements=_ENTRY))

    dt = draw(st.sampled_from([0.25, 1.0, 200.0]) | st.floats(1e-6, 10.0))
    qw = draw(arrays(float, n, elements=st.floats(1e-3, 1e3)))
    return array(deg + 1, 3, n), m, array(n), array(n), array(n), dt, qw


@settings(max_examples=300, deadline=None)
@given(_flow_trial())
@example((np.array([[[1.0, -0.0], [0.5, 5e-324], [-1.0, 2.0]]]), 1, np.array([1e150, -0.0]),
          np.array([0.0, 1.0]), np.array([0.0, -3.0]), 0.25, np.array([1.0, 2.0])))
def test_buffered_flow_trial_returns_the_plain_trials_bytes(case):
    # run_flow's trial writes exprb32 and the stacked pass into work arrays
    # made once per call; each result must be the plain trial's to the bit,
    # with every work array starting as NaN and reused for a second trial
    table, m, vals, k, jac, dt, qw = case
    n = len(vals)
    rhs_rows = table[:, 0]
    yi, yw = kempf_ness._reference_rule(m)
    stacked = np.concatenate([table, np.repeat(table[:, :1], m, axis=1)], axis=1)
    fu, out, half, *floats = _nan_filled(vals, 8)
    work = (*floats, np.ones(n, dtype=bool))
    heights, rows = _nan_filled(np.empty(stacked.shape[1:]), 2)

    def rhs(u):
        fu.fill(0.0)
        return _horner(rhs_rows, u, fu)

    inputs = vals.tobytes(), k.tobytes(), jac.tobytes()
    with np.errstate(all="ignore"):
        want_u, want_corr = reference_exprb32(
            vals, k, jac, lambda u: reference_horner(rhs_rows, u), dt)
        want_dj, want_rows = reference_stacked_pass(stacked, yi, yw, qw, vals, want_u)
        for _ in range(2):
            u, corr = kempf_ness._exprb32(vals, k, jac, rhs, dt, out, work)
            assert u is out
            assert (u.tobytes(), corr.tobytes()) == (want_u.tobytes(), want_corr.tobytes())
            dj, state_rows = kempf_ness._step_pass(stacked, yi[:, None], yw, qw, vals, u,
                                                   heights, half, rows)
            assert np.float64(dj).tobytes() == np.float64(want_dj).tobytes()
            assert state_rows.tobytes() == want_rows.tobytes()
    assert (vals.tobytes(), k.tobytes(), jac.tobytes()) == inputs


# ---------------------------------------------------------------------------
# membership


def test_membership_linear_w():
    f = make_grid_function(A, B, lambda x: 0.0 * x, boundary=(0.0, 0.0))
    ok, mn = membership(f, W_LINEAR)
    assert ok and mn == 1.0


def test_membership_on_axis_curve():
    # the zero level of Im(z^3/3) through [1,2] is the real axis itself
    nodes = gauss_interior_nodes(A, B, 257)
    f = make_grid_function(A, B, lambda x: 0.0 * x, boundary=(0.0, 0.0))
    ok, mn = membership(f, CUBE_THIRD)
    assert ok
    assert mn == pytest.approx(float(np.min(nodes**2)), rel=1e-9)


def test_membership_fails_across_diagonal():
    # a straight line from 1+0.5i to 2+3i crosses {Re w' = 0} (y = x)
    # rising, which forces d/dx Re(w) < 0 at the crossing
    f = make_grid_function(A, B, lambda x: 0.5 + 2.5 * (x - 1.0), boundary=(0.5, 3.0))
    ok, mn = membership(f, CUBE_THIRD)
    assert not ok
    assert mn < -8.0


# ---------------------------------------------------------------------------
# the flow, against the exactly solvable w = z


@contextlib.contextmanager
def _recorded_attempts():
    # record every attempt of the finish in the flows run inside as
    # [least Re w' at the state it starts from, the certificate's lam (None
    # when the attempt failed before it or it declined), the residual at
    # that state]
    attempts = []
    newton, certify = kempf_ness._newton, kempf_ness._certify_path

    def recording_newton(rows, vals, *args):
        k, slope = _horner(rows, vals, np.zeros((2, len(vals))))
        attempts.append([float(slope.min()), None, float(np.max(np.abs(k)))])
        return newton(rows, vals, *args)

    def recording_certify(*args):
        attempts[-1][1] = lam = certify(*args)
        return lam

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kempf_ness, "_newton", recording_newton)
        patch.setattr(kempf_ness, "_certify_path", recording_certify)
        yield attempts


def test_flow_linear_w_closed_form(monkeypatch):
    nodes, sigma = _setup()
    f0 = GridFunction(A, B, nodes, sigma.values.copy(), (0.0, 0.0))
    monkeypatch.setattr(kempf_ness, "_T_MAX", 1.0)
    with _recorded_attempts() as attempts:
        trace = run_flow(f0, W_LINEAR, sigma, stop_tol=1e-12)

    # V = y at every node, so V' = Re w' = 1: at that rate the exact flow
    # meets stop_tol only by T = ln(max sigma / 1e-12) = 26.2, past the
    # horizon, and the finish declines without an attempt (lam <= min
    # Re w'); the run stops at the horizon
    assert attempts == []
    assert trace.stop == "horizon"

    # f' = -Im(x+if) = -f is linear with Jacobian -1, which the exponential
    # steps treat exactly (the factor is e^{-h}, not a polynomial in h), so
    # each node decays like e^{-t} to rounding
    expect = sigma.values * math.exp(-1.0)
    assert np.max(np.abs(trace.final.values - expect)) <= 1e-12 * np.max(expect)

    # dJ/dt = -e^{-2t} * integral of sigma = -e^{-2t} (b-a)^2/6
    assert trace.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert trace.J_values[0] == 0.0
    J_exact = (math.exp(-2.0) - 1.0) / 12.0
    assert trace.J_values[-1] == pytest.approx(J_exact, rel=1e-12, abs=0)
    assert all(b <= a for a, b in zip(trace.J_values, trace.J_values[1:]))
    assert all(m == 1.0 for m in trace.membership_min)


def test_flow_single_step_matches_run(monkeypatch):
    nodes, sigma = _setup(33)
    f0 = GridFunction(A, B, gauss_interior_nodes(A, B, 33), 0.1 * sigma.values, (0.0, 0.0))
    # the first trial step is min(_T_MAX, 1 / max|Re w'|) = h, so the run is
    # a single exponential step
    h = 0.25
    monkeypatch.setattr(kempf_ness, "_T_MAX", h)
    trace = run_flow(f0, W_LINEAR, sigma, stop_tol=0.0)
    assert trace.times == [0.0, h]
    assert trace.rejected_steps == 0
    # f' = -f is linear with Jacobian -1, which the exponential step treats
    # exactly: the factor is e^{-h}, not a polynomial in h
    assert np.allclose(trace.final.values, math.exp(-h) * f0.values, rtol=1e-15, atol=0)


def test_flow_fixed_point_stops_immediately():
    nodes, sigma = _setup()
    f0 = make_grid_function(A, B, lambda x: 0.0 * x, boundary=(0.0, 0.0))
    trace = run_flow(f0, CUBE_THIRD, sigma)
    assert trace.times == [0.0]
    assert trace.J_values == [0.0]
    assert trace.residual_sup[0] == 0.0


def _sine_start():
    # 65 nodes on (0, 1) under the bump 0.1 sin(pi x)
    f0 = make_grid_function(0.0, 1.0, lambda x: 0.1 * np.sin(np.pi * x), n=65,
                            boundary=(0.0, 0.1 * np.sin(np.pi)))
    return f0, default_sigma(0.0, 1.0, f0.nodes)


@pytest.mark.parametrize("coeffs", [[], [0.5]], ids=["zero", "real-constant"])
def test_flow_with_no_imaginary_part_stops_at_the_start(coeffs, monkeypatch):
    # Im w = 0 everywhere: the start is already a solution
    f0, sigma = _sine_start()
    monkeypatch.setattr(kempf_ness, "_T_MAX", 1.0)
    trace = run_flow(f0, ComplexPolynomial(coeffs), sigma)
    assert trace.times == [0.0]
    assert trace.J_values == [0.0]
    assert trace.residual_sup == [0.0]
    assert trace.rejected_steps == 0
    assert np.array_equal(trace.final.values, f0.values)


def test_flow_constant_imaginary_w_shifts_heights(monkeypatch):
    # w = 1e-3 i: f' = -1e-3 at every node, which one exprb32 step with a
    # zero Jacobian integrates exactly, so the horizon t = 1 is reached in
    # one step
    f0, sigma = _sine_start()
    monkeypatch.setattr(kempf_ness, "_T_MAX", 1.0)
    trace = run_flow(f0, ComplexPolynomial([1e-3j]), sigma)
    assert trace.times == [0.0, 1.0]
    assert np.array_equal(trace.final.values, f0.values - 1e-3)
    assert trace.J_values[-1] == pytest.approx(-1.9037102076363144e-05, rel=1e-12)


def test_flow_linear_w_reaches_pinned_J(monkeypatch):
    f0, sigma = _sine_start()
    monkeypatch.setattr(kempf_ness, "_T_MAX", 1.0)
    trace = run_flow(f0, W_LINEAR, sigma)
    assert trace.times[-1] == 1.0
    assert trace.J_values[-1] == pytest.approx(-0.010538764403375697, rel=1e-12)


def test_flow_converges_to_zero_level_curve():
    nodes, sigma = _setup()
    for amp in (0.3, -0.2):
        f0 = GridFunction(A, B, nodes, amp * sigma.values, (0.0, 0.0))
        ok, _ = membership(f0, CUBE_THIRD)
        assert ok
        trace = run_flow(f0, CUBE_THIRD, sigma, stop_tol=1e-8)
        assert trace.residual_sup[-1] < 1e-8
        assert np.max(np.abs(trace.final.values)) < 1e-6
        assert all(b <= a for a, b in zip(trace.J_values, trace.J_values[1:]))
        assert min(trace.membership_min) > 0.0


def test_flow_divergence_raises(monkeypatch):
    nodes, sigma = _setup()
    f0 = GridFunction(A, B, nodes, sigma.values.copy(), (0.0, 0.0))
    monkeypatch.setattr(kempf_ness, "_T_MAX", 100.0)
    with pytest.raises(Diverged):
        run_flow(f0, ComplexPolynomial([0, -1]), sigma)


def test_flow_endpoint_blowup_raises():
    # Im(w) = 2000 x y stays O(10^3) but sigma vanishes at the ends, so the
    # quotient blows through the 1e8 guard: the boundary heights are not on
    # the zero level, violating the flow's precondition
    nodes, sigma = _setup()
    f0 = make_grid_function(A, B, lambda x: 1.0 + 0.0 * x, boundary=(1.0, 1.0))
    with pytest.raises(NonIntegrableEndpoint):
        run_flow(f0, ComplexPolynomial([0, 0, 1000.0]), sigma)


def _cube_flow(**kwargs):
    nodes, sigma = _setup()
    f0 = GridFunction(A, B, nodes, 0.3 * sigma.values, (0.0, 0.0))
    return run_flow(f0, CUBE_THIRD, sigma, **kwargs)


# The exprb32 path, which a run that its finish ends would skip: no exact
# flow meets stop_tol = 0 in finite time, so the finish's time bound T is
# infinite and its certificate declines at every state.  The run then steps
# to the horizon, 20 here; the cube flow and _witness_like_cubic reach a
# residual below 1e-8 by then (5.8e-12 and 4.4e-16).
_STEPS_ONLY = {"stop_tol": 0.0}
_STEPS_HORIZON = 20.0


@contextlib.contextmanager
def _steps_only():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kempf_ness, "_T_MAX", _STEPS_HORIZON)
        yield _STEPS_ONLY


def test_flow_error_control_takes_few_steps():
    # a fixed 0.05 cap takes 260 steps here and RK4 at its stability bound
    # 70; the exponential steps, which have no such bound, take 4
    trace = _cube_flow()
    assert len(trace.times) - 1 <= 20
    assert trace.residual_sup[-1] < 1e-8


def _flow_with_states(monkeypatch, f0, w, sigma, **kwargs):
    # every exprb32 trial starts from the current accepted state, and so does
    # every attempt of the finish (the finish state's origin takes no
    # trial), so the distinct starting states in call order, then the final
    # state, are the states whose J the trace records
    starts = []

    def recording(wrapped, at):
        def call(*args):
            vals = args[at]
            if not starts or starts[-1] is not vals:
                starts.append(vals)
            return wrapped(*args)
        return call

    with monkeypatch.context() as patch:
        for name, at in (("_exprb32", 0), ("_newton", 1)):
            patch.setattr(kempf_ness, name, recording(getattr(kempf_ness, name), at))
        trace = run_flow(f0, w, sigma, **kwargs)
    states = starts + [trace.final.values]
    assert len(states) == len(trace.times)
    return trace, states


def _closed_form_J(f0, w, sigma, vals):
    # J(f) = integral of (Re W(x + i f0) - Re W(x + i f)) / sigma with W' = w,
    # on the Gauss-Legendre rule of the grid
    big_w = ComplexPolynomial(antiderivative_coeffs(w.coeffs))
    weights = 0.5 * (f0.b - f0.a) * np.polynomial.legendre.leggauss(len(f0.nodes))[1]
    z0, z = f0.nodes + 1j * f0.values, f0.nodes + 1j * np.asarray(vals)
    return float(np.sum(weights / sigma.values * (big_w(z0).real - big_w(z).real)))


def _witness_like_cubic():
    # a stable pair shaped like the witness benchmark's inputs: w shifted to
    # the zero level through z1 = -0.35i, z2 on that level above x = 0.97,
    # f0 the chord plus a sine bump
    w = ComplexPolynomial([1.07j, 2.89 + 1.49j, 1.98 + 0.57j, 0.49 - 0.08j])
    z1 = -0.35j
    w = ComplexPolynomial([w.coeffs[0] - 1j * w(z1).imag, *w.coeffs[1:]])
    b, y2 = 0.97, -0.36
    for _ in range(30):  # Newton on the vertical line x = b
        y2 -= w(complex(b, y2)).imag / w.derivative()(complex(b, y2)).real
    nodes = gauss_interior_nodes(0.0, b, 257)
    sigma = default_sigma(0.0, b, nodes)
    f0 = make_grid_function(
        0.0, b,
        lambda x: z1.imag + (y2 - z1.imag) * x / b + 0.08 * np.sin(math.pi * x / b),
        boundary=(z1.imag, y2),
    )
    return f0, w, sigma


def test_flow_J_equals_closed_form_at_every_state(monkeypatch):
    nodes, cube_sigma = _setup()
    cube_f0 = GridFunction(A, B, nodes, 0.3 * cube_sigma.values, (0.0, 0.0))
    for f0, w, sigma in ((cube_f0, CUBE_THIRD, cube_sigma), _witness_like_cubic()):
        assert membership(f0, w)[0]
        with _steps_only() as steps_only:
            trace, states = _flow_with_states(monkeypatch, f0, w, sigma, **steps_only)
        assert trace.stop == "horizon"
        assert trace.residual_sup[-1] < 1e-8
        assert len(trace.times) > 3
        bound = 1e-10 * abs(trace.J_values[-1])
        for J, vals in zip(trace.J_values, states):
            assert abs(J - _closed_form_J(f0, w, sigma, vals)) <= bound


def test_flow_membership_column_matches_membership(monkeypatch):
    # run_flow's tables and interior block against membership(), which
    # evaluates w' in complex arithmetic on the full differentiation matrix
    f0, w, sigma = _witness_like_cubic()
    with _steps_only() as steps_only:
        trace, states = _flow_with_states(monkeypatch, f0, w, sigma, **steps_only)
    assert len(states) > 3
    for memb, vals in zip(trace.membership_min, states):
        state = GridFunction(f0.a, f0.b, f0.nodes, vals, f0.boundary)
        assert memb == pytest.approx(membership(state, w)[1], rel=1e-12)


def test_flow_rejects_a_step_that_raises_J(monkeypatch):
    # a first trial that climbs away from the level curve, with a zero error
    # estimate: only the J check can reject it
    trials = []
    step = kempf_ness._exprb32

    def uphill_first(vals, k, jac, rhs, dt, *work):
        trials.append((dt, k.tobytes(), jac.tobytes()))
        if len(trials) == 1:
            return 2.0 * vals, np.zeros_like(vals)
        return step(vals, k, jac, rhs, dt, *work)

    monkeypatch.setattr(kempf_ness, "_exprb32", uphill_first)
    with _steps_only() as steps_only:
        trace = _cube_flow(**steps_only)
    assert trace.rejected_steps >= 1
    assert trials[1][0] == pytest.approx(0.2 * trials[0][0], rel=1e-15)
    # the rejected trial's pass filled rows of its own: the retry starts
    # from the accepted state's k and jac, byte for byte
    assert trials[1][1:] == trials[0][1:]
    assert all(b <= a for a, b in zip(trace.J_values, trace.J_values[1:]))
    assert trace.residual_sup[-1] < 1e-8


@contextlib.contextmanager
def _recorded_trials(ratios=()):
    # record every exprb32 trial of the flows run inside as (start state,
    # dt, resid, err, new state); the first len(ratios) trials report the
    # error estimate ratio * rtol * resid * dt in place of their own, the
    # others their own
    trials = []
    step = kempf_ness._exprb32
    rtol = config.TOL.flow_step_rtol

    def recording(vals, k, jac, rhs, dt, *work):
        u, corr = step(vals, k, jac, rhs, dt, *work)
        resid = float(np.max(np.abs(k)))
        if len(trials) < len(ratios):
            corr = np.full_like(vals, ratios[len(trials)] * rtol * resid * dt)
        trials.append((vals, dt, resid, float(np.max(np.abs(corr))), u))
        return u, corr

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kempf_ness, "_exprb32", recording)
        yield trials


def test_step_controller_follows_the_estimate_order_and_the_next_residual():
    # chosen error ratios s on the cube flow: a rejection retries from the
    # same state at dt max(0.2, 0.9 s^(-1/2)) (2.5 by the formula, 50 at the
    # clamp), an accepted trial's next step reads s r+/r at the new state,
    # with r and r+ the residual at the old and the new state, and a zero
    # estimate grows the step fourfold
    with _recorded_trials((2.5, 50.0, 0.5, 0.0, 0.8)) as trials, _steps_only() as steps_only:
        trace = _cube_flow(**steps_only)
    assert trace.rejected_steps == 2
    assert trace.residual_sup[-1] < 1e-8
    (v0, dt0, r0, _, _), (v1, dt1, _, _, _), (v2, dt2, _, _, u2) = trials[:3]
    (v3, dt3, r3, _, u3), (v4, dt4, r4, _, u4), (v5, dt5, r5, _, _) = trials[3:6]
    assert v0 is v1 is v2 and v3 is u2 and v4 is u3 and v5 is u4
    assert r3 < r0 and r4 < r3 and r5 < r4
    assert dt1 == pytest.approx(dt0 * 0.9 * 2.5 ** -0.5, rel=1e-12)
    assert dt2 == pytest.approx(dt1 * 0.2, rel=1e-12)
    assert dt3 == pytest.approx(dt2 * min(4.0, 0.9 * (0.5 * r3 / r0) ** -0.5), rel=1e-12)
    assert dt4 == pytest.approx(4.0 * dt3, rel=1e-12)
    assert dt5 == pytest.approx(dt4 * min(4.0, 0.9 * (0.8 * r5 / r4) ** -0.5), rel=1e-12)


def test_flow_accepts_only_steps_that_pass_the_error_test():
    # every accepted trial, the one whose new state the next trial starts
    # from, or the last (a run ends only on an accepted state), passed
    # err <= rtol * resid * dt at the shipped rtol, which is no looser than
    # 1e-2
    rtol = config.TOL.flow_step_rtol
    assert rtol <= 1e-2
    for flow in (_cube_flow, lambda **kwargs: run_flow(*_witness_like_cubic(), **kwargs)):
        with _recorded_trials() as trials, _steps_only() as steps_only:
            trace = flow(**steps_only)
        accepted = [trial for trial, after in zip(trials, trials[1:]) if trial[4] is after[0]]
        accepted.append(trials[-1])
        assert accepted[-1][4].tobytes() == trace.final.values.tobytes()
        assert len(accepted) == len(trace.times) - 1 > 3
        for _, dt, resid, err, _ in accepted:
            assert err <= rtol * resid * dt


def test_nonfinite_error_estimate_shrinks_the_step_until_it_diverges():
    # a nan estimate is never accepted: each retry from the start state
    # shrinks the step by 0.2, until it falls below the rounding of t
    with _recorded_trials([math.nan] * 100) as trials:
        with pytest.raises(Diverged, match="flow step size fell"):
            _cube_flow(**_STEPS_ONLY)
    assert len(trials) > 10
    assert all(vals is trials[0][0] for vals, *_ in trials)
    for (_, dt, *_), (_, retry, *_) in zip(trials, trials[1:]):
        assert retry == pytest.approx(0.2 * dt, rel=1e-12)
    assert 0.2 * trials[-1][1] < 4.0 * np.finfo(float).eps * kempf_ness._T_MAX


# ---------------------------------------------------------------------------
# the finish: Newton to the node-wise limit, then the path certificate


def _node_limits(f0, w):
    # the first zero of V_j on the flow's side of f0(x_j): the nearest real
    # root of row 0 of _vertical_line_tables that lies against the sign of
    # V_j(f0(x_j)) (y' = -V_j), polished by Newton on that row
    rows = kempf_ness._vertical_line_tables(w, f0.nodes)[:, 0]
    limits = []
    for col, y in zip(rows.T, f0.values):
        desc = np.trim_zeros(col[::-1], "f")
        v = np.polyval(desc, y)
        real = [r.real for r in np.roots(desc) if abs(r.imag) <= 1e-8 * (1.0 + abs(r))]
        r = min((r for r in real if (r - y) * v < 0.0), key=lambda r: abs(r - y))
        for _ in range(4):
            r -= np.polyval(desc, r) / np.polyval(np.polyder(desc), r)
        limits.append(r)
    return np.array(limits)


def test_flow_finish_ends_at_the_node_wise_limit(monkeypatch):
    # both flows pass the path certificate at their start: the run is the
    # start and the limit at the time bound T, with the exact J increment;
    # each final height lies within stop_tol / min Re w' of the node's limit
    # (and in fact at it, to rounding)
    nodes, cube_sigma = _setup()
    cube_f0 = GridFunction(A, B, nodes, 0.3 * cube_sigma.values, (0.0, 0.0))
    stop = config.TOL.flow_stop
    for f0, w, sigma in ((cube_f0, CUBE_THIRD, cube_sigma), _witness_like_cubic()):
        with _recorded_attempts() as attempts:
            trace, states = _flow_with_states(monkeypatch, f0, w, sigma)
        assert trace.stop == "limit"
        assert len(trace.times) == 2 and len(attempts) == 1
        (_, lam, _), = attempts
        assert trace.times[1] == math.log(trace.residual_sup[0] / stop) / lam
        assert trace.residual_sup[-1] < stop
        assert trace.J_values[-1] < 0.0
        for J, vals in zip(trace.J_values, states):
            assert abs(J - _closed_form_J(f0, w, sigma, vals)) <= 1e-12 * abs(trace.J_values[-1])
        limits = _node_limits(f0, w)
        slowest = float(w.derivative()(f0.nodes + 1j * trace.final.values).real.min())
        assert slowest > 0.0
        gap = np.max(np.abs(trace.final.values - limits))
        assert gap <= stop / slowest
        assert gap <= 1e-12 * np.max(np.abs(limits))


def _unstable_cube_chord():
    # w = z^3/3 from the chord of the unstable pair z1 = 1 - i sqrt(3),
    # z2 = 2; near z1 the chord lies below y = -x, where Re w' = x^2 - y^2
    # is negative
    low = -math.sqrt(3.0)
    f0 = make_grid_function(A, B, lambda x: low * (B - x), boundary=(low, 0.0))
    return f0, CUBE_THIRD, default_sigma(A, B, f0.nodes)


def test_flow_finish_declines_while_a_node_has_negative_re_w_prime(monkeypatch):
    # the finish needs V' = Re w' > 0 at every node: at a state where some
    # node has Re w' <= 0 it makes no attempt, and the run steps on.  Once
    # every node has passed y = -x it can finish (stop "limit"); cut at
    # t = 5, before that, the run stops at the horizon
    f0, w, sigma = _unstable_cube_chord()
    assert float(w.derivative()(f0.nodes + 1j * f0.values).real.min()) < 0.0
    with _recorded_attempts() as attempts:
        trace = run_flow(f0, w, sigma)
    assert all(slowest > 0.0 for slowest, _, _ in attempts)
    assert trace.stop == "limit" and attempts[-1][1] is not None
    assert 0 < len(attempts) < len(trace.times) - 2
    assert min(trace.membership_min) < 0.0 < trace.membership_min[0]
    monkeypatch.setattr(kempf_ness, "_T_MAX", 5.0)
    with _recorded_attempts() as attempts:
        cut = run_flow(f0, w, sigma)
    assert cut.stop == "horizon" and cut.times[-1] == 5.0
    assert cut.residual_sup[-1] >= config.TOL.flow_stop
    assert all(lam is None for _, lam, _ in attempts)


def test_flow_finish_attempts_at_most_once_per_state():
    # on the unstable cube chord the first two attempts fail (Newton leaves
    # the basin of a node that has just crossed y = -x), and each failure
    # lets the run step on to its next state, which attempts again: three
    # attempts, at the last three states before the finish, end the run at
    # 33 states in place of the 37 that it takes by exprb32 steps alone
    f0, w, sigma = _unstable_cube_chord()
    with _recorded_attempts() as attempts:
        trace = run_flow(f0, w, sigma)
    assert trace.stop == "limit"
    assert [lam is None for _, lam, _ in attempts] == [True, True, False]
    assert [resid for _, _, resid in attempts] == trace.residual_sup[-4:-1]
    assert len(trace.times) == 33


def test_flow_ends_at_its_limit_once_its_residual_is_rounding():
    # stop_tol = 0: no exact flow meets it, so the finish never tries, and
    # the run steps on until its residual is rounding.  There the step test
    # reads rounding over rounding and rejects every step size; the run
    # ends at that state (stop "limit") in place of shrinking the step to
    # the rounding of t and raising Diverged
    f0, w, sigma = _witness_like_cubic()
    trace = run_flow(f0, w, sigma, stop_tol=0.0)
    assert trace.stop == "limit"
    assert trace.times[-1] < kempf_ness._T_MAX
    assert trace.rejected_steps == 1
    assert all(b <= a for a, b in zip(trace.J_values, trace.J_values[1:]))
    # every node has Re w' > 0, and its residual lies within the rounding
    # bound of its Horner sum
    rows = kempf_ness._vertical_line_tables(w, f0.nodes)[:, 0]
    vals = trace.final.values
    assert float(w.derivative()(f0.nodes + 1j * vals).real.min()) > 0.0
    value = _horner(rows, vals, np.zeros(len(vals)))
    scale = _horner(np.abs(rows), np.abs(vals), np.zeros(len(vals)))
    assert np.all(np.abs(value) <= 4.0 * len(rows) * np.finfo(float).eps * scale)
    assert trace.residual_sup[-1] <= 1e-14
    limits = _node_limits(f0, w)
    assert np.max(np.abs(vals - limits)) <= 1e-12 * np.max(np.abs(limits))


# V = lead * prod (y - r_i) * ((y - s)^2 + c^2): planted real roots, and
# a complex pair or none
_ROOT = st.floats(-4.0, 4.0)


@st.composite
def _planted_node(draw):
    """(ascending coefficients of V, a height y)."""
    roots = draw(st.lists(_ROOT, min_size=1, max_size=5))
    desc = np.poly(roots) * draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.1, 10.0))
    if draw(st.booleans()):
        s, c = draw(_ROOT), draw(st.floats(0.05, 2.0))
        desc = np.polymul(desc, [1.0, -2.0 * s, s * s + c * c])
    return desc[::-1].copy(), draw(st.floats(-5.0, 5.0))


@settings(max_examples=400, deadline=None)
@given(_planted_node())
@example((np.array([-1.0, 1.0]), 0.25))  # V = y - 1: one Newton step
@example((np.poly([0.5, 0.52, 3.0])[::-1].copy(), 0.4))  # a close pair ahead
# within rounding of a zero
@example((np.array([7.11586167e-185, -1.0, 1.0]), 1.0))
# the limit an ulp past the zero of V
@example((np.array([-3.935465356933158, 7.362105318722641, -4.426639961789483, 1.0]), 1.0))
# V' = 0 at y, where its computed value is rounding: a zero pair 1e-112 apart
@example((np.array([-7.45749224e-225, 0.1, -0.2, 0.1]), 1.0))
# subnormal heights and coefficients
@example((np.array([-1.11253693e-313, 0.5, -2.0]), 2.2250738585e-313))
@example((np.array([-4.450148e-317, 2e-4, -2.0]), 2.2250738585e-313))
# V' > 0 at y, and Newton jumps past the flow's zero -1.8 to -2.3
@example((-np.poly([-1.8, -2.3, 2.3])[::-1], 0.7))
# V' > 0 at y, and V' < 0 on the way to the flow's zero near -2.01
@example((np.array([2.1, -3.0, 0.0, 1.0]), 2.0))
# y already at its zero
@example((np.poly([0.5, 2.0])[::-1].copy(), 2.0))
def test_certificate_admits_no_zero_between_the_state_and_its_limit(case):
    # whenever the path certificate passes from y, V has exactly one zero
    # within eta of the Newton limit y** (eta = (|V(y**)| + e_V) / lam, with
    # e_V the certificate's rounding bound), and the exact count (the
    # Cauchy index of V'/V) finds no zero of V from y up to that interval:
    # the flow from y meets no zero before it
    coeffs, y = case
    rows = np.stack([-coeffs, np.append(coeffs[1:] * np.arange(1, len(coeffs)), 0.0)], axis=1)
    rows = rows[:, :, None]
    vals = np.array([y])
    # as run_flow calls them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        limit = kempf_ness._newton(rows, vals, np.empty(1), np.empty((2, 1)))
        assume(limit is not None)
        state = _horner(rows, limit, np.zeros((2, 1)))
        lam = kempf_ness._certify_path(vals, limit, state, kempf_ness._path_tables(rows),
                                       np.empty((3, 1)), np.empty((3, 1)),
                                       [np.empty(1) for _ in range(3)])
    assume(lam is not None)
    limit = float(limit[0])
    # V' exactly: k a_k as rationals
    exact_dv = [Fraction(c) * j for j, c in enumerate(coeffs.tolist()) if j]

    def slope(at):
        return sum(c * Fraction(at) ** j for j, c in enumerate(exact_dv))

    # lam bounds V' from below along the path: at its ends y and y** too
    assert 0.0 < lam < math.inf
    assert Fraction(lam) <= slope(y) and Fraction(lam) <= slope(limit)

    def count(c, d):
        return cauchy.index_on_interval(exact_dv, coeffs.tolist(), min(c, d), max(c, d))

    n, eps = len(coeffs), np.finfo(float).eps
    e_v = 4.0 * n * eps * _horner(np.abs(coeffs), abs(limit), 0.0)
    eta = (abs(float(state[0, 0])) + e_v + n * np.finfo(float).smallest_subnormal) / lam
    # the interval's ends rounded outward
    lo, hi = np.nextafter(limit - eta, -math.inf), np.nextafter(limit + eta, math.inf)
    assert count(lo, hi) == 1
    if not lo <= y <= hi:
        assert count(y, lo if y < lo else hi) == 0


def _stable_flow_pair(seed):
    # the acceptance flow battery's draw, repeated from one seed until a
    # pair passes its filters
    rng = random.Random(seed)
    for _ in range(200):
        pair = draw_stable_flow_pair(rng)
        if pair is not None:
            return pair
    return None


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(101)  # the battery's own seed
def test_shipped_step_test_reaches_the_limit_of_a_tight_run(seed):
    # J and the stop depend only on the state, so the shipped step test must
    # end at the flow's limit as a run held to 1e-5 per step does: each
    # final state lies within stop_tol / min Re w' of the limit
    pair = _stable_flow_pair(seed)
    assume(pair is not None)
    f0, w, sigma = pair["f0"], pair["w"], pair["sigma"]
    trace = run_flow(f0, w, sigma)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config, "TOL", dataclasses.replace(config.TOL, flow_step_rtol=1e-5))
        tight = run_flow(f0, w, sigma)
    stop = config.TOL.flow_stop
    slowest = float(w.derivative()(f0.nodes + 1j * tight.final.values).real.min())
    assert slowest > 0.0
    assert np.max(np.abs(trace.final.values - tight.final.values)) <= 2.0 * stop / slowest
    J, J_tight = trace.J_values[-1], tight.J_values[-1]
    assert abs(J - J_tight) <= 1e-12 * (1.0 + abs(J_tight))
    assert (min(trace.membership_min) > 0.0) == (min(tight.membership_min) > 0.0)
    for run in (trace, tight):
        assert run.residual_sup[-1] < stop
        assert all(b <= a for a, b in zip(run.J_values, run.J_values[1:]))


def test_flow_steps_pass_old_stability_bound():
    # w = z^2/2: Im w = x f, so the flow is linear with Jacobian -x, which
    # the exponential steps integrate exactly; the old explicit stability
    # bound 0.8 / (largest node) = 0.2 no longer limits them
    a, b = 0.5, 4.0
    nodes = gauss_interior_nodes(a, b, 257)
    sigma = default_sigma(a, b, nodes)
    f0 = GridFunction(a, b, nodes, 0.3 * sigma.values, (0.0, 0.0))
    w = ComplexPolynomial([0, 0, 0.5])

    steps = np.diff(run_flow(f0, w, sigma).times)
    assert np.max(steps) > 0.8 / nodes[-1]


def test_flow_finite_time_blowup_raises_diverged():
    # w = i z^2: Im w = x^2 - f^2, so f' = f^2 - x^2, and every node that
    # starts above x runs off to infinity in finite time
    nodes, sigma = _setup()
    f0 = GridFunction(A, B, nodes, nodes + 4.0 * sigma.values, (A, B))
    with pytest.raises(Diverged):
        run_flow(f0, ComplexPolynomial([0, 0, 1j]), sigma)


def test_flow_overflowing_start_raises_diverged_without_warning():
    # heights up to 1e308: the slope at the start state overflows, silently
    # as at every later state, and the residual past TOL.flow_diverged raises
    f0 = make_grid_function(
        0.0, 2.0, lambda x: np.interp(x, [0.0, 1.0, 2.0], [0.0, 1e308, 0.0]), boundary=(0.0, 0.0)
    )
    sigma = default_sigma(0.0, 2.0, f0.nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Diverged):
            run_flow(f0, W_LINEAR, sigma)


# ---------------------------------------------------------------------------
# geodesics


def test_geodesic_residual_constant_path():
    nodes, sigma = _setup(65)
    f0 = make_grid_function(A, B, lambda x: 0.0 * x, n=65, boundary=(0.0, 0.0))
    phi = make_grid_function(A, B, lambda x: np.sin(math.pi * (x - 1.0)), n=65,
                             boundary=(0.0, np.sin(math.pi)))
    times = [0.0, 0.5, 1.0]
    assert geodesic_residual([phi, phi, phi], times, CUBE_THIRD, sigma, f0) == 0.0


def test_geodesic_linear_w_linear_path():
    # Im(w') = 0 for w = z, so geodesics are exactly the t-linear paths
    nodes, sigma = _setup(65)
    f0 = make_grid_function(A, B, lambda x: 0.0 * x, n=65, boundary=(0.0, 0.0))
    phi_a = make_grid_function(A, B, lambda x: 0.0 * x, n=65, boundary=(0.0, 0.0))
    phi_b = make_grid_function(A, B, lambda x: np.sin(math.pi * (x - 1.0)), n=65,
                               boundary=(0.0, np.sin(math.pi)))
    times = np.linspace(0.0, 1.0, 5)
    path = [
        GridFunction(A, B, phi_a.nodes, (1 - t) * phi_a.values + t * phi_b.values, (0.0, 0.0))
        for t in times
    ]
    assert geodesic_residual(path, times, W_LINEAR, sigma, f0) < 1e-10


def test_relaxed_geodesic_residual_and_convexity():
    n = 65
    nodes = gauss_interior_nodes(A, B, n)
    sigma = default_sigma(A, B, nodes)
    f0 = make_grid_function(A, B, lambda x: 0.0 * x, n=n, boundary=(0.0, 0.0))
    phi_a = make_grid_function(A, B, lambda x: 0.0 * x, n=n, boundary=(0.0, 0.0))
    phi_b = make_grid_function(
        A, B, lambda x: 0.1 * np.sin(math.pi * (x - 1.0)), n=n,
        boundary=(0.0, 0.1 * np.sin(math.pi)),
    )
    times, path = relax_geodesic(phi_a, phi_b, CUBE_THIRD, sigma, f0, n_times=9)
    assert geodesic_residual(path, times, CUBE_THIRD, sigma, f0) < 1e-4

    # energy is convex along a geodesic when the connection is stable:
    # its path derivative must be nondecreasing
    dt = times[1] - times[0]
    rates = []
    for k in range(1, len(path) - 1):
        phi_dot_full = (
            np.concatenate([[path[k + 1].boundary[0]], path[k + 1].values, [path[k + 1].boundary[1]]])
            - np.concatenate([[path[k - 1].boundary[0]], path[k - 1].values, [path[k - 1].boundary[1]]])
        ) / (2.0 * dt)
        phi_dot = GridFunction(A, B, nodes, phi_dot_full[1:-1], (phi_dot_full[0], phi_dot_full[-1]))
        f_k = GridFunction(
            A, B, nodes,
            f0.values + sigma.values * derivative_values(
                GridFunction(A, B, nodes, path[k].values, path[k].boundary)
            ),
            f0.boundary,
        )
        f_dot = sigma.values * derivative_values(phi_dot)
        rates.append(j_derivative(f_k, f_dot, CUBE_THIRD, sigma))
    assert all(b >= a - 1e-6 for a, b in zip(rates, rates[1:]))


# ---------------------------------------------------------------------------
# second variation


def test_second_variation_zero_direction():
    nodes, sigma = _setup()
    f = make_grid_function(A, B, lambda x: 0.0 * x, boundary=(0.0, 0.0))
    psi = make_grid_function(A, B, lambda x: 0.0 * x, boundary=(0.0, 0.0))
    assert second_variation_at(f, psi, CUBE_THIRD, sigma) == 0.0


def test_second_variation_positive_and_matches_quadrature():
    nodes, sigma = _setup()
    f = make_grid_function(A, B, lambda x: 0.0 * x, boundary=(0.0, 0.0))
    psi = make_grid_function(A, B, lambda x: np.sin(math.pi * (x - 1.0)), boundary=(0.0, 0.0))
    val = second_variation_at(f, psi, CUBE_THIRD, sigma)
    assert val > 0.0

    # independent check: dense trapezoid of (psi')^2 sigma x^2
    x = np.linspace(A, B, 2_000_001)
    integrand = (
        (math.pi * np.cos(math.pi * (x - 1.0))) ** 2
        * (x - A) * (B - x) / (B - A)
        * x**2
    )
    expect = np.trapezoid(integrand, x)
    assert val == pytest.approx(expect, abs=1e-8)


@pytest.mark.parametrize(
    "psi",
    [
        make_grid_function(0.0, 5.0, lambda x: np.sin(math.pi * x / 5.0),
                           boundary=(0.0, np.sin(math.pi))),
        make_grid_function(A, B, lambda x: np.sin(math.pi * (x - 1.0)), n=33,
                           boundary=(0.0, np.sin(math.pi))),
    ],
    ids=["other-interval", "other-node-count"],
)
def test_second_variation_rejects_psi_on_another_grid(psi):
    nodes, sigma = _setup()
    f = make_grid_function(A, B, lambda x: 0.0 * x, boundary=(0.0, 0.0))
    with pytest.raises(ValueError, match="psi grid does not match the function grid"):
        second_variation_at(f, psi, CUBE_THIRD, sigma)


def test_second_variation_negates_with_w():
    nodes, sigma = _setup()
    f = make_grid_function(A, B, lambda x: 0.05 * np.sin(math.pi * (x - 1.0)),
                           boundary=(0.0, 0.05 * np.sin(math.pi)))
    psi = make_grid_function(A, B, lambda x: (x - 1.0) * (2.0 - x) ** 2, boundary=(0.0, 0.0))
    val = second_variation_at(f, psi, CUBE_THIRD, sigma)
    neg = second_variation_at(f, psi, ComplexPolynomial([0, 0, 0, -1 / 3]), sigma)
    assert neg == -val


# ---------------------------------------------------------------------------
# unbounded-below family on an unstable instance with nonempty membership set
#
# Instance: w = z^3/3 on [1,2], z1 = 1 - i*sqrt(3) (one band below), z2 = 2.
# The zero level set has components y = 0 and y = -sqrt(3)x; z1 and z2 sit on
# different ones, yet the straight line between them satisfies the membership
# inequality.  Steepening the launch from z1 (slope t) and rejoining a fixed
# profile drives the energy down like -c*log(t): the energy rate along the
# family times t stays bounded away from zero.


def _softplus(u):
    return np.logaddexp(0.0, u)


def _sigmoid(u):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(u, dtype=float)))


def test_energy_unbounded_below_on_steepening_family():
    p = -math.sqrt(3.0)
    nodes, sigma = _setup()
    x = nodes
    s = 0.05
    eps0 = 0.2
    r3 = math.sqrt(3.0)

    def _ref(xx):
        line_member = p + r3 * (xx - A)          # straight z1 -> z2
        lifted = p + eps0 + 1.0 * (xx - A)       # slope-1 launch, lifted
        return line_member + s * _softplus((lifted - line_member) / s)  # smooth max

    def family(t, xx):
        launch = p + t * (xx - A)
        return _ref(xx) - s * _softplus((_ref(xx) - launch) / s)  # smooth min

    def grid_fn(t):
        # boundary heights follow the same formula so the sampled data is
        # globally smooth -- pinning them at (p, 0) exactly would hide a
        # 1e-3 step inside the first node gap
        return GridFunction(
            A, B, nodes, family(t, x), (float(family(t, A)), float(family(t, B)))
        )

    def family_dt(t):
        launch = p + t * (x - A)
        return (x - A) * _sigmoid((_ref(x) - launch) / s)

    def family_dx(t):
        line_member = p + r3 * (x - A)
        lifted = p + eps0 + 1.0 * (x - A)
        ref_slope = r3 + _sigmoid((lifted - line_member) / s) * (1.0 - r3)
        launch = p + t * (x - A)
        return ref_slope + _sigmoid((_ref(x) - launch) / s) * (t - ref_slope)

    ts = np.geomspace(10.0, 1000.0, 25)
    rates = []
    for t in ts:
        rates.append(j_derivative(grid_fn(t), family_dt(t), CUBE_THIRD, sigma))
    rates = np.array(rates)

    assert np.all(rates < 0.0)
    # the 1/t decay signature: -t * dJ/dt bounded below along the family
    assert np.min(-ts * rates) > 0.003
    # total drop across two decades is macroscopic
    drop = np.trapezoid(rates, ts)
    assert drop < -0.05

    # closed-form membership along the whole family: the slope is >= 1
    # everywhere, and Re(w') - f' Im(w') >= (2 sqrt(3) - 2) x^2 then holds in
    # the strip between the descending ray and the axis
    wp = CUBE_THIRD.derivative()
    for t in ts:
        z = x + 1j * family(t, x)
        d = wp(z)
        vals = d.real - family_dx(t) * d.imag
        assert np.min(vals) > 1.0

    # the discrete operator agrees where the grid resolves the smoothing
    for t in (ts[0], ts[6]):
        ok, _ = membership(grid_fn(t), CUBE_THIRD)
        assert ok
