import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levelgraph import poly, tracer
from levelgraph.cauchy import HalfInteger
from levelgraph.errors import SeedNotOnCurve
from levelgraph.landscape import Potential, counting_function
from levelgraph.poly import ComplexPolynomial, from_roots
from levelgraph.tracer import (
    Polyline,
    _root_bound,
    graphical_connection,
    trace_level,
)

CUBE_THIRD = ComplexPolynomial([0, 0, 0, 1 / 3])
CUBIC_MIXED = ComplexPolynomial([0, 0, 1 / 2, 1 / 3])


def _bisect(f, lo, hi, iters=200):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# the curve field


@pytest.mark.parametrize("kind", ["level", "vertical_tangent"])
def test_make_field_evaluates_as_the_polynomial(kind):
    # field and grad must give what base(u) and base'(u) give, to the bit
    w = ComplexPolynomial([0.3 - 0.7j, 1.1j, -1.7 + 0.2j, 1 / 3, 0.13 - 0.05j])
    base = w if kind == "level" else 1j * w.derivative()
    dbase = base.derivative()
    points = [complex(x, y) for x in (0.0, -0.0, 1.3, -0.61) for y in (0.0, -0.0, -0.77, 2.9)]
    for level in (0.0, 0.5):
        field, grad, _ = tracer._make_field(base, level)
        for u in points:
            assert repr(field(u)) == repr(base(u).imag - level)
            d = dbase(u)
            assert repr(grad(u)) == repr(complex(d.imag, d.real))


# ---------------------------------------------------------------------------
# trace_level mechanics


def test_trace_axis_leftward_ends_at_critical_point():
    line = trace_level(CUBE_THIRD, 2.0 + 0j, direction=-1)
    assert line.curve_kind == "level"
    assert line.terminated_by == "critical_point"
    assert all(abs(p.imag) < 1e-8 for p in line.points)
    xs = [p.real for p in line.points]
    assert all(a > b for a, b in zip(xs, xs[1:]))
    assert abs(line.points[-1]) < 1e-3


def test_trace_axis_rightward_escapes():
    line = trace_level(CUBE_THIRD, 2.0 + 0j, direction=+1)
    assert line.terminated_by == "radius"
    assert abs(line.points[-1]) >= 4.0


def test_trace_stays_on_level():
    y2 = _bisect(lambda y: 12 * y - y**3 - 2, 0.0, 1.0)
    line = trace_level(CUBE_THIRD, 2 + 1j * y2, direction=+1, level=2 / 3)
    for p in line.points:
        assert CUBE_THIRD(p).imag == pytest.approx(2 / 3, abs=1e-7)


def test_trace_seed_correction():
    line = trace_level(CUBE_THIRD, 2.0 + 1e-6j, direction=+1)
    assert abs(line.points[0].imag) < 1e-10


def test_trace_rejects_far_seed():
    with pytest.raises(SeedNotOnCurve):
        trace_level(CUBE_THIRD, 2.0 + 1j, direction=+1)


@pytest.mark.parametrize("kind", ["level", "vertical_tangent"])
def test_trace_rejects_overflowing_seed(kind):
    # the seed is finite, but w there and the corrector tolerance are not
    with pytest.raises(SeedNotOnCurve, match="overflows a double"):
        trace_level(CUBE_THIRD, 1e300 + 0j, kind=kind)


@pytest.mark.parametrize("kind, seed", [("level", 1 + 0j), ("vertical_tangent", 1 + 1j)])
def test_trace_rejects_a_radius_whose_tolerance_overflows(kind, seed):
    # the seed is fine, but a leading coefficient of 1e-200 puts Fujiwara's
    # bound, and with it the derived radius, past 1e200: a trace run out
    # that far would overflow the corrector tolerance (1 + |u|)^deg
    coeffs, radius = {
        "level": ([0, 1, 1e-200], r"8e\+200"),
        "vertical_tangent": ([0, 0, 0, 1 / 3, 1e-200], r"2\.6666666666666667e\+200"),
    }[kind]
    with pytest.raises(ValueError, match=rf"trace radius {radius} is too large"):
        trace_level(ComplexPolynomial(coeffs), seed, kind=kind)


def test_trace_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown curve kind"):
        trace_level(CUBE_THIRD, 1.0 + 0j, kind="gradient")


def test_trace_vertical_tangent_curve():
    # {Re w' = 0} for w = z^3/3 is the pair of diagonals y = +-x
    line = trace_level(CUBE_THIRD, 1 + 1j, kind="vertical_tangent", direction=+1)
    assert line.curve_kind == "vertical_tangent"
    assert line.terminated_by == "radius"
    for p in line.points:
        assert p.imag == pytest.approx(p.real, abs=1e-6 * (1 + abs(p)))

    back = trace_level(CUBE_THIRD, 1 + 1j, kind="vertical_tangent", direction=-1)
    assert back.terminated_by == "critical_point"
    assert abs(back.points[-1]) < 1e-3


def test_trace_clips_at_axis():
    # level through 2 - 3.55i heads left and meets the imaginary axis
    y2 = _bisect(lambda y: 12 * y - y**3 - 2, -4.0, -3.0)
    line = trace_level(CUBE_THIRD, 2 + 1j * y2, direction=-1, level=2 / 3)
    assert line.terminated_by == "y_axis"
    assert line.points[-1].real == pytest.approx(0.0, abs=1e-9)
    # Im w = 2/3 at x = 0 means -y^3 = 2
    assert line.points[-1].imag == pytest.approx(-(2.0 ** (1 / 3)), abs=1e-6)


def test_trace_follows_fold():
    # the level through z1 = 1+i turns vertical there; an undirected pass
    # from above continues through the fold instead of stopping
    z_fold = 1 + 1j
    y_hi = _bisect(lambda y: 12 * y - y**3 - 2, 2.0, 3.45)
    line = trace_level(CUBE_THIRD, 2 + 1j * y_hi, direction=-1, level=2 / 3)
    # fold sends the curve back to increasing x: it must eventually escape
    assert line.terminated_by == "radius"
    min_x = min(p.real for p in line.points)
    assert min_x == pytest.approx(1.0, abs=1e-2)


def test_csv_round_trip():
    line = trace_level(CUBE_THIRD, 2.0 + 0j, direction=-1)
    text = line.to_csv()
    rows = text.strip().splitlines()
    assert rows[0] == "re,im"
    assert len(rows) == len(line.points) + 1
    first = rows[1].split(",")
    assert complex(float(first[0]), float(first[1])) == line.points[0]


# ---------------------------------------------------------------------------
# graphical_connection verdict data


def test_connection_stable_axis():
    chk = graphical_connection(CUBE_THIRD, 1 + 0j, 2 + 0j)
    assert chk.connected and chk.graphical
    assert chk.min_dx_per_step > 0
    assert chk.slope_sup < 1.0
    assert chk.trace.terminated_by == "target"


def test_connection_semistable_vertical_arrival():
    y2 = _bisect(lambda y: 12 * y - y**3 - 2, 0.0, 1.0)
    chk = graphical_connection(CUBE_THIRD, 1 + 1j, 2 + 1j * y2)
    assert chk.connected
    assert chk.graphical
    assert chk.slope_sup > 1e3

    y_hi = _bisect(lambda y: 12 * y - y**3 - 2, 2.0, 3.45)
    chk = graphical_connection(CUBE_THIRD, 1 + 1j, 2 + 1j * y_hi)
    assert chk.connected
    assert chk.slope_sup > 1e3


def test_connection_unstable_funnels_to_axis():
    y2 = _bisect(lambda y: 12 * y - y**3 - 2, -4.0, -3.0)
    chk = graphical_connection(CUBE_THIRD, 1 + 1j, 2 + 1j * y2)
    assert not chk.connected
    assert chk.trace.terminated_by == "y_axis"


def test_connection_unstable_blocked_by_critical_point():
    # the ray y = sqrt(3) x reaches the origin's critical point, not z1 = 1
    chk = graphical_connection(CUBE_THIRD, 1 + 0j, 2 + 1j * math.sqrt(12))
    assert not chk.connected
    assert chk.trace.terminated_by == "critical_point"


def test_connection_stable_into_critical_point():
    chk = graphical_connection(CUBE_THIRD, 0j, 2 + 1j * math.sqrt(12))
    assert chk.connected
    assert chk.graphical
    assert 1.0 < chk.slope_sup < 50.0


def test_connection_semistable_nongeneric():
    # y = sqrt(3x^2+3x) arrives at the origin vertically
    y2 = math.sqrt(18.0)
    chk = graphical_connection(CUBIC_MIXED, 0j, 2 + 1j * y2)
    assert chk.connected
    assert chk.slope_sup > 1e3


def test_connection_stable_nongeneric_window():
    chk = graphical_connection(CUBIC_MIXED, 0j, 2 + 0j)
    assert chk.connected and chk.graphical
    assert chk.slope_sup < 50.0


# ---------------------------------------------------------------------------
# band labels along a traced curve


def test_sample_regions_constant_between_folds():
    line = trace_level(CUBE_THIRD, 2.0 + 0j, direction=-1)
    inside = [p for p in line.points if p.real > 1e-3]
    pot = Potential(CUBE_THIRD)
    labels = [counting_function(pot, p).value for p in inside[::4]]
    assert set(labels) == {HalfInteger.from_int(2)}


def test_sample_regions_jump_across_fold():
    y_hi = _bisect(lambda y: 12 * y - y**3 - 2, 2.0, 3.45)
    line = trace_level(CUBE_THIRD, 2 + 1j * y_hi, direction=-1, level=2 / 3)
    pot = Potential(CUBE_THIRD)
    labels = [counting_function(pot, p).value for p in (line.points[0], line.points[-1])]
    # started in band 3, escaped rightward in band 2 after the fold at 1+i
    assert labels[0] == HalfInteger.from_int(3)
    assert labels[-1] == HalfInteger.from_int(2)


# ---------------------------------------------------------------------------
# one root solve per trace: the escape circle comes from the coefficients


def _count_root_solves(monkeypatch) -> list:
    calls = []
    real_roots = poly.roots

    def counted(p):
        calls.append(p)
        return real_roots(p)

    for name, module in list(sys.modules.items()):
        if name.startswith("levelgraph") and getattr(module, "roots", None) is real_roots:
            monkeypatch.setattr(module, "roots", counted)
    return calls


@pytest.mark.parametrize("run", [
    lambda: graphical_connection(CUBE_THIRD, 1, 2),
    lambda: trace_level(CUBE_THIRD, 2.0 + 0j, direction=-1),
    lambda: trace_level(CUBE_THIRD, 1 + 1j, kind="vertical_tangent"),
], ids=["graphical_connection", "level", "vertical_tangent"])
def test_each_trace_makes_one_root_solve(monkeypatch, run):
    calls = _count_root_solves(monkeypatch)
    run()
    assert calls == [CUBE_THIRD.derivative()]


def _magnitudes(top: int):
    return st.builds(
        lambda m, e, phase: cmath.rect(m * 10.0**e, phase),
        st.floats(1.0, 10.0), st.integers(-top, top), st.floats(0.0, 2 * math.pi),
    )


_COEFFS = st.lists(_magnitudes(30) | st.just(0j), min_size=1, max_size=12).flatmap(
    lambda low: _magnitudes(30).map(lambda lead: ComplexPolynomial(low + [lead]))
)
# roots drawn from a few values, so that some come out multiple; 12 roots of
# size 1e20 and a leading 1e30 keep every coefficient a normal double
_PLANTED = st.builds(
    from_roots,
    st.lists(_magnitudes(20), min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12)
    ),
    _magnitudes(30),
)


def _largest_root(w) -> float:
    """max |root of w| at 50 digits, by mpmath.polyroots or, failing it, mpmath.eig.

    The variable is first scaled by the largest double-precision companion
    eigenvalue, which polyroots needs because it stops on an absolute step;
    the eigenvalues also seed it.  On a multiple root, such as that of
    (z - 1)^3, or a tight cluster, polyroots converges only linearly, and the
    QR iteration of mpmath.eig on the scaled companion matrix gives the roots
    instead.  The zero roots that vanishing low coefficients give are set
    aside.
    """
    low = next(k for k, c in enumerate(w.coeffs) if c != 0)
    rest = w.coeffs[low:]
    n = len(rest) - 1
    if n == 0:
        return 0.0
    approx = np.roots(rest[::-1])
    scale = float(np.max(np.abs(approx)))
    with mpmath.workdps(50):
        monic = [mpmath.mpc(c) / mpmath.mpc(rest[-1]) * mpmath.mpf(scale) ** (k - n)
                 for k, c in enumerate(rest)]
        try:
            found = mpmath.polyroots(monic[::-1], maxsteps=15, extraprec=20,
                                     roots_init=[mpmath.mpc(z / scale) for z in approx])
        except mpmath.libmp.NoConvergence:
            companion = mpmath.matrix(n, n)
            for k in range(n):
                companion[0, k] = -monic[n - 1 - k]
            for k in range(1, n):
                companion[k, k - 1] = 1
            # (mpmath.eig returns a tuple for a 1-by-1 matrix, which polyroots
            # always solves)
            found = mpmath.eig(companion, left=False, right=False)
        return float(scale * max(abs(r) for r in found))


# B is evaluated in floats: an abs, a division and a power per term, each
# good to about an ulp.  In degree 1 B equals R exactly, and on an exact n-fold
# root it equals 2n R, so each comparison allows B that rounding.
_ROUNDING = 1.0 + 8.0 * sys.float_info.epsilon


# a 50-digit eigenvalue solve takes about 0.1 s at degree 12
@settings(max_examples=50, deadline=None)
@given(_COEFFS | _PLANTED)
@example(w=from_roots([0.0640996858163325 + 0.07675435022360272j], 0.0007140625000000001 + 0j))
@example(w=from_roots([1, 1, 1], 1))
@example(w=from_roots([10, 10], 1))
def test_root_bound_encloses_roots_and_is_within_2n_of_them(w):
    r_max = _largest_root(w)
    bound = _root_bound(w)
    assert r_max <= bound * _ROUNDING
    # |c_{n-k}/c_n| = |e_k| <= C(n, k) R^k <= n^k R^k, so no term passes n R
    assert bound <= 2 * w.degree * r_max * _ROUNDING
