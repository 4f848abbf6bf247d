import cmath
import math
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levelgraph.poly as poly
from levelgraph.dhym import (
    CalabiInput,
    _path_lift,
    analyze,
    build_polynomials,
    compute_charges,
    compute_lifts,
    exhibit_solution,
)
from levelgraph.errors import BoundaryPointUnreachable, ZeroTotalCharge
from reference_lift import _unwrap_lift

SQ3 = math.sqrt(3.0)


def closed_form_phi_P(inp):
    # arg(xi + it) climbs from arg(xi) to pi/2; anchored terminal lift is pi
    return 1.0 - inp.m * (math.pi / 2 - math.atan2(inp.xi2, inp.xi1)) / math.pi


def closed_form_phi_Dinf(inp):
    climb = inp.m * (math.pi / 2 - math.atan2(inp.q + inp.xi2, inp.b + inp.xi1))
    climb += inp.r * (math.pi / 2 - math.atan2(inp.q, inp.b))
    return 1.0 - climb / math.pi


# ---------------------------------------------------------------------------
# input validation


def test_input_validation():
    with pytest.raises(ValueError):
        CalabiInput(m=0, r=0, xi1=1.0, xi2=0.0, b=1.0, q=0.0)
    with pytest.raises(ValueError):
        CalabiInput(m=1, r=-1, xi1=1.0, xi2=0.0, b=1.0, q=0.0)
    with pytest.raises(ValueError):
        CalabiInput(m=1, r=0, xi1=-1.0, xi2=0.0, b=1.0, q=0.0)
    with pytest.raises(ValueError):
        CalabiInput(m=1, r=0, xi1=1.0, xi2=0.0, b=0.0, q=0.0)


# ---------------------------------------------------------------------------
# the fully hand-computed instance: m=1, r=0, xi=1, z2=1


def test_hand_case_polynomials():
    inp = CalabiInput(m=1, r=0, xi1=1.0, xi2=0.0, b=1.0, q=0.0)
    w, P, theta = build_polynomials(inp)
    assert P(1.0) == pytest.approx(1.5, abs=1e-15)
    assert theta == 0.0
    # w = z + z^2/2 is real along [0, 1]
    assert abs(w(1.0 + 0.0j).imag) < 1e-15
    assert w(1.0 + 0.0j).real == pytest.approx(1.5, abs=1e-15)


def test_hand_case_charges():
    inp = CalabiInput(m=1, r=0, xi1=1.0, xi2=0.0, b=1.0, q=0.0)
    w, P, theta = build_polynomials(inp)
    Z_X, Z_Dinf, Z_P = compute_charges(inp, P)
    assert Z_X == pytest.approx(1.5 + 0j, abs=1e-15)
    assert Z_Dinf == pytest.approx(2j, abs=1e-15)
    assert Z_P == pytest.approx(1j, abs=1e-15)


def test_hand_case_lifts_and_verdict():
    report = analyze(CalabiInput(m=1, r=0, xi1=1.0, xi2=0.0, b=1.0, q=0.0))
    assert report.theta_top == 0.0
    assert report.ind_Rb == 0
    assert report.ind_R0 == 0
    assert report.Theta_lift == 0.0
    assert report.phi_X == 0.0
    assert report.phi_Dinf == pytest.approx(0.5, abs=1e-12)
    assert report.phi_P == pytest.approx(0.5, abs=1e-12)
    assert report.genericity == "generic"
    assert report.verdict == "exists"


# ---------------------------------------------------------------------------
# the first twisted case: m=1, r=1, xi=1, z2=1 (f = 0 is an exact solution)


def test_twisted_case_is_nongeneric_and_exists():
    report = analyze(CalabiInput(m=1, r=1, xi1=1.0, xi2=0.0, b=1.0, q=0.0))
    assert report.theta_hat == 0.0
    assert report.theta_top == pytest.approx(math.pi, abs=1e-12)
    assert report.ind_Rb == 1
    assert report.ind_R0 == 0
    assert report.phi_X == pytest.approx(-0.5, abs=1e-12)
    assert report.phi_Dinf == pytest.approx(0.0, abs=1e-12)
    assert report.phi_P == pytest.approx(0.5, abs=1e-12)
    assert report.genericity == "non_generic"
    assert report.verdict == "exists"
    assert "boundary" in report.normalization_note


def test_twisted_case_tracer_agreement():
    check = exhibit_solution(CalabiInput(m=1, r=1, xi1=1.0, xi2=0.0, b=1.0, q=0.0))
    assert check.connected and check.graphical


def test_high_degree_lift_agrees_with_exact_indices():
    # w' of degree 11: the vertical-ray index needs every pole of the ratio,
    # and the phase paths' crossing counts must reproduce both indices
    report = analyze(CalabiInput(
        6, 5, 1.8795945173377537, 1.5228474225701767,
        1.9790390528454742, 0.25378132553625354,
    ))
    assert report.verdict == "exists"
    assert report.ind_R0 == 1
    assert report.ind_Rb == 4


def test_lift_sector_failure_names_re_w_prime_at_z2():
    # dhym-sweep seed 1 input 878: Re w'(z2) < 0, so no graph over [0, b]
    # reaches z2; the message must name the value
    inp = CalabiInput(3, 0, 0.8725791887060792, -1.671475408873806,
                      0.5278009818877772, 2.5784225325790224)
    with pytest.raises(BoundaryPointUnreachable, match="no graph over") as info:
        analyze(inp)
    found = re.search(r"Re w'\(z2\) = (\S+) is not above", str(info.value))
    assert found is not None, str(info.value)
    w, _, _ = build_polynomials(inp)
    assert float(found.group(1)) == w.derivative()(inp.z2).real
    assert float(found.group(1)) == pytest.approx(-4.4623716979992469, rel=1e-12)


# ---------------------------------------------------------------------------
# non-generic inputs with a nonzero axis index (dhym-sweep seed 1 planted
# inputs 39 and 198): the Z_P path starts on the Z_X line, and the axis index
# leaves out its half-jump at t = 0


@pytest.mark.parametrize("inp, ind_R0, ind_Rb, phi_X, phi_P", [
    (CalabiInput(2, 0, 1.2443289121140952, -0.9338581957085412,
                 0.5120912257056114, 0.759702860137234),
     1, 1, -0.40986571238869063, -0.40986571238882974),
    (CalabiInput(3, 0, 1.4405456336916118, -1.9075008892519367,
                 1.025635705615961, -2.696975544214713),
     2, 3, -2.3823313174719627, -1.3823313174721268),
])
def test_nongeneric_nonzero_axis_index(inp, ind_R0, ind_Rb, phi_X, phi_P):
    report = analyze(inp)
    assert report.genericity == "non_generic"
    assert report.verdict == "no_solution"
    assert report.ind_R0 == ind_R0
    assert report.ind_Rb == ind_Rb
    assert report.phi_X == phi_X
    assert report.phi_P == pytest.approx(phi_P, abs=1e-9)
    assert report.phi_P - report.phi_X == pytest.approx(ind_Rb - ind_R0, abs=1e-12)


def test_analyze_makes_no_root_solve(monkeypatch):
    calls = []
    real_roots = poly.roots

    def counted(p):
        calls.append(p)
        return real_roots(p)

    for name, module in list(sys.modules.items()):
        if name.startswith("levelgraph") and getattr(module, "roots", None) is real_roots:
            monkeypatch.setattr(module, "roots", counted)
    report = analyze(CalabiInput(2, 0, 1.2443289121140952, -0.9338581957085412,
                                 0.5120912257056114, 0.759702860137234))
    assert report.genericity == "non_generic"
    assert calls == []


# ---------------------------------------------------------------------------
# closed-form path lift against the numerical unwrap


@settings(max_examples=60, deadline=None)
@given(
    factors=st.lists(
        st.tuples(
            st.floats(0.2, 3.0),
            st.floats(-50.0, 50.0),
            st.integers(1, 8),
        ),
        min_size=1,
        max_size=3,
    ),
    t0=st.floats(-60.0, 60.0),
    step=st.floats(0.01, 40.0),
)
def test_path_lift_matches_unwrap(factors, t0, step):
    # the prefactor c = -(-i)^K with K = sum k sends the path to the negative
    # real axis, where _path_lift anchors its lift at pi
    K = sum(k for _, _, k in factors)
    prefactor = -((-1j) ** (K % 4))
    t1 = t0 + step
    t_big = 64.0 * max(1.0, abs(t1), *(max(x, abs(y)) for x, y, _ in factors))
    rec, total = _unwrap_lift(prefactor, factors, t0, [t0, t1], t_big)
    lift0 = _path_lift(factors, t0)
    assert total == pytest.approx(math.pi - lift0, abs=1e-9)
    assert rec[t1] - rec[t0] == pytest.approx(_path_lift(factors, t1) - lift0, abs=1e-9)
    # the raw start phase is the anchored lift up to whole turns
    turns = (rec[t0] - lift0) / (2.0 * math.pi)
    assert turns == pytest.approx(round(turns), abs=1e-9)


# ---------------------------------------------------------------------------
# r = 0 non-generic: no smooth solution


def test_r0_nongeneric_has_no_solution():
    # Re(P(z2)) = b + (b^2 - q^2)/2 = 0 at q = sqrt(3), so theta_hat = pi/2
    # and the origin's tangent direction turns vertical
    report = analyze(CalabiInput(m=1, r=0, xi1=1.0, xi2=0.0, b=1.0, q=SQ3))
    assert report.theta_hat == pytest.approx(math.pi / 2, abs=1e-12)
    assert report.genericity == "non_generic"
    assert report.verdict == "no_solution"
    assert report.ind_Rb == 0
    assert report.ind_R0 == 0
    assert report.phi_X == pytest.approx(0.5, abs=1e-12)
    assert report.phi_Dinf == pytest.approx(closed_form_phi_Dinf(report_input()), abs=1e-9)


def report_input():
    return CalabiInput(m=1, r=0, xi1=1.0, xi2=0.0, b=1.0, q=SQ3)


# ---------------------------------------------------------------------------
# degenerate class: total charge vanishes


def test_zero_total_charge():
    # z2 = xi (e^{2 pi i/3} - 1) is a root of P = ((xi+z)^3 - xi^3)/3 and has
    # positive real part for xi = 1 - 2i
    z2 = (1 - 2j) * (cmath.exp(2j * math.pi / 3) - 1)
    assert z2.real > 0
    inp = CalabiInput(m=2, r=0, xi1=1.0, xi2=-2.0, b=z2.real, q=z2.imag)
    with pytest.raises(ZeroTotalCharge):
        build_polynomials(inp)


# ---------------------------------------------------------------------------
# structural facts


def test_theta_hat_zero_on_real_classes():
    for m, r, xi1, b in [(1, 0, 1.0, 1.0), (2, 1, 0.5, 2.0), (3, 2, 2.0, 0.7)]:
        _, _, theta = build_polynomials(CalabiInput(m=m, r=r, xi1=xi1, xi2=0.0, b=b, q=0.0))
        assert theta == 0.0


def test_Z_P_ignores_z2():
    a = CalabiInput(m=2, r=1, xi1=1.3, xi2=-0.4, b=1.0, q=0.5)
    c = CalabiInput(m=2, r=1, xi1=1.3, xi2=-0.4, b=2.5, q=-1.0)
    wa, Pa, ta = build_polynomials(a)
    wc, Pc, tc = build_polynomials(c)
    assert compute_charges(a, Pa)[2] == compute_charges(c, Pc)[2]


def test_report_dict_fields():
    report = analyze(CalabiInput(m=1, r=0, xi1=1.0, xi2=0.0, b=1.0, q=0.0))
    d = report.to_dict()
    assert list(d.keys()) == [
        "theta_hat", "theta_top", "Theta_lift", "Z_X", "Z_Dinf", "Z_P",
        "phi_X", "phi_Dinf", "phi_P", "ind_R0", "ind_Rb",
        "genericity", "verdict", "normalization_note",
    ]
    assert d["Z_Dinf"] == [0.0, 2.0]
    assert d["ind_Rb"] == "0"
    assert isinstance(d["phi_X"], float)


# ---------------------------------------------------------------------------
# randomized sweep: structural invariants, closed-form lifts, scaling


def test_random_sweep_invariants():
    rng = random.Random(20240817)
    checked = 0
    scale_checked = 0
    while checked < 80:
        inp = CalabiInput(
            m=rng.randint(1, 3),
            r=rng.randint(0, 2),
            xi1=rng.uniform(0.3, 3.0),
            xi2=rng.uniform(-2.0, 2.0),
            b=rng.uniform(0.3, 3.0),
            q=rng.uniform(-2.0, 2.0),
        )
        try:
            report = analyze(inp)
        except ZeroTotalCharge:
            continue
        checked += 1

        assert -math.pi < report.theta_hat <= math.pi
        assert report.verdict in ("exists", "no_solution")
        # the level through z2 really is the zero level
        w, _, _ = build_polynomials(inp)
        wz2 = w(complex(inp.b, inp.q))
        assert abs(wz2.imag) <= 1e-9 * max(1.0, abs(wz2))
        # grade ordering of the two computed subvariety charges
        assert report.phi_X < report.phi_Dinf < report.phi_X + 1.0
        # the path lifts against the closed forms written out per charge
        assert report.phi_P == pytest.approx(closed_form_phi_P(inp), abs=1e-12)
        assert report.phi_Dinf == pytest.approx(closed_form_phi_Dinf(inp), abs=1e-12)
        # the crossing anchor pins phi_P - phi_X relative to the index gap
        d = float(report.ind_Rb - report.ind_R0)
        D = report.phi_P - report.phi_X
        if report.genericity == "generic":
            assert d - 1e-9 < D < d + 1.0
        else:
            assert D == pytest.approx(d, abs=1e-6)

        if scale_checked < 20:
            lam = 3.7
            scaled = CalabiInput(
                m=inp.m, r=inp.r,
                xi1=lam * inp.xi1, xi2=lam * inp.xi2,
                b=lam * inp.b, q=lam * inp.q,
            )
            assert analyze(scaled).verdict == report.verdict
            scale_checked += 1
