"""End-to-end acceptance battery.

One test per shipping gate.  Each test drives the public API the way a
user would, checks it against an independent oracle (planted roots,
hand-built polynomials, the curve tracer, closed-form identities), and
prints a one-line summary so a verbose run reads as a checklist.  All
randomness is seeded: a red run here is reproducible, not a flake.
"""

import math
import cmath
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from reference_index import index_on_interval_exact

from levelgraph.cauchy import HalfInteger, RationalFunction, index_on_interval
from levelgraph.dhym import CalabiInput, analyze, build_polynomials
from levelgraph.errors import (
    IndeterminateSign,
    LevelGraphError,
    ZeroTotalCharge,
)
from levelgraph.kempf_ness import (
    default_sigma,
    gauss_interior_nodes,
    make_grid_function,
    membership,
    run_flow,
    second_variation_at,
)
from levelgraph.landscape import Potential, counting_function
from levelgraph.poly import (
    ComplexPolynomial,
    RealPolynomial,
    restrict_to_vertical_line,
    roots,
)
from levelgraph.stability import BoundaryData, classify, shift_to_zero_level
from levelgraph.tracer import graphical_connection, sample_regions, trace_level


# ---------------------------------------------------------------------------
# shared instance generators


def _shifted(p: RealPolynomial, c: float) -> RealPolynomial:
    co = list(p.coeffs) or [0.0]
    co[0] -= c
    return RealPolynomial(co)


def _random_w(rng, deg_lo=2, deg_hi=5, y_span=1.8, rho_re=(-2.2, -0.15),
              rho_im=2.0, allow_double=True):
    """Random admissible potential: w' has roots on the axis or in Re < 0."""
    deg = rng.randint(deg_lo, deg_hi)
    wp = ComplexPolynomial(
        [cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) * rng.uniform(0.5, 1.5)]
    )
    i = 0
    while i < deg:
        if rng.random() < 0.35:
            y0 = rng.uniform(-y_span, y_span)
            mult = 2 if (allow_double and rng.random() < 0.2 and i + 1 < deg) else 1
            for _ in range(mult):
                wp = wp * ComplexPolynomial([-1j * y0, 1.0])
            i += mult
        else:
            rho = complex(rng.uniform(*rho_re), rng.uniform(-rho_im, rho_im))
            wp = wp * ComplexPolynomial([-rho, 1.0])
            i += 1
    return wp.antiderivative()


def _pick_z2(w, wp, level, rng, x_range=(0.12, 3.0), wall_margin=1e-4,
             tries=30):
    """A point z2 with Im w(z2) = level, off the vertical-tangent wall."""
    for _ in range(tries):
        x2 = rng.uniform(*x_range)
        g = _shifted(restrict_to_vertical_line(w, x2)[1], level)
        try:
            rts = roots(g.to_complex())
        except LevelGraphError:
            continue
        cands = [
            r.location
            for r in rts
            if abs(r.location.imag) <= 1e-7 * (1 + abs(r.location))
            and abs(r.location.real) < 4.0
        ]
        if not cands:
            continue
        y2 = rng.choice(cands).real
        gp = g.derivative()
        for _ in range(4):
            d = gp(y2)
            if abs(d) < 1e-14:
                break
            y2 -= g(y2) / d
        z2 = complex(x2, y2)
        if abs(w(z2).imag - level) >= 1e-11 * max(1.0, abs(w(z2))):
            continue
        if abs(wp(z2).real) < wall_margin * max(1.0, abs(wp(z2))):
            continue
        return z2
    return None


def _axis_crossings_separated(w, z1, level):
    """No other axis crossing of {Im w = level} piles up near z1.

    A second crossing within ~1e-2 of z1 is below what the tracer's
    corrector tolerance can resolve; such boundary data is the borderline
    geometry the agreement check excludes by resampling.
    """
    g = _shifted(restrict_to_vertical_line(w, 0.0)[1], level)
    try:
        rts = roots(g.to_complex())
    except LevelGraphError:
        return False
    y1 = z1.imag
    for rt in rts:
        if abs(rt.location.imag) > 1e-5 * (1 + abs(rt.location)):
            continue
        if 1e-6 < abs(rt.location.real - y1) < 0.03:
            return False
    return True


# ---------------------------------------------------------------------------
# 1. the index agrees with the Fraction-chain reference, with the exact identities


def test_index_backends_and_identities():
    rng = random.Random(20240811)
    t0 = time.monotonic()
    checked = 0
    while checked < 500:
        dn = rng.randint(0, 8)
        dd = rng.randint(1, 8)
        num = [rng.randint(-5, 5) for _ in range(dn + 1)]
        den = [rng.randint(-5, 5) for _ in range(dd + 1)]
        if all(x == 0 for x in num) or den[-1] == 0:
            continue
        while num[-1] == 0:
            num.pop()
        h = RationalFunction(RealPolynomial([float(x) for x in num]),
                             RealPolynomial([float(x) for x in den]))
        c = rng.uniform(-6.0, 6.0)
        d = c + rng.uniform(0.5, 8.0)
        mid = rng.uniform(c + 0.1, d - 0.1)
        # endpoints and the split point must not sit on a pole, exactly
        def den_val(x):
            fx = Fraction(x)
            return sum(Fraction(co) * fx ** k for k, co in enumerate(den))
        if den_val(c) == 0 or den_val(d) == 0 or den_val(mid) == 0:
            continue
        i_pole = index_on_interval(h, c, d)
        i_exact = index_on_interval_exact(h, c, d)
        assert i_pole == i_exact, (num, den, c, d)
        # additivity across an interior split that is not a pole
        left = index_on_interval(h, c, mid)
        right = index_on_interval(h, mid, d)
        assert left + right == i_pole
        # antisymmetry: flipping the sign of h negates the index
        neg = RationalFunction(RealPolynomial([-co for co in h.num.coeffs]),
                               h.den)
        assert index_on_interval(neg, c, d) == -i_pole
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"index battery took {elapsed:.1f}s"
    print(f"PASS index backends: 500 rationals, index equals the reference, "
          f"additivity+antisymmetry exact, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. the logarithmic-derivative index counts distinct real roots


def test_log_derivative_counts_distinct_real_roots():
    # roots and quadratic factors sit on a dyadic grid, so the double
    # coefficients are the exact product and a planted double root is one
    rng = random.Random(52)

    def times(p, exact, factor):
        out = [Fraction(0)] * (len(exact) + len(factor) - 1)
        for i, a in enumerate(exact):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        return p * RealPolynomial([float(c) for c in factor]), out

    for _ in range(200):
        # plant distinct real roots (some repeated) and complex pairs
        n_real = rng.randint(0, 4)
        reals = []
        while len(reals) < n_real:
            cand = Fraction(rng.randint(-16, 16), 4)
            if all(abs(cand - r) > 0.3 for r in reals):
                reals.append(cand)
        lead = rng.choice([-3, -1, 1, 2])
        p, exact = RealPolynomial([float(lead)]), [Fraction(lead)]
        deg = 0
        for root in reals:
            mult = rng.randint(1, 2)
            for _ in range(mult):
                p, exact = times(p, exact, [-root, Fraction(1)])
            deg += mult
        while deg <= 8 and rng.random() < 0.6:
            a = Fraction(rng.randint(-8, 8), 4)
            bsq = Fraction(rng.randint(2, 64), 16)
            # (y - a)^2 + bsq stays strictly positive
            p, exact = times(p, exact, [a * a + bsq, -2 * a, Fraction(1)])
            deg += 2
        assert [Fraction(c) for c in p.coeffs] == exact, (p.coeffs, reals)
        h = RationalFunction(p.derivative(), p)
        got = index_on_interval(h, -math.inf, math.inf)
        assert got == HalfInteger.from_int(len(reals)), (
            p.coeffs, reals, str(got))
    print("PASS root counting: 200 planted polynomials, "
          "index == distinct real-root count, exact")


# ---------------------------------------------------------------------------
# 3. the stability verdict against the traced geometry


def test_stability_verdict_matches_traced_geometry():
    rng = random.Random(11)
    t0 = time.monotonic()
    tested = excluded = 0
    verdicts = {}
    while tested < 200:
        assert time.monotonic() - t0 < 115.0, "geometry battery over budget"
        w = _random_w(rng)
        wp = w.derivative()
        cps = Potential(w).axis_critical_points
        if cps and rng.random() < 0.5:
            z1 = complex(0.0, rng.choice(cps).y0)
        else:
            for _ in range(10):
                y1 = rng.uniform(-2.0, 2.0)
                if all(abs(y1 - c.y0) > 0.12 for c in cps):
                    break
            else:
                continue
            z1 = complex(0.0, y1)
        level = w(z1).imag
        # resample near-tangency at any other critical point
        if any(
            abs(z1 - complex(0, c.y0)) > 1e-9
            and abs(w(complex(0, c.y0)).imag - level)
            < 1e-3 * max(1.0, abs(w(complex(0, c.y0))))
            for c in cps
        ):
            continue
        if not _axis_crossings_separated(w, z1, level):
            continue
        z2 = _pick_z2(w, wp, level, rng)
        if z2 is None or abs(z2 - z1) < 0.15:
            continue
        try:
            v = classify(BoundaryData(w, z1, z2))
        except (IndeterminateSign, LevelGraphError):
            excluded += 1
            continue
        try:
            chk = graphical_connection(w, z1, z2)
        except LevelGraphError:
            excluded += 1
            continue
        end = chk.trace.points[-1]
        if not chk.connected and abs(end - z1) < 1e-3 * (1.0 + abs(z1)):
            excluded += 1  # stopped just shy of z1: tolerance-band geometry
            continue
        tested += 1
        verdicts[v.verdict] = verdicts.get(v.verdict, 0) + 1
        graph_exists = chk.connected and chk.graphical
        assert (v.verdict != "unstable") == graph_exists, (
            [repr(c) for c in w.coeffs], z1, z2, v.verdict,
            chk.connected, chk.graphical, chk.trace.terminated_by)
    frac = excluded / (tested + excluded)
    assert frac < 0.05, f"excluded fraction {frac:.3f}"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"PASS verdict vs geometry: {tested} instances agree "
          f"({verdicts}), {excluded} borderline excluded "
          f"({100 * frac:.1f}%), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. region labels are constant along curve segments between walls


def test_region_labels_constant_between_walls():
    rng = random.Random(1912)
    traces = segments = points = 0
    while traces < 50:
        w = _random_w(rng, allow_double=False)
        wp = w.derivative()
        seed = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.5, 1.5))
        try:
            line = trace_level(w, seed, kind="level",
                               direction=rng.choice((1, -1)),
                               level=w(seed).imag)
        except LevelGraphError:
            continue
        pts = list(line.points)
        if len(pts) < 12:
            continue
        # split where Re w' changes sign; keep points clear of the wall
        # and of the imaginary axis
        segs, cur, prev_sign = [], [], 0
        for p in pts:
            d = wp(p)
            s = 1 if d.real > 0 else (-1 if d.real < 0 else 0)
            if prev_sign != 0 and s != 0 and s != prev_sign:
                if len(cur) >= 2:
                    segs.append(cur)
                cur = []
            if p.real > 1e-3 and abs(d.real) > 0.05 * (1.0 + abs(d)):
                cur.append(p)
            if s != 0:
                prev_sign = s
        if len(cur) >= 2:
            segs.append(cur)
        if not segs:
            continue
        traces += 1
        for seg in segs:
            labels = sample_regions(w, seg)
            assert len(set(labels)) == 1, (
                [repr(c) for c in w.coeffs], seg[:3], labels)
            segments += 1
            points += len(seg)
    print(f"PASS region labels: {traces} traces, {segments} wall-free "
          f"segments, {points} points, labels constant")


# ---------------------------------------------------------------------------
# 5. index dichotomy at constructed critical points


def test_critical_point_index_dichotomy():
    # w' = z^k (z - r1)(z - r2) with r_j strictly in Re < 0; the argument
    # of u(0) = r1 r2 is steered so the tangent cone at the origin either
    # misses the vertical line (generic) or contains it (non-generic).
    def build(k, phi1, phi2, s1=0.8, s2=1.3):
        r1 = -s1 * cmath.exp(1j * phi1)
        r2 = -s2 * cmath.exp(1j * phi2)
        wp = ComplexPolynomial([1.0])
        for _ in range(k):
            wp = wp * ComplexPolynomial([0.0, 1.0])
        wp = wp * ComplexPolynomial([-r1, 1.0]) * ComplexPolynomial([-r2, 1.0])
        return wp.antiderivative()

    cases = []
    for k in (1, 2, 3):
        target = (-(k + 1) * math.pi / 2) % math.pi
        for label, shift, want in (("generic", 0.45, 0),
                                   ("non_generic", 0.0, -1)):
            phi1 = 0.2
            phi2 = target + shift - phi1
            if phi2 > math.pi / 2 - 0.05:
                phi2 -= math.pi
            pot = Potential(build(k, phi1, phi2))
            cp = [c for c in pot.axis_critical_points if abs(c.y0) < 1e-9]
            assert len(cp) == 1 and cp[0].order == k
            assert cp[0].genericity == label
            got = (counting_function(pot, 1e-3j).interval_index
                   - counting_function(pot, -1e-3j).interval_index)
            assert got == HalfInteger.from_int(want), (k, label, str(got))
            if (k, label) == (2, "non_generic"):
                # on the point itself the pole contributes its half jump,
                # and the index below it keeps its sign
                below = counting_function(pot, -1e-3j).interval_index
                on = counting_function(pot, 0j).interval_index
                assert (below, on) == (HalfInteger(-2), HalfInteger(-3)), (
                    str(below), str(on))
            cases.append((k, label))
    assert len(cases) == 6
    print("PASS critical-point index: orders 1..3, both genericities, "
          "index 0 (generic) / -1 (non-generic), exact")


# ---------------------------------------------------------------------------
# 6 + 7. gradient flow on stable boundary data, and its second variation


@pytest.fixture(scope="module")
def flow_battery():
    rng = random.Random(101)
    t0 = time.monotonic()
    out = []
    while len(out) < 20:
        assert time.monotonic() - t0 < 55.0, "flow battery over budget"
        w = _random_w(rng, deg_hi=4, y_span=1.2, rho_re=(-1.8, -0.2),
                      rho_im=1.5, allow_double=False)
        wp = w.derivative()
        cps = Potential(w).axis_critical_points
        for _ in range(10):
            y1 = rng.uniform(-1.2, 1.2)
            if all(abs(y1 - c.y0) > 0.2 for c in cps):
                break
        else:
            continue
        z1 = complex(0.0, y1)
        level = w(z1).imag
        if any(
            abs(w(complex(0, c.y0)).imag - level)
            < 1e-2 * max(1.0, abs(w(complex(0, c.y0))))
            for c in cps
        ):
            continue
        z2 = _pick_z2(w, wp, level, rng, x_range=(0.5, 1.6), wall_margin=5e-2)
        if z2 is None or abs(z2 - z1) < 0.3:
            continue
        try:
            v = classify(BoundaryData(w, z1, z2))
        except (IndeterminateSign, LevelGraphError):
            continue
        if v.verdict != "stable" or v.case != "noncritical":
            continue
        try:
            chk = graphical_connection(w, z1, z2)
        except LevelGraphError:
            continue
        if not (chk.connected and chk.graphical) or chk.slope_sup > 6.0:
            continue
        # keep the linearization rate along the graph in a comfortable
        # band so the explicit integrator converges well inside budget
        dre = [wp(p).real for p in chk.trace.points]
        if min(dre) < 0.25 or max(dre) > 25.0:
            continue
        xs = np.array([p.real for p in chk.trace.points])[::-1]
        ys = np.array([p.imag for p in chk.trace.points])[::-1]
        keep = np.concatenate(([True], np.diff(xs) > 1e-12))
        xs, ys = xs[keep], ys[keep]
        if len(xs) < 8 or xs[0] > 1e-4 * (1 + abs(z1)):
            continue
        if abs(xs[-1] - z2.real) > 1e-9:
            continue
        if xs[0] > 0.0:
            xs = np.concatenate(([0.0], xs))
            ys = np.concatenate(([z1.imag], ys))

        data = shift_to_zero_level(BoundaryData(w, z1, z2))
        ws = data.w
        a, b = 0.0, z2.real
        nodes = gauss_interior_nodes(a, b, 257)
        # reference graph: polish the chord interpolant of the polyline
        # onto the exact level curve at each quadrature node (the polyline
        # itself carries ~1e-3 chord error at these step sizes)
        curve = np.interp(nodes, xs, ys)
        for _ in range(6):
            num = np.array([ws(complex(x, y)).imag
                            for x, y in zip(nodes, curve)])
            den = np.array([wp(complex(x, y)).real
                            for x, y in zip(nodes, curve)])
            curve = curve - num / den
        sigma = default_sigma(a, b, nodes)
        amp = 0.08
        f0 = None
        for _ in range(4):
            cand = make_grid_function(
                a, b,
                lambda x: np.interp(x, xs, ys)
                + amp * np.sin(math.pi * (x - a) / (b - a)),
                n=257, boundary=(z1.imag, z2.imag))
            in_set, mmin = membership(cand, ws)
            if in_set and mmin > 0.05:
                f0 = cand
                break
            amp *= 0.5
        if f0 is None:
            continue
        trace = run_flow(f0, ws, sigma, stop_tol=1e-7, t_max=200.0)
        out.append({
            "w": ws, "sigma": sigma, "nodes": nodes, "a": a, "b": b,
            "curve": curve, "f0": f0, "trace": trace,
        })
    return {"elapsed": time.monotonic() - t0, "runs": out, "rng": rng}


def test_flow_descends_to_traced_graph(flow_battery):
    runs = flow_battery["runs"]
    assert len(runs) == 20
    worst_up = -math.inf
    worst_res = 0.0
    worst_sup = 0.0
    worst_J = 0.0
    for run in runs:
        tr = run["trace"]
        J = tr.J_values
        assert J[0] == 0.0
        worst_up = max(worst_up, max(
            J[i + 1] - J[i] for i in range(len(J) - 1)))
        # closed form: J(f) = integral of (Re W(z_0) - Re W(z_f)) / sigma, W' = w
        f0, big_w = run["f0"], run["w"].antiderivative()
        a, b, nodes = run["a"], run["b"], run["nodes"]
        qw = 0.5 * (b - a) * np.polynomial.legendre.leggauss(len(nodes))[1]
        qw = qw / run["sigma"].values
        J_exact = float(np.sum(qw * (big_w(nodes + 1j * f0.values).real
                                     - big_w(nodes + 1j * tr.final.values).real)))
        worst_J = max(worst_J, abs(J[-1] - J_exact) / abs(J_exact))
        worst_res = max(worst_res, tr.residual_sup[-1])
        sup = float(np.max(np.abs(
            np.asarray(tr.final.values) - run["curve"])))
        worst_sup = max(worst_sup, sup)
    assert worst_up < 1e-8, f"J increased by {worst_up:.3g} in a step"
    assert worst_res < 1e-6, f"terminal residual {worst_res:.3g}"
    assert worst_sup < 1e-5, f"terminal graph off the curve by {worst_sup:.3g}"
    assert worst_J <= 1e-10, f"last J off its closed form by {worst_J:.3g} relative"
    elapsed = flow_battery["elapsed"]
    assert elapsed < 60.0
    print(f"PASS flow descent: 20 stable instances, J nonincreasing "
          f"(worst step {worst_up:.2e}), last J within {worst_J:.2e} of its "
          f"closed form, residual<= {worst_res:.2e}, "
          f"graph within {worst_sup:.2e} of traced curve, {elapsed:.1f}s")


def test_second_variation_positive_at_solutions(flow_battery):
    rng = flow_battery["rng"]
    sv_min = math.inf
    for run in flow_battery["runs"]:
        a, b, nodes = run["a"], run["b"], run["nodes"]
        for _ in range(10):
            coefs = [rng.uniform(-1.0, 1.0) for _ in range(4)]
            psi = make_grid_function(
                a, b,
                lambda x, cs=tuple(coefs): sum(
                    c * np.sin((j + 1) * math.pi * (x - a) / (b - a))
                    for j, c in enumerate(cs)),
                n=257, boundary=(0.0, 0.0))
            if float(np.max(np.abs(psi.values))) < 1e-12:
                continue
            sv = second_variation_at(run["trace"].final, psi,
                                     run["w"], run["sigma"])
            assert sv > 0.0, f"second variation {sv:.3g} not positive"
            sv_min = min(sv_min, sv)
    print(f"PASS second variation: positive at all 20 solutions x 10 "
          f"directions (min {sv_min:.3g})")


# ---------------------------------------------------------------------------
# 8. the charge pipeline: sweep identities, oracles, hand case


def test_charge_pipeline_sweep_and_oracles():
    rng = random.Random(3021)
    t0 = time.monotonic()

    # (a)+(b)+(c): broad random sweep
    n_ok = 0
    worst_rel = 0.0
    genericities = {"generic": 0, "non_generic": 0}
    while n_ok < 1000:
        m = rng.randint(1, 3)
        r = rng.randint(0, 2)
        inp = CalabiInput(m, r, rng.uniform(0.2, 3.0), rng.uniform(-2.5, 2.5),
                          rng.uniform(0.2, 3.0), rng.uniform(-2.5, 2.5))
        try:
            rep = analyze(inp)
        except (ZeroTotalCharge, IndeterminateSign, LevelGraphError):
            continue
        n_ok += 1
        genericities[rep.genericity] += 1
        w, _, _ = build_polynomials(inp)
        wv = w(complex(inp.b, inp.q))
        worst_rel = max(worst_rel, abs(wv.imag) / max(1.0, abs(wv)))
        assert rep.phi_X < rep.phi_Dinf < rep.phi_X + 1.0, (
            inp, rep.phi_X, rep.phi_Dinf)
        # grade-form decision recomputed here must match the verdict
        D = rep.phi_P - rep.phi_X
        if rep.genericity == "non_generic":
            grade_exists = (1.0 - 1e-6) <= D <= (inp.r + 1e-6)
        else:
            grade_exists = 0.0 < D < inp.r + 1.0
        assert grade_exists == (rep.verdict == "exists"), (inp, D, rep.verdict)
    assert worst_rel < 1e-9, f"boundary level off by {worst_rel:.3g}"

    # (d): existence verdict vs the curve tracer, m = 1, r in {0, 1}
    agree = 0
    d_verdicts = {"exists": 0, "no_solution": 0}
    while agree < 100:
        r = rng.choice((0, 1))
        inp = CalabiInput(1, r, rng.uniform(0.3, 2.5), rng.uniform(-2.0, 2.0),
                          rng.uniform(0.3, 2.5), rng.uniform(-2.0, 2.0))
        try:
            rep = analyze(inp)
        except (ZeroTotalCharge, IndeterminateSign, LevelGraphError):
            continue
        if rep.genericity == "non_generic":
            continue
        w, _, _ = build_polynomials(inp)
        z2 = complex(inp.b, inp.q)
        d = w.derivative()(z2)
        if abs(d.real) < 1e-5 * max(1.0, abs(d)):
            continue  # z2 essentially on the wall: resample
        try:
            chk = graphical_connection(w, 0j, z2)
        except LevelGraphError:
            continue
        graph = chk.connected and chk.graphical
        assert graph == (rep.verdict == "exists"), (
            inp, rep.verdict, chk.connected, chk.graphical,
            chk.trace.terminated_by)
        d_verdicts[rep.verdict] += 1
        agree += 1

    # (e): the hand-evaluated instance, exact in floats
    rep = analyze(CalabiInput(1, 0, 1.0, 0.0, 1.0, 0.0))
    assert rep.theta_hat == 0.0
    assert rep.phi_X == 0.0
    assert rep.phi_Dinf == 0.5
    assert rep.verdict == "exists"

    # (f): constructed twisting-free non-generic inputs never admit
    # a solution
    made = 0
    while made < 10:
        m = rng.randint(1, 3)
        xi1 = rng.uniform(0.3, 2.5)
        xi2 = rng.uniform(-2.0, 2.0)
        b = rng.uniform(0.3, 2.5)
        probe = CalabiInput(m, 0, xi1, xi2, b, 0.0)
        try:
            _, P, _ = build_polynomials(probe)
        except (ZeroTotalCharge, LevelGraphError):
            continue
        # place q where the top charge turns purely imaginary:
        # Re(P(b+iq) e^{-i m arg xi}) = 0
        rho = cmath.exp(-1j * m * cmath.phase(complex(xi1, xi2)))
        g = restrict_to_vertical_line(ComplexPolynomial([rho]) * P, b)[0]
        try:
            rts = roots(g.to_complex())
        except LevelGraphError:
            continue
        cands = [rt.location.real for rt in rts
                 if abs(rt.location.imag) < 1e-8 * (1 + abs(rt.location))
                 and abs(rt.location.real) < 4.0]
        if not cands:
            continue
        try:
            rep = analyze(CalabiInput(m, 0, xi1, xi2, b, rng.choice(cands)))
        except (ZeroTotalCharge, IndeterminateSign, LevelGraphError):
            continue
        made += 1
        assert rep.genericity == "non_generic"
        assert rep.verdict == "no_solution"

    elapsed = time.monotonic() - t0
    assert elapsed < 180.0
    print(f"PASS charge pipeline: 1000-sweep (worst boundary level "
          f"{worst_rel:.1e}, {genericities}), 100 tracer-oracle "
          f"agreements ({d_verdicts}), hand case exact, 10 non-generic "
          f"constructions -> no_solution, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. verdicts are invariant under the admissible scalings


def test_verdicts_scale_invariant():
    rng = random.Random(4077)

    checked = 0
    while checked < 50:
        m = rng.randint(1, 3)
        r = rng.randint(0, 2)
        args = (rng.uniform(0.2, 2.5), rng.uniform(-2.0, 2.0),
                rng.uniform(0.2, 2.5), rng.uniform(-2.0, 2.0))
        lam = rng.uniform(0.3, 3.0)
        try:
            r1 = analyze(CalabiInput(m, r, *args))
            r2 = analyze(CalabiInput(m, r, *(lam * a for a in args)))
        except (ZeroTotalCharge, IndeterminateSign, LevelGraphError):
            continue
        checked += 1
        assert r1.verdict == r2.verdict, (m, r, args, lam)
        assert r1.genericity == r2.genericity

    # the boundary-value verdict under a positive factor on w and under
    # a dilation of the plane
    done = 0
    while done < 50:
        w = _random_w(rng)
        wp = w.derivative()
        cps = Potential(w).axis_critical_points
        if cps and rng.random() < 0.5:
            z1 = complex(0.0, rng.choice(cps).y0)
        else:
            for _ in range(10):
                y1 = rng.uniform(-2.0, 2.0)
                if all(abs(y1 - c.y0) > 0.12 for c in cps):
                    break
            else:
                continue
            z1 = complex(0.0, y1)
        z2 = _pick_z2(w, wp, w(z1).imag, rng)
        if z2 is None or abs(z2 - z1) < 0.15:
            continue
        lam = rng.uniform(0.3, 3.0)
        scaled = ComplexPolynomial([lam * c for c in w.coeffs])
        dilated = ComplexPolynomial(
            [c / lam ** k for k, c in enumerate(w.coeffs)])
        try:
            v0 = classify(BoundaryData(w, z1, z2))
            v1 = classify(BoundaryData(scaled, z1, z2))
            v2 = classify(BoundaryData(dilated, lam * z1, lam * z2))
        except (IndeterminateSign, LevelGraphError):
            continue
        done += 1
        assert v0.verdict == v1.verdict == v2.verdict, (lam, v0, v1, v2)
        assert str(v0.n1) == str(v1.n1) == str(v2.n1)
        assert str(v0.n2) == str(v1.n2) == str(v2.n2)
    print("PASS scale invariance: 50 charge inputs under the positive "
          "class scaling, 50 boundary instances under w -> lam*w and "
          "plane dilation, verdicts unchanged")
