"""Command-line surface: frozen examples, JSON determinism, CSV outputs.

Everything runs main() in-process with capsys so the suite stays fast; one
test goes through a real subprocess to prove the installed entry point works.
"""

import json
import math
import runpy
import subprocess
import sys
import warnings

import pytest

from levelgraph import cli, kempf_ness
from levelgraph.kempf_ness import GridFunction, default_sigma, gauss_interior_nodes, run_flow
from levelgraph.poly import ComplexPolynomial
from levelgraph.tracer import trace_level


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify


def test_classify_cube_third(capsys):
    rc, out, err = run_cli(
        capsys,
        ["classify", "--poly", "0,0,0,0.3333", "--z1", "1,0", "--z2", "2,0"],
    )
    assert rc == 0, err
    d = json.loads(out)
    assert d["verdict"] == "stable"
    assert d["n1"] == "2"
    assert d["n2"] == "2"
    # the StabilityVerdict's fields in declaration order, labels as strings
    assert out == (
        '{"verdict":"stable","n1":"2","n2":"2","case":"noncritical",'
        '"critical_order":null}\n'
    )


def test_classify_linear(capsys):
    rc, out, err = run_cli(
        capsys, ["classify", "--poly", "0,1", "--z1", "0,0", "--z2", "1,0"]
    )
    assert rc == 0, err
    assert json.loads(out)["verdict"] == "stable"


def test_classify_roots_alternative(capsys):
    # --roots 0 builds the monic polynomial z, same verdict as --poly 0,1
    rc, out, err = run_cli(
        capsys, ["classify", "--roots", "0", "--z1", "0,0", "--z2", "1,0"]
    )
    assert rc == 0, err
    assert json.loads(out)["verdict"] == "stable"


def test_classify_complex_coefficient_syntax(capsys):
    rc, out, err = run_cli(
        capsys, ["classify", "--poly", "0,1+0i", "--z1", "0,0", "--z2", "1,0"]
    )
    assert rc == 0, err
    assert json.loads(out)["verdict"] == "stable"


def test_classify_level_mismatch_exits_one(capsys):
    rc, out, err = run_cli(
        capsys, ["classify", "--poly", "0,1", "--z1", "0,0", "--z2", "1,1"]
    )
    assert rc == 1
    assert "LevelMismatch" in err


def test_classify_parse_error_exits_one(capsys):
    rc, out, err = run_cli(
        capsys, ["classify", "--poly", "0,abc", "--z1", "0,0", "--z2", "1,0"]
    )
    assert rc == 1
    assert err.strip()


@pytest.mark.parametrize("argv, expect", [
    (["--poly", "1,,2", "--z1", "0,0"], "argument --poly: empty coefficient"),
    (["--poly", "0,1", "--z1", "1,2,3"], "argument --z1: expected re,im -- got '1,2,3'"),
    (["--poly", "0,1", "--z1", "a,b"], "argument --z1: cannot parse point 'a,b'"),
], ids=["empty-coefficient", "three-part-point", "unparsed-point"])
def test_classify_argument_refusals_exit_one(capsys, argv, expect):
    rc, out, err = run_cli(capsys, ["classify", *argv, "--z2", "1,0"])
    assert rc == 1 and not out
    assert err.rstrip().endswith(expect)


@pytest.mark.parametrize("argv, expect", [
    (["classify", "--poly", "-1,1,0.5", "--z1", "0,0", "--z2", "1,0"], "stable"),
    (["classify", "--poly", "-1j,1", "--z1", "0,0", "--z2", "1,0"], "stable"),
    (["classify", "--roots", "-1,-2", "--z1", "0,0", "--z2", "1,0"], "stable"),
    (["dhym", "--m", "1", "--r", "0", "--xi1", "1", "--xi2", "0", "--b", "1", "--q", "-1e-3"],
     "exists"),
    (["dhym", "--m", "1", "--r", "0", "--xi1", "1", "--xi2", "-4e-1", "--b", "1", "--q", "0"],
     "exists"),
    (["classify", "--poly", "0,1", "--z1", "-1e-3,0", "--z2", "1,0"],
     "error: z1=(-0.001+0j) must have nonnegative real part"),
    (["classify", "--poly", "-i,1", "--z1", "0,0", "--z2", "1,0"], "stable"),
    (["classify", "--poly", "-j,1", "--z1", "0,0", "--z2", "1,0"], "stable"),
    (["classify", "--poly", "0,1", "--z1", "0,0", "--z2", "-inf,0"],
     "error: z1=0j, z2=(-inf+0j) and the coefficients of w must be finite"),
], ids=["poly", "poly-imaginary", "roots", "q-exponent", "xi2-exponent", "z1-exponent",
        "poly-minus-i", "poly-minus-j", "z2-minus-inf"])
def test_negative_values_reach_the_library(capsys, argv, expect):
    # argparse alone reads each of these values as an option and exits 1
    # with "expected one argument" before the library sees the input
    rc, out, err = run_cli(capsys, argv)
    if rc == 0:
        assert json.loads(out)["verdict"] == expect
    else:
        assert err.strip() == expect


@pytest.mark.parametrize(
    "poly, z2", [("0,1", "1,inf"), ("nan,1", "1,0")], ids=["inf_z2", "nan_coefficient"]
)
def test_classify_nonfinite_input_exits_one(capsys, poly, z2):
    rc, out, err = run_cli(capsys, ["classify", "--poly", poly, "--z1", "0,0", "--z2", z2])
    assert rc == 1 and not out
    assert "must be finite" in err and "Traceback" not in err


def test_classify_overflowing_derivative_exits_one(capsys):
    argv = ["classify", "--poly", "0,1e308,1e308", "--z1", "0,0", "--z2", "1e10,0"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1 and not out
    assert "derivative of w overflows" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "flow"])
def test_far_boundary_point_exits_one(capsys, tmp_path, command):
    # z2 = 1e200 is finite, but w(z2) = z2^3 / 3 overflows a double
    argv = [command, "--poly", "0,0,0,0.3333333333333333", "--z1", "0,0", "--z2", "1e200,0"]
    if command == "flow":
        argv += ["--f0", "line", "--out", str(tmp_path / "f.csv")]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1 and not out
    assert "overflows a double" in err and "Traceback" not in err


@pytest.mark.parametrize("c1, expect", [
    ("-1e308", "error: w overflows a double"),
    ("-1e307", "CriticalPointInRHP: critical point at (3.16227766"),
], ids=["-1e308", "-1e307"])
def test_classify_overflow_inside_the_root_solve_exits_one(capsys, c1, expect):
    # w' = z^2 + c1 is finite.  With -1e308 the rounding scale of w at z2
    # overflows first; with -1e307 the root solve finishes and finds the
    # root of w' at +3.16e153, right of the axis
    argv = ["classify", "--poly", f"0,{c1},0,0.3333333333333333", "--z1", "0,0", "--z2", "1,0"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1 and not out
    assert err.startswith(expect) and "Traceback" not in err


def test_classify_half_integer_label(capsys):
    # z2 = 1+i sits exactly on a vertical-tangent arc of w = z^3/3, so its
    # band label is a half-integer and the verdict is unstable.  z1 is the
    # point of the same level curve on the imaginary axis.
    y1 = -(2.0 ** (1.0 / 3.0))
    rc, out, err = run_cli(
        capsys,
        [
            "classify",
            "--poly",
            "0,0,0,0.33333333333333333",
            "--z1",
            "0,%.17g" % y1,
            "--z2",
            "1,1",
        ],
    )
    assert rc == 0, err
    d = json.loads(out)
    assert d["verdict"] == "unstable"
    assert "/" in d["n2"]
    assert d["case"] == "z2_on_boundary"


def test_classify_out_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "verdict.json"
    rc, out, err = run_cli(
        capsys,
        [
            "classify",
            "--poly",
            "0,1",
            "--z1",
            "0,0",
            "--z2",
            "1,0",
            "--out",
            str(target),
        ],
    )
    assert rc == 0, err
    assert target.read_text() == out


# ---------------------------------------------------------------------------
# dhym


def dhym_hand_args():
    return ["dhym", "--m", "1", "--r", "0", "--xi1", "1", "--xi2", "0", "--b", "1", "--q", "0"]


def test_dhym_hand_case(capsys):
    rc, out, err = run_cli(capsys, dhym_hand_args())
    assert rc == 0, err
    d = json.loads(out)
    assert d["verdict"] == "exists"
    assert d["phi_X"] == 0.0
    assert d["phi_Dinf"] == 0.5
    assert d["ind_Rb"] == "0"
    assert d["Z_Dinf"] == [0.0, 2.0]
    assert d["genericity"] == "generic"


def test_dhym_nonfinite_input_exits_one(capsys):
    argv = dhym_hand_args()
    argv[argv.index("--b") + 1] = "inf"
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1 and not out
    assert "must be finite" in err and "Traceback" not in err


def test_dhym_overflowing_class_data_exits_one(capsys):
    # finite class data, but P(z2) ~ b**6 / 6 is far beyond a double
    argv = ["dhym", "--m", "3", "--r", "2", "--xi1", "1", "--xi2", "0", "--b", "1e200", "--q", "0"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1 and not out
    assert "overflow a double" in err and "Traceback" not in err


def test_dhym_nongeneric_no_solution(capsys):
    q = math.sqrt(3.0)
    rc, out, err = run_cli(
        capsys,
        ["dhym", "--m", "1", "--r", "0", "--xi1", "1", "--xi2", "0", "--b", "1", "--q", "%.17g" % q],
    )
    assert rc == 0, err
    d = json.loads(out)
    assert d["verdict"] == "no_solution"
    assert d["genericity"] == "non_generic"


def test_dhym_wall_no_solution(capsys):
    # z2 on a wall, Re w'(z2) = 0: the ray's index is the half crossing 5/2
    argv = ["dhym", "--m", "3", "--r", "0", "--xi1", "0.2", "--xi2", "1.0", "--b", "0.5",
            "--q", "-1.5200270510147045"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0, err
    assert '"ind_Rb":"5/2"' in out
    assert json.loads(out)["verdict"] == "no_solution"


def test_dhym_deterministic_output(capsys):
    rc1, out1, _ = run_cli(capsys, dhym_hand_args())
    rc2, out2, _ = run_cli(capsys, dhym_hand_args())
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_dhym_json_round_trip(capsys):
    rc, out, _ = run_cli(capsys, dhym_hand_args())
    assert rc == 0
    d = json.loads(out)
    assert cli.render_json(d) + "\n" == out


def test_dhym_json_bytes_pinned(capsys):
    # the ChargeReport's fields in declaration order: complex charges as
    # [re, im], indices as strings
    argv = ["dhym", "--m", "1", "--r", "1", "--xi1", "1", "--xi2", "0", "--b", "1", "--q", "0"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0, err
    assert out == (
        '{"theta_hat":0.0,"theta_top":3.1415926535897931,"Theta_lift":0.0,'
        '"Z_X":[0.0,-0.83333333333333326],"Z_Dinf":[2.0,0.0],"Z_P":[0.0,1.0],'
        '"phi_X":-0.5,"phi_Dinf":0.0,"phi_P":0.5,"ind_R0":"0","ind_Rb":"1",'
        '"genericity":"non_generic","verdict":"exists","normalization_note":'
        '"charges reported up to the positive volume normalization fixing the '
        'top intersection number to one; boundary: the grade difference '
        'phi_P - phi_X equals the lower end of the admissible window '
        '(semistable threshold)"}\n'
    )


def test_dhym_witness(capsys):
    rc, out, err = run_cli(capsys, dhym_hand_args() + ["--witness"])
    assert rc == 0, err
    d = json.loads(out)
    assert list(d) == [
        "theta_hat", "theta_top", "Theta_lift", "Z_X", "Z_Dinf", "Z_P",
        "phi_X", "phi_Dinf", "phi_P", "ind_R0", "ind_Rb",
        "genericity", "verdict", "normalization_note", "witness",
    ]
    wit = d["witness"]
    assert list(wit) == ["connected", "graphical", "slope_sup", "curve", "flow"]
    assert list(wit["flow"]) == [
        "stop", "steps", "rejected_steps", "residual_sup", "final_J",
        "membership_min_start", "membership_min_over_run", "heights",
    ]
    assert wit["connected"] is True
    assert wit["graphical"] is True
    curve = wit["curve"]
    assert len(curve) >= 2
    assert curve[0] == pytest.approx([1.0, 0.0], abs=1e-9)
    assert curve[-1] == pytest.approx([0.0, 0.0], abs=1e-6)
    flow = wit["flow"]
    assert flow["residual_sup"] <= 1e-8
    # the chord from f0 already lies on the level curve: no step is taken
    assert flow["steps"] == 0
    assert flow["rejected_steps"] == 0
    assert len(flow["heights"]) >= 2


def test_dhym_witness_flow_reports_J_and_membership(capsys):
    # the flow part reports the final J and the membership minimum at the
    # start and over the run, read from the same flow run_flow records
    from levelgraph.dhym import CalabiInput, build_polynomials
    from levelgraph.kempf_ness import default_sigma, make_grid_function, run_flow

    argv = ["dhym", "--m", "2", "--r", "0", "--xi1", "1", "--xi2", "0", "--b", "1",
            "--q", "0.5", "--witness"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0, err
    flow = json.loads(out)["witness"]["flow"]

    inp = CalabiInput(2, 0, 1.0, 0.0, 1.0, 0.5)
    w = ComplexPolynomial(build_polynomials(inp)[0])
    f0 = make_grid_function(0.0, 1.0, lambda x: 0.5 * x, boundary=(0.0, 0.5))
    trace = run_flow(f0, w, default_sigma(0.0, 1.0, f0.nodes))
    assert flow["steps"] == len(trace.times) - 1 > 0
    assert flow["final_J"] == trace.J_values[-1] < 0.0
    assert flow["membership_min_start"] == trace.membership_min[0]
    assert flow["membership_min_over_run"] == min(trace.membership_min)


def test_dhym_witness_null_when_no_solution(capsys):
    q = math.sqrt(3.0)
    rc, out, err = run_cli(
        capsys,
        [
            "dhym", "--m", "1", "--r", "0", "--xi1", "1", "--xi2", "0",
            "--b", "1", "--q", "%.17g" % q, "--witness",
        ],
    )
    assert rc == 0, err
    assert json.loads(out)["witness"] is None


def test_dhym_witness_flow_null_when_the_flow_raises(capsys):
    # an exists verdict whose flow from the chord diverges: the witness keeps
    # its traced curve and reports the flow as null
    argv = ["dhym", "--m", "8", "--r", "6", "--xi1", "2", "--xi2", "2", "--b", "2.5",
            "--q", "0.5", "--witness"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0, err
    d = json.loads(out)
    assert d["verdict"] == "exists"
    assert len(d["witness"]["curve"]) >= 2
    assert d["witness"]["flow"] is None
    assert '"flow":null' in out


# ---------------------------------------------------------------------------
# trace


def test_trace_level_curve_csv(capsys, tmp_path):
    target = tmp_path / "curve.csv"
    rc, out, err = run_cli(
        capsys,
        [
            "trace",
            "--poly",
            "0,0,0,0.33333333333333333",
            "--kind",
            "c0",
            "--seed",
            "1,0",
            "--out",
            str(target),
        ],
    )
    assert rc == 0, err
    summary = json.loads(out)
    assert summary["points"] >= 2
    assert summary["terminated_by"] in {
        "target", "critical_point", "y_axis", "radius", "step_limit",
    }
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) - 1 == summary["points"]
    # the zero level of Im(z^3) through 1 is the real axis
    for row in lines[1:]:
        x, y = (float(c) for c in row.split(","))
        assert abs(y) <= 1e-6 * (1.0 + abs(x))


@pytest.mark.parametrize("kind", ["c0", "d0"])
def test_trace_far_seed_exits_one(capsys, tmp_path, kind):
    argv = ["trace", "--poly", "0,0,0,0.3333333333333333", "--kind", kind,
            "--seed", "1e300,0", "--out", str(tmp_path / "t.csv")]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1 and not out
    assert "SeedNotOnCurve" in err and "overflows a double" in err


@pytest.mark.parametrize("kind, seed", [("c0", "1,0"), ("d0", "1,1")])
def test_trace_far_radius_exits_one(capsys, tmp_path, kind, seed):
    # a leading coefficient of 1e-200 puts Fujiwara's bound on the roots of w,
    # and with it the derived trace radius, past 1e200, where the corrector
    # tolerance overflows a double
    poly = {"c0": "0,1,1e-200", "d0": "0,0,0,0.3333333333333333,1e-200"}[kind]
    out_file = tmp_path / "t.csv"
    argv = ["trace", "--kind", kind, "--poly", poly, "--seed", seed, "--out", str(out_file)]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1 and not out and not out_file.exists()
    assert "trace radius " in err and "is too large" in err and "Traceback" not in err
    assert "Numerical result" not in err and "(34," not in err


def test_trace_vertical_tangent_csv(capsys, tmp_path):
    target = tmp_path / "d0.csv"
    s = 1.0 / math.sqrt(2.0)
    rc, out, err = run_cli(
        capsys,
        [
            "trace",
            "--poly",
            "0,0,0,0.33333333333333333",
            "--kind",
            "d0",
            "--seed",
            "%.17g,%.17g" % (s, s),
            "--out",
            str(target),
        ],
    )
    assert rc == 0, err
    rows = target.read_text().strip().splitlines()[1:]
    assert len(rows) >= 2
    # Re(z^2) = 0 in the right half-plane with y > 0 is the ray y = x
    for row in rows:
        x, y = (float(c) for c in row.split(","))
        assert abs(x - y) <= 1e-6 * (1.0 + abs(x))


def test_csv_round_trip():
    # the encoder trace writes with, on a traced polyline
    line = trace_level(ComplexPolynomial([0, 0, 0, 1 / 3]), 2.0 + 0j, direction=-1)
    text = cli.render_csv(("re", "im"), ((p.real, p.imag) for p in line.points))
    rows = text.strip().splitlines()
    assert rows[0] == "re,im"
    assert len(rows) == len(line.points) + 1
    first = rows[1].split(",")
    assert complex(float(first[0]), float(first[1])) == line.points[0]


# ---------------------------------------------------------------------------
# flow


def test_flow_fixed_point(capsys, tmp_path):
    # w = z with straight-line data at height zero: f0 is already the
    # solution, so the flow stops immediately with a tiny residual.
    target = tmp_path / "flow.csv"
    rc, out, err = run_cli(
        capsys,
        [
            "flow",
            "--poly",
            "0,1",
            "--z1",
            "1,0",
            "--z2",
            "2,0",
            "--f0",
            "line",
            "--out",
            str(target),
        ],
    )
    assert rc == 0, err
    summary = json.loads(out)
    assert list(summary) == [
        "out", "stop", "steps", "rejected_steps", "final_residual_sup", "final_J",
        "membership_min_start", "membership_min_over_run",
    ]
    assert summary["final_residual_sup"] <= 1e-8
    assert summary["steps"] == 0
    assert summary["rejected_steps"] == 0
    # w' = 1 everywhere: the membership minimum is 1 from start to end
    assert summary["membership_min_start"] == summary["membership_min_over_run"] == 1.0
    assert summary["final_J"] == 0.0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "t,J,residual_sup,membership_min"
    assert len(lines) == 2


def test_flow_from_file_decays(capsys, tmp_path):
    f0_file = tmp_path / "f0.csv"
    rows = ["x,f"]
    for i in range(33):
        x = 1.0 + i / 32.0
        rows.append("%.17g,%.17g" % (x, 0.3 * math.sin(math.pi * (x - 1.0))))
    f0_file.write_text("\n".join(rows) + "\n")

    target = tmp_path / "flow.csv"
    rc, out, err = run_cli(
        capsys,
        [
            "flow",
            "--poly",
            "0,1",
            "--z1",
            "1,0",
            "--z2",
            "2,0",
            "--f0",
            str(f0_file),
            "--out",
            str(target),
        ],
    )
    assert rc == 0, err
    summary = json.loads(out)
    assert summary["final_residual_sup"] < 1e-8

    lines = target.read_text().strip().splitlines()
    data = [[float(c) for c in row.split(",")] for row in lines[1:]]
    assert data[0][1] == 0.0  # J starts at zero by convention
    for prev, cur in zip(data, data[1:]):
        assert cur[1] <= prev[1] + 1e-10


@pytest.mark.parametrize(
    "rows",
    [
        "x,f\n0,0\n1,0.5\n1,-0.5\n2,0\n",
        "x,f\n0,0\n1,0.5\ninf,5\n2,0\n",
        "x,f\n0,0\nfoo,1\n2,0\n",
        "x,f\n1,0.5\n",
        "x,f\n0,0\n1,inf\n2,0\n",
        "x,f\n0,0\n1,nan\n2,0\n",
        "x,f\n0.2,0.5\n0.4,0.5\n",
    ],
    ids=["repeated-x", "infinite-x", "bad-row", "single-sample", "infinite-height",
         "nan-height", "short-range"],
)
def test_flow_rejects_unusable_samples(capsys, tmp_path, rows):
    f0_file = tmp_path / "f0.csv"
    f0_file.write_text(rows)
    target = tmp_path / "flow.csv"
    rc, out, err = run_cli(
        capsys,
        ["flow", "--poly", "0,1", "--z1", "0,0", "--z2", "2,0",
         "--f0", str(f0_file), "--out", str(target)],
    )
    assert rc == 1 and not out
    assert str(f0_file) in err
    assert not target.exists()


def test_flow_header_after_blank_lines(capsys, tmp_path):
    # the header is the first nonblank row, wherever it sits
    outs = []
    for name, head in (("plain", ""), ("blank", "\n\n")):
        f0_file = tmp_path / f"{name}.csv"
        f0_file.write_text(head + "x,f\n0,0\n1,0.5\n2,0\n")
        target = tmp_path / f"{name}-flow.csv"
        rc, out, err = run_cli(
            capsys,
            ["flow", "--poly", "0,1", "--z1", "0,0", "--z2", "2,0",
             "--f0", str(f0_file), "--out", str(target)],
        )
        assert rc == 0, err
        outs.append((json.loads(out)["steps"], target.read_text()))
    assert outs[0] == outs[1]


def test_flow_reports_accepted_and_rejected_steps(capsys, tmp_path):
    # w = z^3/3 from a bump of height 2.625 on [0.5, 4]: the first trial
    # step, one relaxation time 1/max|Re w'| = 1/16, is too long for the
    # error test (error ratio 2.74); the retry, scaled by 0.9 2.74^(-1/2)
    # since the estimate is third order in dt, passes with ratio 0.97, so
    # one trial step is rejected
    f0_file = tmp_path / "f0.csv"
    rows = ["x,f"]
    for i in range(65):
        x = 0.5 + 3.5 * i / 64.0
        rows.append("%.17g,%.17g" % (x, 3.0 * (x - 0.5) * (4.0 - x) / 3.5))
    f0_file.write_text("\n".join(rows) + "\n")

    target = tmp_path / "flow.csv"
    rc, out, err = run_cli(
        capsys,
        [
            "flow", "--poly", "0,0,0,0.3333333333333333", "--z1", "0.5,0", "--z2", "4,0",
            "--f0", str(f0_file), "--out", str(target),
        ],
    )
    assert rc == 0, err
    summary = json.loads(out)
    lines = target.read_text().strip().splitlines()
    assert summary["steps"] == len(lines) - 2  # header and the start row
    assert summary["rejected_steps"] == 1


def test_flow_reports_membership_at_start_and_over_the_run(capsys, tmp_path):
    # w = z^3/3 from the chord of the unstable pair z1 = 1 - i sqrt(3),
    # z2 = 2: the chord starts inside the membership set, and the flow
    # leaves it
    target = tmp_path / "flow.csv"
    rc, out, err = run_cli(
        capsys,
        [
            "flow", "--poly", "0,0,0,0.3333333333333333",
            "--z1", "1,%.17g" % -math.sqrt(3.0), "--z2", "2,0",
            "--f0", "line", "--out", str(target),
        ],
    )
    assert rc == 0, err
    summary = json.loads(out)
    rows = [[float(c) for c in row.split(",")]
            for row in target.read_text().strip().splitlines()[1:]]
    membership = [row[3] for row in rows]
    assert summary["membership_min_start"] == membership[0] > 0.0
    assert summary["membership_min_over_run"] == min(membership) < 0.0
    assert summary["final_J"] == rows[-1][1]


def test_flow_level_mismatch(capsys, tmp_path):
    rc, out, err = run_cli(
        capsys,
        [
            "flow",
            "--poly",
            "0,1",
            "--z1",
            "1,0",
            "--z2",
            "2,1",
            "--f0",
            "line",
            "--out",
            str(tmp_path / "x.csv"),
        ],
    )
    assert rc == 1
    assert "LevelMismatch" in err


def test_flow_trace_csv(monkeypatch):
    # the encoder flow writes with, on a recorded flow
    nodes = gauss_interior_nodes(1.0, 2.0, 257)
    sigma = default_sigma(1.0, 2.0, nodes)
    f0 = GridFunction(1.0, 2.0, nodes, sigma.values.copy(), (0.0, 0.0))
    monkeypatch.setattr(kempf_ness, "_T_MAX", 0.5)
    trace = run_flow(f0, ComplexPolynomial([0, 1]), sigma, stop_tol=1e-12)
    columns = zip(trace.times, trace.J_values, trace.residual_sup, trace.membership_min)
    rows = cli.render_csv(("t", "J", "residual_sup", "membership_min"),
                          columns).strip().splitlines()
    assert rows[0] == "t,J,residual_sup,membership_min"
    assert len(rows) == len(trace.times) + 1
    cells = rows[1].split(",")
    assert float(cells[0]) == trace.times[0]
    assert float(cells[3]) == trace.membership_min[0]


# ---------------------------------------------------------------------------
# no config file


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_config_option_rejected(capsys, tmp_path, monkeypatch, before):
    # the CLI takes no config file: --config is an unknown option on either
    # side of the subcommand, and the run neither prints nor writes anything
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text("{}\n")
    config = ["--config", "cfg.json"]
    command = ["classify", "--poly", "0,1", "--z1", "0,0", "--z2", "1,0", "--out", "v.json"]
    argv = config + command if before else command[:1] + config + command[1:]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1 and not out and "cfg.json" in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# ---------------------------------------------------------------------------
# process-level entry


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "levelgraph.cli"] + dhym_hand_args(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    d = json.loads(proc.stdout)
    assert d["verdict"] == "exists"
    assert d["phi_Dinf"] == 0.5


def test_module_guard_runs_main_in_process(capsys, monkeypatch):
    # the same entry as python -m levelgraph.cli, run in this process: the
    # __main__ guard exits with main's status
    monkeypatch.setattr(sys, "argv", ["levelgraph"] + dhym_hand_args())
    with warnings.catch_warnings():
        # levelgraph.cli is imported already, and runpy runs a fresh copy
        warnings.filterwarnings("ignore", "'levelgraph.cli' found in sys.modules",
                                RuntimeWarning)
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("levelgraph.cli", run_name="__main__")
    assert exit_.value.code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "exists"


def test_float_rendering_is_seventeen_digit():
    assert cli.render_json(0.5) == "0.5"
    assert cli.render_json(0.0) == "0.0"
    assert cli.render_json(1.0 / 3.0) == "0.33333333333333331"
    third = json.loads(cli.render_json(1.0 / 3.0))
    assert third == 1.0 / 3.0
    assert cli.render_json({"a": [1, True, None]}) == '{"a":[1,true,null]}'
    assert cli.render_json([False]) == "[false]"


@pytest.mark.parametrize("obj, error, match", [
    (math.nan, ValueError, "cannot render non-finite float nan"),
    (-math.inf, ValueError, "cannot render non-finite float -inf"),
    ({"a": {1, 2}}, TypeError, "cannot render set as JSON"),
], ids=["nan", "minus-inf", "set"])
def test_render_json_refuses_what_json_cannot_hold(obj, error, match):
    with pytest.raises(error, match=match):
        cli.render_json(obj)
