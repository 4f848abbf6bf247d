"""Command-line surface: frozen examples, JSON determinism, CSV outputs.

Everything runs main() in-process with capsys so the suite stays fast; one
test goes through a real subprocess to prove the installed entry point works.
"""

import json
import math
import subprocess
import sys

import pytest

from levelgraph import cli


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


def test_dhym_witness(capsys):
    rc, out, err = run_cli(capsys, dhym_hand_args() + ["--witness"])
    assert rc == 0, err
    d = json.loads(out)
    wit = d["witness"]
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
        "target", "critical_point", "y_axis", "radius", "closed_loop", "step_limit",
    }
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) - 1 == summary["points"]
    # the zero level of Im(z^3) through 1 is the real axis
    for row in lines[1:]:
        x, y = (float(c) for c in row.split(","))
        assert abs(y) <= 1e-6 * (1.0 + abs(x))


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
    assert summary["final_residual_sup"] <= 1e-8
    assert summary["steps"] == 0
    assert summary["rejected_steps"] == 0
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


def test_flow_reports_accepted_and_rejected_steps(capsys, tmp_path):
    # w = z^3/3 from a bump of height 0.875 on [0.5, 4]: the first trial
    # step, one relaxation time 1/max|Re w'| = 1/16, is too long for the
    # error test, which rejects three trial steps (error ratios 3, 1.48 and
    # 1.01) before the first is accepted
    f0_file = tmp_path / "f0.csv"
    rows = ["x,f"]
    for i in range(65):
        x = 0.5 + 3.5 * i / 64.0
        rows.append("%.17g,%.17g" % (x, (x - 0.5) * (4.0 - x) / 3.5))
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
    assert summary["rejected_steps"] == 3


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


# ---------------------------------------------------------------------------
# config file


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"stop_tol": 1e-9, "bogus": 3}\n')
    rc, out, err = run_cli(
        capsys,
        ["classify", "--config", str(cfg), "--poly", "0,1", "--z1", "0,0", "--z2", "1,0"],
    )
    assert rc == 1
    assert "bogus" in err


def _with_config(cfg, before):
    # classify w = z with --config before or after the subcommand
    opt = ["--config", str(cfg)]
    rest = ["--poly", "0,1", "--z1", "0,0", "--z2", "1,0"]
    return opt + ["classify"] + rest if before else ["classify"] + opt + rest


def test_config_before_subcommand_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"stop_tol": 1e-9, "bogus": 3}\n')
    rc, out, err = run_cli(capsys, _with_config(cfg, before=True))
    assert rc == 1
    assert "bogus" in err


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_config_out_path_applied_in_either_position(capsys, tmp_path, before):
    target = tmp_path / "verdict.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_path": str(target)}) + "\n")
    rc, out, err = run_cli(capsys, _with_config(cfg, before))
    assert rc == 0, err
    assert target.read_text() == out


def test_config_applied(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"stop_tol": 1e-9, "grid_nodes": 65}\n')
    rc, out, err = run_cli(
        capsys,
        ["classify", "--config", str(cfg), "--poly", "0,1", "--z1", "0,0", "--z2", "1,0"],
    )
    assert rc == 0, err
    assert json.loads(out)["verdict"] == "stable"


# ---------------------------------------------------------------------------
# selfcheck and process-level entry


def test_selfcheck_passes(capsys):
    rc, out, err = run_cli(capsys, ["selfcheck"])
    assert rc == 0, err + out
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert len(lines) >= 6
    assert all(ln.startswith("ok ") for ln in lines)


def test_selfcheck_passes_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "levelgraph.cli", "selfcheck"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.split()
    assert lines.count("ok") == 10, proc.stdout


def test_selfcheck_failure_exits_one_under_optimize():
    # a broken index must still fail the battery when asserts are stripped
    script = (
        "import sys\n"
        "from levelgraph import cli\n"
        "from levelgraph.cauchy import HalfInteger\n"
        "cli.index_on_interval = lambda *args: HalfInteger(0)\n"
        "sys.exit(cli.main(['selfcheck']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL index_hand_case_and_additivity" in proc.stdout


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


def test_float_rendering_is_seventeen_digit():
    assert cli.render_json(0.5) == "0.5"
    assert cli.render_json(0.0) == "0.0"
    assert cli.render_json(1.0 / 3.0) == "0.33333333333333331"
    third = json.loads(cli.render_json(1.0 / 3.0))
    assert third == 1.0 / 3.0
    assert cli.render_json({"a": [1, True, None]}) == '{"a":[1,true,null]}'
