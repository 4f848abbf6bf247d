"""The checking tools in tools/ run clean on a few benchmark inputs."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def _run(*args):
    proc = subprocess.run([sys.executable, *map(str, args)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


@pytest.mark.parametrize("workload", ["verdicts", "dhym-sweep"])
def test_label_margins_agree_with_the_exact_chain(workload):
    out = _run(TOOLS / "label_margins.py", "--workload", workload, "--count", "40", "1")
    assert out.startswith("seed 1: 80 ")
    assert "0 disagree, 0 raised" in out


def test_compare_answers_dumps_each_root_solve_as_terms_and_a_flag():
    out = _run(TOOLS / "compare_answers.py", "--dump", ROOT / "src", "--workload", "roots",
               "--seed", "1", "--count", "20")
    answers = [json.loads(line) for line in out.splitlines()]
    assert len(answers) == 20
    for fields in answers:
        # (terms, certified), each term (location, multiplicity, radius)
        assert fields["out.len"] == "2" and fields["out[1]"] in ("True", "False")
        terms = int(fields["out[0].len"])
        assert terms >= 1
        assert all(fields[f"out[0][{i}].len"] == "3" for i in range(terms))


def test_planted_heights_are_all_found():
    out = _run(TOOLS / "planted_heights.py", ROOT, "1")
    assert "0 missed, 0 raised" in out


def test_label_margins_lets_an_exact_chain_error_through(monkeypatch):
    # an input whose label raises is counted; the chain raising on a
    # certified label is a fault of the chain, and stops the check
    spec = importlib.util.spec_from_file_location("label_margins", TOOLS / "label_margins.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from levelgraph import landscape

    def broken(*args):
        raise RuntimeError("broken chain")

    monkeypatch.setattr(landscape, "_exact_index", broken)
    with pytest.raises(RuntimeError, match="broken chain"):
        tool.check_verdicts(1, 2)



def test_cold_start_times_every_case_on_both_sides():
    out = _run(TOOLS / "cold_start.py", ROOT, ROOT, "--runs", "1").splitlines()
    names = ["classify", "trace", "flow", "dhym", "dhym --witness",
             "probe setup verdicts", "probe setup dhym-sweep", "probe setup witness"]
    assert [(line[:24].rstrip(), line[24:].split()[0]) for line in out] == [
        (n, side) for n in names for side in ("parent", "change")]
    loaded = {line[:24].rstrip(): re.search(r"numpy (loaded|not loaded)", line)[1]
              for line in out}
    # a dHYM verdict needs no numpy; a flow does
    assert loaded["dhym"] == loaded["probe setup dhym-sweep"] == "not loaded"
    assert loaded["flow"] == loaded["probe setup witness"] == "loaded"
    assert all(re.search(r"ratio \d", line) for line in out[1::2])


def test_op_timer_reports_each_pair_and_a_summary():
    out = _run(TOOLS / "op_timer.py", ROOT, ROOT, "--workload", "dhym-sweep", "--seed", "1",
               "--pairs", "1", "--count", "20").splitlines()
    assert len(out) == 2
    pair = re.fullmatch(r"pair 1  parent (\S+) us/op \((\d+) raised\)  "
                        r"change (\S+) us/op \((\d+) raised\)  ratio (\S+)", out[0])
    assert pair is not None, out[0]
    parent, change = float(pair[1]), float(pair[3])
    assert parent > 0 and change > 0
    # both sides run the same code on the same inputs
    assert pair[2] == pair[4]
    assert float(pair[5]) == pytest.approx(change / parent, abs=2e-3)
    summary = re.fullmatch(r"dhym-sweep seed 1, 20 inputs, 15 passes: "
                           r"parent median (\S+) us/op \(IQR (\S+)-(\S+)\), "
                           r"change median (\S+) us/op \(IQR (\S+)-(\S+)\), ratio (\S+), "
                           r"change faster in ([01]) of 1 pairs", out[1])
    assert summary is not None, out[1]
    # one pair: each side's median and quartiles are its one time
    assert [float(v) for v in summary.groups()[:6]] == [float(pair[1])] * 3 + [float(pair[3])] * 3


def test_bench_record_appends_one_entry_per_run(tmp_path):
    # two short runs of one seed: the file is made by the first and
    # appended to by the second, each entry with both metric levels
    for _ in range(2):
        _run(TOOLS / "bench_record.py", "--workload", "dhym-sweep", "--seeds", "1",
             "--seconds", "0.1", "--out-dir", tmp_path)
    data = json.loads((tmp_path / "BENCH_dhym-sweep.json").read_text())
    assert data["workload"] == "dhym-sweep" and len(data["entries"]) == 2
    dead = ("landscape.on_axis_critical_points.calls_per_op",
            "landscape.validate_no_rhp_critical_points.calls_per_op")
    assert sorted(data["notes"]) == sorted(dead)
    for entry in data["entries"]:
        assert entry["seeds"] == [1] and entry["runs"][0]["seed"] == 1
        assert entry["runs"][0]["attempted"] >= 100
        assert set(entry["end_to_end"]) == {"ops_per_s", "op_p50_ms", "op_p90_ms",
                                            "setup_s", "peak_rss_mb"}
        assert entry["end_to_end"]["ops_per_s"]["median"] > 0
        assert entry["per_layer"]["dhym.compute_lifts.self_ms_per_op"]["unit"] == "ms/op"
        for name in dead:
            assert entry["per_layer"][name]["median"] == 0.0
        # one seed: each median is its quartiles
        assert all(m["q1"] == m["median"] == m["q3"]
                   for m in {**entry["end_to_end"], **entry["per_layer"]}.values())
    assert data["entries"][0]["src_tree"] == data["entries"][1]["src_tree"]
