"""The checking tools in tools/ run clean on a few benchmark inputs."""

import importlib.util
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
