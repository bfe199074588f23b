"""Smoke tests of the benchmark itself: ``python3 -m pytest -q perfbench/check_smoke.py``.

Every workload runs in ``--smoke`` mode (tiny populations, a couple of
seconds) untraced and traced.  The checks: the last stdout line carries
exactly the metrics ``BENCHMARK.json`` names, each with its unit; the
correctness gate ran; the gate rejects a wrong answer; and the command
fails without printing a result where there is no program under test.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload: str, trace: int) -> None:
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] != 0, metric["name"]
    checked = [line for line in done.stdout.splitlines() if line.strip().startswith("gate:")]
    assert checked
    if workload != "train":
        assert int(checked[0].split()[1]) > 0, "the correctness gate compared nothing"


def test_gate_rejects_a_wrong_answer() -> None:
    import gate
    from run import SMOKE, ensure_bundle

    bundle = ensure_bundle(SMOKE)
    served = gate.replay(bundle, [], refresh_each=False)
    assert gate.check_state(bundle, [], served.tolist(), refresh_each=False) == len(served)
    served[3, 1] = np.nextafter(served[3, 1], np.inf)
    with pytest.raises(gate.GateError):
        gate.check_state(bundle, [], served.tolist(), refresh_each=False)
    request = {"node": 5}
    label = int(np.argmax(served[5]))
    wrong = json.dumps({"result": (label + 1) % served.shape[1]}).encode()
    with pytest.raises(gate.GateError):
        gate.check_reads(bundle, [(request, wrong)])


def test_fails_without_a_program_under_test(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("read", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
