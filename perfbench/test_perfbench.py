"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the repo root."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"metric {m['name']} = " in proc.stdout


def test_corrupted_output_is_counted_as_failed(monkeypatch):
    tensorio = sys.modules["evholo.tensorio"]
    real = tensorio.write_tensor

    def corrupt(arr):
        out = bytearray(real(arr))
        out[-1] ^= 0xFF
        return bytes(out)

    monkeypatch.setattr(tensorio, "write_tensor", corrupt)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", "hevs_encode_1m", "--seed", "1", "--seconds", "0.2",
                         "--trace", "0", "--tiny"])
    assert code == 0
    result = _result(stdout.getvalue())
    # every operation and every CLI run (compared with the corrupted in-process bytes) fails
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert "metric failed_ops = 1 ratio" in stdout.getvalue()


def test_inputs_depend_only_on_the_seed(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    for cls in WORKLOADS.values():
        same = cls(5, True, a).digests == cls(5, True, b).digests
        assert same and cls(6, True, c).digests != cls(5, True, a).digests


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hevs_encode_1m", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
