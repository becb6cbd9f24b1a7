"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test run.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_workloads_match_spec():
    assert WORKLOADS == list(bench.BUILDERS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_the_spec_metrics(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
    assert detail["seed"] == 3 and detail["argv"]
    env = detail["environment"]
    assert all(1 <= n <= env["nproc"] for n in env["child_threads"].values())
    if trace:
        assert detail["unmeasured"] == []
        assert detail["iterations"]["traced"] >= 1 and detail["iterations"]["untraced"] >= 1


def _perturb_value(out: Path):
    for csv in out.glob("*.csv"):
        lines = csv.read_text(encoding="utf-8").splitlines()
        fields = lines[3].split(",")
        fields[2] = repr(float(fields[2]) * 1.001 + 1e-3)
        lines[3] = ",".join(fields)
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _truncate(out: Path):
    for csv in out.glob("*.csv"):
        lines = csv.read_text(encoding="utf-8").splitlines()
        csv.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")


@pytest.mark.parametrize("tamper", [_perturb_value, _truncate])
def test_corrupted_csv_counts_as_failed(tamper):
    names = [m["name"] for m in SPEC["per_layer"]]
    detail, metrics = bench.run("modesum-long", 5, 0.0, False, True, names, tamper=tamper)
    assert detail["attempted"] == 2
    assert detail["failed"] == 2 and detail["fail_ratio"] == 1.0
    assert metrics["ok_ratio"] == 0.0
    assert all(e.startswith("check failed") for e in detail["errors"])


def test_missing_layer_function_is_reported_not_fatal(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import qbmlab.cli
    import tracer

    layers = dict(tracer.LAYERS, gone=[("qbmlab.model", "no_such_function")])
    monkeypatch.setattr(tracer, "LAYERS", layers)
    t = tracer.Tracer()
    main = t.install(qbmlab.cli)
    try:
        assert t.missing == ["gone:qbmlab.model.no_such_function"]
        assert callable(main)
    finally:
        for module in list(sys.modules):
            if module.startswith("qbmlab"):
                del sys.modules[module]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = run_bench("--workload", "solve-large", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
