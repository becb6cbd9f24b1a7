"""Closed-loop measurement of qbmlab CLI commands.

A single client runs the workload's commands one after another, each in a
fresh interpreter started through ``launch.py``, until the run's time is
used up; one pass over the commands is an iteration.  End-to-end metrics
are medians over iterations of per-iteration sums (the peak resident set is
a maximum), measured with tracing off.  A traced run alternates traced and
untraced iterations, so tracing overhead comes from the same run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from workloads import BUILDERS, CheckError, Command, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
COMMAND_TIMEOUT = 120.0   # seconds before a hung command is killed and counted as failed
TRACEBACK = "Traceback (most recent call last)"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "QBM_THREADS")

# function -> (self-time metric, work-count metric); the rest of the
# per-layer metrics are rates, peaks and totals derived from these
SPAN_METRICS = {
    "paper_default_model": ("model.self_s", None),
    "load_model": ("model.self_s", None),
    "lorentzian_density": ("model.self_s", None),
    "validate_dissipation": ("model.self_s", None),
    "solve_normal_modes": ("eigensolve.self_s", "eigensolve.roots"),
    "evolve_series": ("dynamics.self_s", "dynamics.mode_samples"),
    "langevin_table": ("langevin.self_s", "langevin.mode_samples"),
    "analyze": ("recurrence.self_s", "recurrence.samples"),
    "poincare_time": ("recurrence.self_s", None),
    "pole_estimate": ("continuum.pole_s", None),
    "validate_continuum": ("continuum.pole_s", None),
    "build_weight_table": ("continuum.weight_table_s", "continuum.nodes"),
    "survival_amplitude_continuum": ("continuum.survival_sum_s", None),
    "main": ("cli.self_s", None),
}
CALL_COUNTS = {"model": "model.calls", "recurrence": "recurrence.calls"}
RATES = {
    "eigensolve.roots_per_s": ("eigensolve.roots", "eigensolve.self_s"),
    "dynamics.mode_samples_per_s": ("dynamics.mode_samples", "dynamics.self_s"),
    "langevin.mode_samples_per_s": ("langevin.mode_samples", "langevin.self_s"),
    "continuum.node_samples_per_s": ("continuum.node_samples", "continuum.survival_sum_s"),
}


@dataclass
class Sample:
    """One command run as the parent saw it."""

    wall: float
    setup: float
    cpu: float
    rss_mb: float
    bytes_written: int
    error: str | None
    report: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({name: str(threads) for name in THREAD_VARS})
    return env


def run_command(cmd: Command, out: Path, env: dict, traced: bool, tamper=None) -> Sample:
    """Launch one command, wait for it, and check what it wrote.

    ``tamper(out)``, when given, runs between the command's exit and the
    check; the self-tests use it to corrupt an output on purpose.
    """
    out.mkdir(parents=True)
    report_path = out.with_name(out.name + ".launch.json")
    stderr_path = out.with_name(out.name + ".stderr")
    argv = [sys.executable, str(HERE / "launch.py"), str(report_path), "1" if traced else "0",
            "--", *cmd.argv, "--out-dir", str(out), "--prefix", cmd.prefix]
    with open(stderr_path, "w", encoding="utf-8") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)

    errors = []
    if proc.returncode != 0:
        errors.append(f"exit code {proc.returncode}")
    stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
    if TRACEBACK in stderr:
        errors.append("traceback on stderr: " + stderr.strip().splitlines()[-1][:200])
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = {}
        errors.append("launcher wrote no readable report")
    else:
        if not Path(report["qbmlab"]).resolve().is_relative_to(SRC):
            errors.append(f"qbmlab imported from {report['qbmlab']}, not from {SRC}")
    if not errors:
        if tamper is not None:
            tamper(out)
        try:
            cmd.check(out)
        except CheckError as exc:
            errors.append(f"check failed: {exc}")
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            errors.append(f"check failed: {type(exc).__name__}: {exc}")
    written = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    shutil.rmtree(out)
    return Sample(
        wall=wall,
        setup=report["ready"] - start if "ready" in report else math.nan,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        bytes_written=written,
        error="; ".join(errors) or None,
        report=report,
    )


def per_iteration(iterations: list[list[Sample]]) -> dict[str, list[float]]:
    """The end-to-end samples: one value per iteration."""
    return {
        "wall_s": [sum(s.wall for s in it) for it in iterations],
        "setup_s": [sum(s.setup for s in it) for it in iterations],
        "cpu_s": [sum(s.cpu for s in it) for it in iterations],
        "peak_rss_mb": [max(s.rss_mb for s in it) for it in iterations],
    }


def end_to_end(iterations: list[list[Sample]]) -> dict[str, float]:
    samples = [s for it in iterations for s in it]
    failed = sum(not s.ok for s in samples)
    metrics = {name: median(values) for name, values in per_iteration(iterations).items()}
    metrics["ok_ratio"] = (len(samples) - failed) / len(samples)
    return metrics


def layer_values(iteration: list[Sample]) -> tuple[dict[str, float], list[dict]]:
    """Per-layer totals of one traced iteration, and its spans for the trace file."""
    m: dict[str, float] = defaultdict(float)
    spans_out = []
    for run, sample in enumerate(iteration):
        spans = sample.report.get("spans", [])
        children = defaultdict(list)
        for k, span in enumerate(spans):
            if span[4] is not None:
                children[span[4]].append(k)
        for k, (name, layer, start, end, parent, count, peak) in enumerate(spans):
            own = (end - start) - sum(spans[c][3] - spans[c][2] for c in children[k])
            time_key, count_key = SPAN_METRICS[name]
            m[time_key] += own
            if count_key is not None and count is not None:
                m[count_key] += count
            if layer in CALL_COUNTS:
                m[CALL_COUNTS[layer]] += 1
            if peak is not None:
                key = f"{layer}.peak_alloc_mb"
                m[key] = max(m[key], peak / 2**20)
            if name == "survival_amplitude_continuum" and count is not None:
                nodes = sum(spans[c][5] or 0 for c in children[k]
                            if spans[c][0] == "build_weight_table")
                m["continuum.node_samples"] += count * nodes
            if name == "main":
                m["accounted"] += end - start
            spans_out.append({"run": run, "name": name, "layer": layer, "start": start,
                              "end": end, "parent": parent, "count": count,
                              "peak_bytes": peak})
        m["setup.import_s"] += sample.setup
        m["cli.bytes_written"] += sample.bytes_written
        m["wall"] += sample.wall
    for rate, (num, den) in RATES.items():
        m[rate] = m[num] / m[den] if m[den] > 0 else 0.0
    m["trace.unaccounted_share"] = 1.0 - (m["setup.import_s"] + m["accounted"]) / m["wall"]
    return m, spans_out


def per_layer(traced: list[list[Sample]], untraced: list[list[Sample]], names: list[str]):
    values = []
    spans = []
    for i, it in enumerate(traced):
        m, s = layer_values(it)
        values.append(m)
        spans += [dict(span, iteration=i) for span in s]
    missing = sorted({name for it in traced for s in it for name in s.report.get("missing", [])})
    out = {name: median(v.get(name, 0.0) for v in values) for name in names}
    out["trace.overhead_s"] = (median(v["wall"] for v in values)
                               - median(per_iteration(untraced)["wall_s"]))
    out["trace.unmeasured_layers"] = float(len({m.split(":")[0] for m in missing}))
    return out, spans, missing


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(threads: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "child_threads": {name: threads for name in THREAD_VARS},
    }


def measure(workload: Workload, seconds: float, trace: bool, env: dict, work: Path,
            tamper=None) -> tuple[list[list[Sample]], list[list[Sample]]]:
    """Run iterations until ``seconds`` have passed; return (traced, untraced)."""
    traced, untraced = [], []
    start = time.monotonic()
    i = 0
    while True:
        on = trace and i % 2 == 0
        it = [run_command(cmd, work / f"i{i}c{j}", env, on, tamper)
              for j, cmd in enumerate(workload.commands)]
        (traced if on else untraced).append(it)
        i += 1
        if time.monotonic() - start >= seconds and (untraced and (traced or not trace)):
            return traced, untraced


def warm_up(env: dict) -> None:
    """Compile the package's bytecode and load its libraries once, untimed."""
    subprocess.run([sys.executable, "-c", "import qbmlab.cli"], env=env, cwd=ROOT,
                   check=True, timeout=COMMAND_TIMEOUT)


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        per_layer_names: list[str], tamper=None) -> tuple[dict, dict[str, float]]:
    """Measure one workload; return its detail record and its metrics."""
    threads = nproc()
    env = child_env(threads)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work.mkdir()
    try:
        setup_start = time.monotonic()
        workload = BUILDERS[name](seed, work, smoke)
        reference_s = time.monotonic() - setup_start
        warm_up(env)
        traced, untraced = measure(workload, seconds, trace, env, work, tamper)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = [s for it in traced + untraced for s in it]
    failed = sum(not s.ok for s in samples)
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "argv": [["qbmlab", *(os.path.relpath(a, ROOT) if a.startswith(str(ROOT)) else a
                              for a in cmd.argv)] for cmd in workload.commands],
        "inputs": workload.inputs,
        "environment": environment(threads),
        "client": "closed loop, 1 client, commands run one after another",
        "reference_s": reference_s,
        "iterations": {"traced": len(traced), "untraced": len(untraced)},
        "samples": per_iteration(untraced),
        "errors": [s.error for s in samples if not s.ok][:10],
        # children inherit this high-water mark, so it must stay below theirs
        "benchmark_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        metrics, spans, missing = per_layer(traced, untraced, per_layer_names)
        detail["unmeasured"] = missing
        detail["end_to_end_untraced"] = end_to_end(untraced)
        trace_file = WORK / f"trace-{name}-seed{seed}.json"
        trace_file.write_text(json.dumps({"spans": spans, "metrics": metrics}), encoding="utf-8")
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = end_to_end(untraced)
    detail["attempted"] = len(samples)
    detail["failed"] = failed
    detail["fail_ratio"] = failed / len(samples)
    return detail, metrics
