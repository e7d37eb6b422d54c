"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Asserts, for every workload at seed ``SEED`` with ``SECONDS``-second runs:

* two same-seed runs give identical simulated metrics
  (``sim_us_geomean``, ``yhccl_speedup_geomean``, ``sim_error_vs_paper``);
* two same-seed traced runs give identical deterministic per-layer
  counts (:data:`tracing.DETERMINISTIC`);
* every run is correct, and ``sim_error_vs_paper`` is identical on all
  workloads (each reaches the paper anchors through its own path);
* no run reads or writes ``benchmarks/results/`` (its listing, sizes
  and modification times are unchanged, and no run creates it);
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``
  the benchmark exits non-zero without printing a result.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_sweep", "warm_serve", "verify_functional")
SIMULATED = ("sim_us_geomean", "yhccl_speedup_geomean", "sim_error_vs_paper")
SEED = 11
SECONDS = 1.0


def snapshot(path: Path):
    """Listing with sizes and mtimes, or ``None`` when absent."""
    if not path.exists():
        return None
    return sorted((str(p.relative_to(path)), p.stat().st_size,
                   p.stat().st_mtime_ns) for p in path.rglob("*"))


def run(workload: str, seed: int, seconds: float, trace: int,
        cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run failed ({proc.returncode}):\n"
                             f"{proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if not doc["correct"] or doc["failed"]:
        raise AssertionError(f"incorrect run:\n{proc.stderr[-2000:]}")
    return {k: v["value"] for k, v in doc["metrics"].items()}


def main() -> int:
    sys.path.insert(0, str(HERE))
    from tracing import DETERMINISTIC

    results_dir = ROOT / "benchmarks" / "results"
    before = snapshot(results_dir)
    problems = []
    paper_error = {}
    for wl in WORKLOADS:
        plain = [result(run(wl, SEED, SECONDS, 0))
                 for _ in range(2)]
        traced = [result(run(wl, SEED, SECONDS, 1))
                  for _ in range(2)]
        for name in SIMULATED:
            if plain[0][name] != plain[1][name]:
                problems.append(f"{wl}: {name} differs between same-seed "
                                f"runs: {plain[0][name]} vs {plain[1][name]}")
        for name in DETERMINISTIC:
            if traced[0][name] != traced[1][name]:
                problems.append(f"{wl}: {name} differs between same-seed "
                                f"traced runs: {traced[0][name]} vs "
                                f"{traced[1][name]}")
        paper_error[wl] = plain[0]["sim_error_vs_paper"]
        print(f"selftest: {wl}: simulated metrics and deterministic "
              "counts compared", flush=True)
    if len(set(paper_error.values())) != 1:
        problems.append(f"sim_error_vs_paper differs by workload: "
                        f"{paper_error}")
    if snapshot(results_dir) != before:
        problems.append("a run touched benchmarks/results/")

    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(WORKLOADS[0], SEED, SECONDS, 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip().startswith("{") \
                or '"correct"' in proc.stdout:
            problems.append("benchmark without sources did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"selftest: FAIL {p}")
    if not problems:
        print("selftest: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
