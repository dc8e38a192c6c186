"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 perfbench/smoke.py

Each workload runs for one second untraced and traced.  The result line
must carry every metric of BENCHMARK.json with its unit, report correct
outputs and no failed operation (ops_failed_ratio == 0).  The runner must
also refuse, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_SECONDS = "1"


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", SMOKE_SECONDS, "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_problems(proc: subprocess.CompletedProcess, listed) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    expected = {m["name"]: m["unit"] for m in listed}
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if units != expected:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(units.items()) ^ set(expected.items()))}")
    bad = [name for name, m in result["metrics"].items() if not math.isfinite(m["value"])]
    if bad:
        problems.append(f"non-finite values: {bad}")
    if not result["correct"] or result["attempted"] < 1 or result["failed"] != 0:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    return problems


def bare_directory_problems(spec) -> list[str]:
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"runner without sources exited {proc.returncode} and printed {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload['name']} --trace {trace}"
            problems = result_problems(run(ROOT, workload["name"], trace), listed)
            failures += [f"{label}: {p}" for p in problems]
            print(f"{'FAIL' if problems else 'ok'} {label}")
    problems = bare_directory_problems(spec)
    failures += problems
    print(f"{'FAIL' if problems else 'ok'} refuses to run without sources")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
