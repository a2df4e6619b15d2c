"""Self-test of the benchmark: every workload at tiny sizes, untraced and traced.

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that each run exits 0 with a correct
result object, that it emits every metric BENCHMARK.json names with its unit,
that the traced runs together record spans in every layer, and that the
benchmark refuses to run in a directory holding only itself. Exits 1 and
lists the problems when any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(argv: list, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_run(workload: str, trace: int, bench: dict, problems: list) -> set:
    """Run one tiny workload; returns the layers its spans reached."""
    where = f"{workload} trace={trace}"
    proc = run(["--workload", workload, "--seed", "0", "--seconds", "2", "--trace", str(trace),
                "--scale", "tiny"], ROOT)
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}")
        return set()
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    record, result = json.loads(record_line), json.loads(result_line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: failed operations {record['failures']}")
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {[n for n in want if n in got and got[n] != want[n]]}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} is {m['value']!r}")
    return set(record.get("layers_seen", ()))


def check_bare(problems: list) -> None:
    """Without the package next to it, the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(["--workload", "estimate", "--seed", "0", "--seconds", "2", "--trace", "0"],
                   bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list = []
    seen: set = set()
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            seen |= check_run(workload, trace, bench, problems)
    missing = set(tracing.LAYERS) - seen
    if missing:
        problems.append(f"no spans in layers {sorted(missing)}")
    check_bare(problems)
    for problem in problems:
        print(problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
