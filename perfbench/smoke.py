"""Fast smoke test of the benchmark itself (about 10 s).

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload at toy size (tiny grids, a few steps), untraced and
traced, through ``run.py`` as a benchmark harness would.  It checks that
the result line has exactly the contract's keys, that every metric named
in BENCHMARK.json is emitted with its unit, that the correctness checks
pass, and that the traced run finds every non-optional wrapped function
called at least once on the workload meant to exercise it.  Last, it
checks that ``run.py`` fails, without a result, in a directory holding
only BENCHMARK.json and the benchmark's own files.  Exits 1 on any
failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from report import ROOT, run_cli
from run import temp_dir
from tracing import COUNTS, SPANS

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_workload(workload: str, spec: dict) -> list[str]:
    problems = []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        out = run_cli(workload, seed=1, seconds=0, trace=trace, size="toy")
        res = out["result"]
        where = f"{workload} (trace {int(trace)})"
        if set(res) != RESULT_KEYS:
            problems.append(f"{where}: result keys {sorted(res)}")
        if res["failed"] or res["attempted"] < 1:
            problems.append(f"{where}: {res['failed']} of {res['attempted']} checks failed")
        expected = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m.get("unit") for name, m in res["metrics"].items()}
        if got != expected:
            problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                            f"missing {sorted(set(expected) - set(got))}, "
                            f"extra {sorted(set(got) - set(expected))}, "
                            f"unit mismatch {sorted(n for n in got if n in expected and got[n] != expected[n])}")
        for name, m in res["metrics"].items():
            if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
                problems.append(f"{where}: {name} has no numeric value")
        if trace:
            table = out["trace"]["table"]
            for module, attr, name, exercised_by, optional in SPANS:
                if exercised_by == workload and not optional and table.get(name, {}).get("calls", 0) < 1:
                    problems.append(f"{where}: {module}.{attr} was never called")
            for module, attr, name, exercised_by, _ in COUNTS:
                absent = f"{module}.{attr}" in out["trace"]["absent"]
                if exercised_by == workload and not absent and out["trace"]["counts"].get(name, 0) < 1:
                    problems.append(f"{where}: {module}.{attr} was never called")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's sources, run.py must fail and print no result."""
    with temp_dir() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in json.loads((ROOT / "BENCHMARK.json").read_text())["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "relaxed-stiff", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        found = check_workload(w["name"], spec)
        print(f"{w['name']}: {'ok' if not found else 'FAILED'}")
        problems += found
    found = check_bare_directory()
    print(f"bare directory: {'ok' if not found else 'FAILED'}")
    problems += found
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
