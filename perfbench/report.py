"""Print every benchmark metric by name and unit, per workload.

Usage, from the root of a checkout:

    python3 perfbench/report.py                   # end-to-end metrics and checks
    python3 perfbench/report.py --trace           # plus the traced per-layer table
    python3 perfbench/report.py --workload audit-io --seconds 10 --trace

Each workload runs through ``run.py`` exactly as a benchmark harness
would run it, so the numbers printed are the ones it would record.
With ``--trace`` the report also checks the design shares the workloads
were chosen for (for example, the pressure solve is at least 90% of the
projection workload's run).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (share from the traced run, comparison, threshold); shares are self or
# inclusive times of spans inside the timed run, over the traced run_s
DESIGN = {
    "relaxed-stiff": (("rhs_rk4_operators_self", ">=", 0.85), ("pressure_solve", "<", 0.01)),
    "projection-broadband": (("pressure_solve", ">=", 0.90),),
    "audit-io": (("diagnostics_self", ">", 0.0), ("io_self", ">", 0.0),
                 ("simulate_with_density_self", ">", 0.0)),
}


def run_cli(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run ``run.py`` once; returns its JSON lines keyed as printed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)), "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    out = {key: value for line in lines[:-1] for key, value in line.items()}
    out["result"] = lines[-1]
    return out


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also print the per-layer table")
    args = parser.parse_args(argv)

    ok = True
    for i, workload in enumerate(args.workload or names):
        out = run_cli(workload, args.seed, args.seconds, trace=False)
        if i == 0:
            print("environment:", json.dumps(out["environment"]))
        res = out["result"]
        print(f"\n== {workload}  (seed {args.seed}, {out['detail']['samples']} samples; "
              f"checks: {res['attempted']} attempted, {res['failed']} failed)")
        for name, m in res["metrics"].items():
            print(f"  {name:<46} {_fmt(m['value']):>14} {m['unit']}")
        ok &= res["correct"]
        if not args.trace:
            continue

        traced = run_cli(workload, args.seed, args.seconds, trace=True)
        res = traced["result"]
        ok &= res["correct"]
        print(f"  -- per-layer (traced; checks: {res['attempted']} attempted, "
              f"{res['failed']} failed)")
        for name, m in res["metrics"].items():
            print(f"  {name:<46} {_fmt(m['value']):>14} {m['unit']}")
        trace = traced["trace"]
        print(f"  -- spans of one traced sample (run_s {trace['run_s']:.4f} s; "
              "self time and share inside the timed run)")
        print(f"  {'span':<38} {'calls':>8} {'total_s':>10} {'self_s':>10} {'run_share':>10}")
        for name, row in trace["table"].items():
            print(f"  {name:<38} {row['calls']:>8} {row['total_s']:>10.4f} "
                  f"{row['run_self_s']:>10.4f} {row['run_share']:>10.2%}")
        if trace["absent"]:
            print("  absent (not wrapped):", ", ".join(trace["absent"]))
        for share, op, threshold in DESIGN[workload]:
            value = trace["shares"][share]
            held = {">=": value >= threshold, "<": value < threshold, ">": value > threshold}[op]
            ok &= held
            print(f"  design: {share} = {value:.2%} {op} {threshold:.0%}: "
                  f"{'holds' if held else 'DOES NOT HOLD'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
