"""Time-to-solution benchmark of the qins solvers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload relaxed-stiff --seed 1 --seconds 25 --trace 0

Load model: one caller, closed loop.  Each sample is a fresh worker
process (``worker.py``) that sets up the workload, runs it once and
checks the result; the next sample starts when the previous one has
ended, until ``--seconds`` have passed.  Everything is single-threaded:
the BLAS/OpenMP thread variables are set to 1 for the workers.

With ``--trace 0`` the result holds the end-to-end metrics (medians over
the samples).  Run time is reported as ``run_s_norm``, the run's wall time
rescaled by a reference kernel timed around it in the same worker (see
``worker.py``), because a shared host's speed drifts too much from one
run to the next for raw wall time to hold a 25% bound.  Raw ``run_s`` is
in the detail line.  With ``--trace 1`` traced and untraced samples alternate;
the result holds the per-layer metrics of the traced samples plus
``trace.overhead_frac``.  Every sample's checks count towards
``attempted`` and ``failed``; a sample that raises fails all its checks.
The last stdout line is the result; earlier lines record the environment
and the per-sample detail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# a run ends within --seconds + GRACE_S + WORKER_TIMEOUT_S even if workers hang
WORKER_TIMEOUT_S = 60
GRACE_S = 30             # stop retrying failed samples this long after the deadline
MIN_SAMPLES = 3          # untraced samples per run
MIN_TRACED_SAMPLES = 2   # traced (and as many untraced) samples per traced run

sys.path.insert(0, str(HERE))
from tracing import summarize  # noqa: E402


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@contextmanager
def temp_dir():
    """A fresh directory under ``.perfbench_tmp/`` in the checkout, removed on exit."""
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        if not any(base.iterdir()):
            base.rmdir()


def environment(seed: int) -> dict:
    """Machine and software facts recorded with every result."""
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "seed": seed,
        "threads": {var: "1" for var in THREAD_VARS},
    }
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L1d cache", "L1i cache", "L2 cache", "L3 cache"):
            env[key.strip()] = value.strip()
    env["commit"] = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            env["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10).stdout.strip() or env["commit"]
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def _worker(workload: str, seed: int, size: str, out: Path, spans: Path | None) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        return {"run_s": None, "error": f"worker failed: {exc!r}", "checks": {}}


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run the closed loop for one workload and aggregate the samples."""
    spec = load_spec()
    import workloads  # needs src/ on the path, which main() adds

    n_checks = len(workloads.WORKLOADS[workload].checks)
    untraced, traced, summaries = [], [], []
    attempted = failed = 0
    need, need_traced = (MIN_TRACED_SAMPLES, MIN_TRACED_SAMPLES) if trace else (MIN_SAMPLES, 0)
    deadline = time.monotonic() + seconds
    with temp_dir() as tmp:
        i = 0
        while True:
            is_traced = trace and i % 2 == 1
            out = tmp / f"sample-{i}"
            spans = tmp / f"spans-{i}.json" if is_traced else None
            res = _worker(workload, seed, size, out, spans)
            shutil.rmtree(out, ignore_errors=True)
            attempted += n_checks
            failed += n_checks - sum(bool(v) for v in res["checks"].values())
            if res["run_s"] is not None:
                (traced if is_traced else untraced).append(res)
                if is_traced:
                    summaries.append(summarize(spans))
            i += 1
            now = time.monotonic()
            if now >= deadline and len(untraced) >= need and len(traced) >= need_traced:
                break
            if now >= deadline + GRACE_S:
                break
    if len(untraced) < need or len(traced) < need_traced:
        raise RuntimeError(f"{workload}: too few samples completed "
                           f"({len(untraced)} untraced, {len(traced)} traced)")

    def med(samples, key):
        return statistics.median(s[key] for s in samples)

    if not trace:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = {name: med(untraced, name) for name, _ in names}
    else:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = {name: statistics.median(s["metrics"][name] for s in summaries)
                  for name, _ in names if name != "trace.overhead_frac"}
        values["trace.overhead_frac"] = (med(traced, "run_s_norm")
                                         / med(untraced, "run_s_norm") - 1.0)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }
    detail = {
        "workload": workload,
        "samples": len(untraced),
        "traced_samples": len(traced),
        "run_s": [s["run_s"] for s in untraced],
        "ref_s": [s["ref_s"] for s in untraced],
        "run_s_norm": [s["run_s_norm"] for s in untraced],
        "setup_s": [s["setup_s"] for s in untraced],
        "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
    }
    return {
        "environment": environment(seed),
        "detail": detail,
        "trace": summaries[-1] if summaries else None,
        "result": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: tiny grids and a few steps, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qins" / "__init__.py").is_file():
        print(f"error: no qins sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    known = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in known:
        print(f"error: unknown workload {args.workload!r}, expected one of {known}",
              file=sys.stderr)
        return 2

    out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps({"environment": out["environment"]}))
    print(json.dumps({"detail": out["detail"]}))
    if out["trace"] is not None:
        print(json.dumps({"trace": {k: v for k, v in out["trace"].items() if k != "metrics"}}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
