"""One workload in one fresh process: set up, run once, check.

Run by ``run.py``, never by hand.  The last stdout line is a JSON object
with ``setup_s``, ``run_s``, ``run_s_norm``, ``ref_s``, ``peak_rss_mb``
and the check results.

``setup_s`` runs from the moment the parent spawned this process (a
CLOCK_MONOTONIC reading it passes in, comparable across processes on
Linux) to the end of set-up, so it covers interpreter start, ``import qins``,
the grid, the initial condition and the slow-manifold preparation.
``run_s`` runs from the first step to the returned result; the checks
run after it.

``run_s_norm`` is ``run_s`` rescaled to a machine of fixed speed.  The
speed of a shared host drifts by a quarter and more over minutes, in CPU
time as much as in wall time, so the worker times a fixed reference
kernel just before and just after the run and scales ``run_s`` by
``REF_NOMINAL_S`` over the mean of the two.  The kernel is numpy work on
small arrays, like the solvers' own, and uses nothing from ``qins``, so
a change to the program cannot move it.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

# what the reference kernel takes on an unloaded 2-vCPU Xeon VM
REF_NOMINAL_S = 0.25


def reference_s(reps: int = 3000) -> float:
    """Wall time of a fixed mix of 64x64 stencil sweeps and reductions."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
    start = time.perf_counter()
    x = a.copy()
    for _ in range(reps):
        g = (np.roll(x, -1, 0) - np.roll(x, 1, 0)) * 0.5
        h = (np.roll(x, -1, 1) - np.roll(x, 1, 1)) * 0.5
        x = x + 1e-3 * (g * b - h)
        x *= 0.999
        np.isfinite(x).all()
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "toy"), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="trace this run and write its spans here")
    args = parser.parse_args()

    import workloads

    cls = workloads.WORKLOADS[args.workload]
    result = {"setup_s": None, "run_s": None, "run_s_norm": None, "ref_s": None,
              "peak_rss_mb": None,
              "checks": {name: False for name in cls.checks},
              "error": None}
    tracer = None
    try:
        if args.spans is not None:
            from tracing import Tracer

            tracer = Tracer().install()
        wl = cls(args.seed, cls.sizes[args.size], args.out)
        set_up = time.clock_gettime(time.CLOCK_MONOTONIC)
        ref_before = reference_s()
        start = time.perf_counter()
        out = wl.run()
        end = time.perf_counter()
        ref_s = 0.5 * (ref_before + reference_s())
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["setup_s"] = set_up - args.spawned
        result["run_s"] = end - start
        result["ref_s"] = ref_s
        result["run_s_norm"] = result["run_s"] * REF_NOMINAL_S / ref_s
        if tracer is not None:
            tracer.close()
            tracer.run_window = (start, end)
            tracer.write(args.spans)
        result["checks"].update(wl.check(out))
    except Exception:  # every failure is a failed check, reported, not raised
        result["error"] = traceback.format_exc()
        print(result["error"], file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
