"""Span and counter recorder that wraps the public functions of each layer.

Nothing here is imported by the package: the tracer patches names from
outside, in every loaded ``qins`` module that binds them.  ``models``,
``diagnostics`` and ``harness.experiments`` import operators, solvers and
writers by name (``from .operators import divergence``), so patching only
the defining module would leave their calls untimed.

A span is ``[name, start, end, parent]`` with times from
``time.perf_counter``; spans stay in memory until the run ends.  A
layer's self time is its span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

# (module, attribute, span name, workload that must call it, optional).
# Optional targets are private helpers that a later change may delete;
# they are wrapped only if present and reported as absent otherwise.
SPANS = (
    ("qins.operators", "gradient", "operators.gradient", "relaxed-stiff", False),
    ("qins.operators", "divergence", "operators.divergence", "relaxed-stiff", False),
    ("qins.operators", "laplacian", "operators.laplacian", "relaxed-stiff", False),
    ("qins.operators", "convection", "operators.convection", "relaxed-stiff", False),
    # only the compressible model calls grad_div, and no workload runs it
    ("qins.operators", "grad_div", "operators.grad_div", None, False),
    ("qins.operators", "strain_frobenius_sq", "operators.strain_frobenius_sq", "audit-io", False),
    ("qins.models", "simulate", "models.simulate", "relaxed-stiff", False),
    ("qins.models", "temam_rhs", "models.temam_rhs", "relaxed-stiff", False),
    ("qins.models", "step_rk4", "models.step_rk4", "relaxed-stiff", False),
    ("qins.models", "incompressible_step", "models.incompressible_step", "projection-broadband", False),
    ("qins.models", "solve_pressure_poisson", "models.solve_pressure_poisson", "projection-broadband", False),
    ("qins.models", "project_divergence_free", "models.project_divergence_free", "projection-broadband", False),
    ("qins.models", "consistent_pressure", "models.consistent_pressure", "relaxed-stiff", False),
    ("qins.diagnostics", "energy_audit", "diagnostics.energy_audit", "audit-io", False),
    ("qins.diagnostics", "transport_check", "diagnostics.transport_check", "audit-io", False),
    ("qins.diagnostics", "_periodic_interp", "diagnostics.interp", "audit-io", True),
    ("qins.harness.experiments", "simulate_with_density", "experiments.simulate_with_density", "audit-io", False),
    ("qins.harness.experiments", "run_free_run", "experiments.run_free_run", "audit-io", False),
    ("qins.harness.experiments", "run_transport_check", "experiments.run_transport_check", "audit-io", False),
    ("qins.harness.io", "write_snapshot", "io.write_snapshot", "audit-io", False),
    ("qins.harness.io", "sha256_file", "io.sha256_file", "audit-io", False),
)

# counted, not timed: a span per matvec or per field would cost more
# than the work it measures.  ``_coerce`` validates one sample array with
# a full isfinite scan, so a VectorField construction counts twice.
COUNTS = (
    ("qins.models", "_apply_div_grad", "models.matvecs", "projection-broadband", True),
    ("qins.fields", "_coerce", "fields.constructions", "relaxed-stiff", True),
)

OPERATORS = ("gradient", "divergence", "laplacian", "convection", "strain_frobenius_sq")


class Tracer:
    """Wraps layer functions in place; ``close`` puts the originals back."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.step_s: list[float] = []
        self.absent: list[str] = []
        self.run_window: tuple[float, float] | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _simulate(self, name: str, fn):
        """Time every step through ``simulate``'s own observer hook."""
        signature = inspect.signature(fn)
        step_s = self.step_s

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            user = bound.arguments.get("observer")
            last = [None]

            def observer(state):
                now = time.perf_counter()
                if last[0] is not None:
                    step_s.append(now - last[0])
                last[0] = now
                if user is not None:
                    user(state)

            bound.arguments["observer"] = observer
            return fn(*bound.args, **bound.kwargs)

        return self._span(name, wrapper)

    def _write_snapshot(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            paths = fn(*args, **kwargs)
            counts["io.bytes_written"] += sum(Path(p).stat().st_size for p in paths)
            return paths

        return self._span(name, wrapper)

    def _sha256_file(self, name: str, fn):
        counts = self.counts

        def wrapper(path):
            counts["io.bytes_hashed"] += Path(path).stat().st_size
            return fn(path)

        return self._span(name, wrapper)

    # -- patching ----------------------------------------------------------

    def _patch_everywhere(self, original, wrapper) -> None:
        """Rebind every name that refers to ``original`` in loaded qins modules."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qins" or mod_name.startswith("qins.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> "Tracer":
        # load every layer before patching
        import qins.diagnostics  # noqa: F401
        import qins.harness.experiments  # noqa: F401
        import qins.harness.io  # noqa: F401

        special = {
            "models.simulate": self._simulate,
            "io.write_snapshot": self._write_snapshot,
            "io.sha256_file": self._sha256_file,
        }
        for targets, wrap in ((SPANS, self._span), (COUNTS, self._count)):
            for module, attr, name, _, optional in targets:
                original = getattr(sys.modules[module], attr, None)
                if original is None:
                    if not optional:
                        raise AttributeError(f"{module}.{attr} is gone; update the benchmark")
                    self.absent.append(f"{module}.{attr}")
                    continue
                self._patch_everywhere(original, special.get(name, wrap)(name, original))
        return self

    def close(self) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        """Write the recorded spans and counts as JSON, once the run has ended."""
        payload = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "step_s": self.step_s,
            "absent": self.absent,
            "run_window": self.run_window,
        }
        path.write_text(json.dumps(payload))


# -- analysis ---------------------------------------------------------------


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summarize(path: Path) -> dict:
    """Per-layer metrics and the per-span table of one traced worker.

    Counts and times cover the whole traced process, set-up included,
    because the slow-manifold preparation is itself a layer call.  The
    table's ``run_share`` column counts only spans inside the timed run.
    """
    data = json.loads(path.read_text())
    spans, counts = data["spans"], Counter(data["counts"])
    run_start, run_end = data["run_window"]
    run_s = run_end - run_start

    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    rows: dict[str, dict] = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                     "run_total_s": 0.0, "run_self_s": 0.0})
        dur, own = end - start, end - start - child[i]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += own
        if start >= run_start and end <= run_end:
            row["run_total_s"] += dur
            row["run_self_s"] += own
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "run_total_s": 0.0, "run_self_s": 0.0}

    def row(name: str) -> dict:
        return rows.get(name, empty)

    def per_call(name: str, key: str) -> float:
        r = row(name)
        return 1e6 * r[key] / r["calls"] if r["calls"] else 0.0

    solves = row("models.solve_pressure_poisson")["calls"]
    rhs = row("models.temam_rhs")["calls"]
    steps_ms = [1e3 * s for s in data["step_s"]]
    m = {
        "models.simulate.steps": len(steps_ms),
        "models.simulate.step_ms_p50": statistics.median(steps_ms) if steps_ms else 0.0,
        "models.simulate.step_ms_p90": _quantile(steps_ms, 0.9),
        "models.temam_rhs.calls": rhs,
        "models.temam_rhs.self_us_per_call": per_call("models.temam_rhs", "self_s"),
        "models.step_rk4.calls": row("models.step_rk4")["calls"],
        "models.step_rk4.self_us_per_call": per_call("models.step_rk4", "self_s"),
        "models.incompressible_step.self_us_per_call": per_call("models.incompressible_step", "self_s"),
        "models.solve_pressure_poisson.calls": solves,
        "models.solve_pressure_poisson.us_per_call": per_call("models.solve_pressure_poisson", "total_s"),
        "models.solve_pressure_poisson.matvecs_per_solve": counts["models.matvecs"] / solves if solves else 0.0,
        "models.project_divergence_free.s": row("models.project_divergence_free")["total_s"],
        "models.consistent_pressure.s": row("models.consistent_pressure")["total_s"],
    }
    for op in OPERATORS:
        m[f"operators.{op}.calls"] = row(f"operators.{op}")["calls"]
        m[f"operators.{op}.us_per_call"] = per_call(f"operators.{op}", "total_s")
    m["operators.self_s"] = sum(r["self_s"] for n, r in rows.items() if n.startswith("operators."))
    m["fields.constructions"] = counts["fields.constructions"]
    m["fields.constructions_per_rhs"] = counts["fields.constructions"] / rhs if rhs else 0.0
    m["diagnostics.energy_audit.s"] = row("diagnostics.energy_audit")["total_s"]
    m["diagnostics.transport_check.self_s"] = row("diagnostics.transport_check")["self_s"]
    m["diagnostics.interp.calls"] = row("diagnostics.interp")["calls"]
    m["diagnostics.interp.us_per_call"] = per_call("diagnostics.interp", "total_s")
    m["experiments.simulate_with_density.self_s"] = row("experiments.simulate_with_density")["self_s"]
    m["experiments.run_free_run.s"] = row("experiments.run_free_run")["total_s"]
    m["experiments.run_transport_check.s"] = row("experiments.run_transport_check")["total_s"]
    m["io.write_snapshot.calls"] = row("io.write_snapshot")["calls"]
    m["io.write_snapshot.s"] = row("io.write_snapshot")["total_s"]
    m["io.sha256_file.calls"] = row("io.sha256_file")["calls"]
    m["io.sha256_file.s"] = row("io.sha256_file")["total_s"]
    m["io.bytes_written"] = counts["io.bytes_written"]
    m["io.bytes_hashed"] = counts["io.bytes_hashed"]

    def run_share(names, key: str) -> float:
        return sum(row(n)[key] for n in names) / run_s

    operators = [n for n in rows if n.startswith("operators.")]
    shares = {
        "pressure_solve": run_share(["models.solve_pressure_poisson"], "run_total_s"),
        "rhs_rk4_operators_self": run_share(
            ["models.temam_rhs", "models.step_rk4", *operators], "run_self_s"),
        "diagnostics_self": run_share([n for n in rows if n.startswith("diagnostics.")], "run_self_s"),
        "io_self": run_share([n for n in rows if n.startswith("io.")], "run_self_s"),
        "simulate_with_density_self": run_share(["experiments.simulate_with_density"], "run_self_s"),
    }
    table = {
        name: {**r, "run_share": r["run_self_s"] / run_s}
        for name, r in sorted(rows.items())
    }
    return {"metrics": m, "table": table, "shares": shares, "counts": dict(counts),
            "absent": data["absent"], "run_s": run_s}
