"""The benchmark tracer's targets resolve in the package.

``perfbench/tracing.py`` wraps package functions by name from outside and
raises ``AttributeError`` when a target it does not mark optional is
gone, so a rename or deletion in ``src/`` that it misses breaks the
benchmark.  This test reads the tracer's target tables as literals; it
neither imports nor edits the tracer.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer_targets() -> dict:
    """The SPANS and COUNTS tables: (module, attribute, name, workload, optional) rows."""
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("SPANS", "COUNTS"):
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def test_every_required_tracer_target_resolves_in_the_package():
    tables = _tracer_targets()
    assert set(tables) == {"SPANS", "COUNTS"}
    required = [(m, a) for m, a, _, _, optional in tables["SPANS"] + tables["COUNTS"]
                if not optional]
    assert required
    missing = [f"{m}.{a}" for m, a in required
               if not callable(getattr(importlib.import_module(m), a, None))]
    assert not missing, f"the benchmark tracer cannot find {missing}"


def test_write_snapshot_returns_the_paths_whose_sizes_sum_to_the_bytes_written(tmp_path):
    # the tracer's io.bytes_written sums the sizes of the returned paths
    from qins.fields import make_grid
    from qins.harness.io import write_snapshot
    from qins.models import State

    state = State.rest(make_grid(8), time=0.5)
    paths = write_snapshot(state, tmp_path / "s")
    assert isinstance(paths, list) and paths
    assert all(Path(p).is_file() for p in paths)
    on_disk = sum(p.stat().st_size for p in tmp_path.rglob("*") if p.is_file())
    assert sum(Path(p).stat().st_size for p in paths) == on_disk > 3 * 8 * 8 * 8


def test_the_field_construction_counter_sees_each_field_once(monkeypatch):
    # fields.constructions wraps qins.fields._coerce, an optional COUNTS target
    # that the test above does not check: a fields rewrite that renamed it
    # would leave that metric at zero without any error
    import qins.fields as fields

    rows = [row for row in _tracer_targets()["COUNTS"] if row[2] == "fields.constructions"]
    assert [(m, a) for m, a, *_ in rows] == [("qins.fields", "_coerce")]
    calls, coerce = [], fields._coerce

    def counted(*args, **kwargs):
        calls.append(args)
        return coerce(*args, **kwargs)

    monkeypatch.setattr(fields, "_coerce", counted)
    g = fields.make_grid(8)
    fields.VectorField.zeros(g) + fields.ScalarField.zeros(g)
    assert len(calls) == 3
