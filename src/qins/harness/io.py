"""On-disk formats: snapshots, budget tables, run manifests.

A snapshot is a pair of files per field: a small JSON header and a raw
little-endian float64 block (row-major; vector fields store the x block
then the y block).  Values round-trip bit for bit.  Budget tables are
CSV with 17 significant digits, enough to reproduce the float64 exactly.
The manifest is written last, only for successful runs, and carries a
config echo plus a checksum of every other output file.
"""

from __future__ import annotations

import hashlib
import json
import time as _time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..diagnostics import CSV_HEADER, EnergyBudgetRow
from ..fields import Grid, ScalarField, VectorField
from ..models import State

MANIFEST_NAME = "manifest.json"


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def write_field_snapshot(field, path_stem: str | Path, name: str, time: float) -> list[Path]:
    """Write one field as header + raw block; returns the two paths."""
    stem = Path(path_stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(field, ScalarField):
        kind = "scalar"
        payload = field.values.astype("<f8").tobytes()
    elif isinstance(field, VectorField):
        kind = "vector"
        payload = field.x.astype("<f8").tobytes() + field.y.astype("<f8").tobytes()
    else:
        raise TypeError(f"cannot snapshot {type(field).__name__}")
    header = {
        "n": field.grid.n,
        "period": field.grid.period,
        "kind": kind,
        "time": float(time),
        "name": name,
    }
    json_path = stem.with_suffix(stem.suffix + ".json")
    bin_path = stem.with_suffix(stem.suffix + ".bin")
    write_json(json_path, header)
    bin_path.write_bytes(payload)
    return [json_path, bin_path]


def read_field_snapshot(path_stem: str | Path):
    """Read one field back; accepts the stem or either file of the pair."""
    stem = Path(path_stem)
    if stem.suffix in (".json", ".bin"):
        stem = stem.with_suffix("")
    header = json.loads(stem.with_suffix(stem.suffix + ".json").read_text())
    raw = np.frombuffer(stem.with_suffix(stem.suffix + ".bin").read_bytes(), dtype="<f8")
    n = int(header["n"])
    grid = Grid(n, float(header["period"]))
    if header["kind"] == "scalar":
        if raw.size != n * n:
            raise ValueError(
                f"snapshot block has {raw.size} samples, header promises {n * n}"
            )
        field = ScalarField(grid, raw.reshape(n, n).copy())
    elif header["kind"] == "vector":
        if raw.size != 2 * n * n:
            raise ValueError(
                f"snapshot block has {raw.size} samples, header promises {2 * n * n}"
            )
        field = VectorField(
            grid, raw[: n * n].reshape(n, n).copy(), raw[n * n :].reshape(n, n).copy()
        )
    else:
        raise ValueError(f"unknown snapshot kind {header['kind']!r}")
    return field, header


def write_snapshot(state: State, path_stem: str | Path) -> list[Path]:
    """Write a full state as velocity and pressure snapshot pairs."""
    stem = Path(path_stem)
    paths = write_field_snapshot(state.v, stem.parent / (stem.name + ".v"), "velocity", state.time)
    paths += write_field_snapshot(state.p, stem.parent / (stem.name + ".p"), "pressure", state.time)
    return paths


def read_snapshot(path_stem: str | Path) -> State:
    """Read a state written by :func:`write_snapshot`, bit for bit."""
    stem = Path(path_stem)
    v, v_header = read_field_snapshot(stem.parent / (stem.name + ".v"))
    p, p_header = read_field_snapshot(stem.parent / (stem.name + ".p"))
    if v_header["time"] != p_header["time"]:
        raise ValueError("velocity and pressure snapshots disagree on time")
    return State(v, p, float(v_header["time"]))


def write_timeseries(rows: list[EnergyBudgetRow], path: str | Path) -> Path:
    """Write budget rows as CSV with full float64 precision."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                f"{value:.17g}"
                for value in (
                    r.time,
                    r.e_kin,
                    r.e_press,
                    r.dissipation,
                    r.injection,
                    r.defect_predicted,
                    r.residual,
                )
            )
        )
    path.write_text("\n".join(lines) + "\n")
    return path


def read_timeseries(path: str | Path) -> list[EnergyBudgetRow]:
    """Read a budget CSV back into rows."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} is not a budget table (bad header)")
    rows = []
    for line in lines[1:]:
        vals = [float(tok) for tok in line.split(",")]
        if len(vals) != 7:
            raise ValueError(f"{path}: expected 7 columns, got {len(vals)}")
        rows.append(EnergyBudgetRow(*vals))
    return rows


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class RunTimer:
    """Wall-clock bracket for manifests."""

    started: float

    @classmethod
    def start(cls) -> "RunTimer":
        return cls(_time.perf_counter())

    def elapsed(self) -> float:
        return _time.perf_counter() - self.started


def write_manifest(
    out_dir: str | Path,
    config_echo: dict,
    wall_time_s: float,
) -> Path:
    """Checksum every file under ``out_dir`` and write the manifest last.

    Call only after a run has fully succeeded; a directory without a
    manifest is by construction an unfinished or failed run.
    """
    from .. import __version__

    out = Path(out_dir)
    checksums = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != MANIFEST_NAME:
            checksums[str(path.relative_to(out))] = sha256_file(path)
    manifest = {
        "code_version": __version__,
        "config": config_echo,
        "wall_time_s": wall_time_s,
        "checksums": checksums,
    }
    path = out / MANIFEST_NAME
    write_json(path, manifest)
    return path
