"""On-disk formats: snapshots, budget tables, run manifests.

A state snapshot is one ``<stem>.state`` file: a JSON header line
(``n``, ``period``, ``time``) ended by the first newline, then the raw
little-endian float64 (3, n, n) block vx, vy, p, row-major.  Values
round-trip bit for bit.  Budget tables are CSV with 17 significant
digits, enough to reproduce the float64 exactly.  The manifest is
written last, only for successful runs, and carries a config echo plus
a checksum of every other file the run wrote.
"""

from __future__ import annotations

import hashlib
import json
import time as _time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..diagnostics import CSV_HEADER, EnergyBudgetRow
from ..fields import Grid
from ..models import State, unpack_state

MANIFEST_NAME = "manifest.json"


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return path


def snapshot_path(path_stem: str | Path) -> Path:
    """The ``.state`` file of a snapshot, given its stem or the file itself."""
    path = Path(path_stem)
    return path if path.suffix == ".state" else path.with_name(path.name + ".state")


def write_snapshot(state: State, path_stem: str | Path) -> list[Path]:
    """Write a full state as one ``.state`` file, each field from its own buffer; ``[path]``."""
    path = snapshot_path(path_stem)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {"n": state.grid.n, "period": state.grid.period, "time": float(state.time)}
    with path.open("wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for values in (state.v.values, state.p.values):
            f.write(np.ascontiguousarray(values, dtype="<f8"))
    return [path]


def read_snapshot(path_stem: str | Path) -> State:
    """Read a state written by :func:`write_snapshot`, bit for bit."""
    path = snapshot_path(path_stem)
    head, _, block = path.read_bytes().partition(b"\n")
    try:
        header = json.loads(head)
        n, period, time = int(header["n"]), float(header["period"]), float(header["time"])
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"unreadable snapshot header ({exc})") from None
    grid = Grid(n, period)
    if len(block) != 8 * 3 * n * n:
        raise ValueError(
            f"snapshot block has {len(block) // 8} samples, header promises {3 * n * n}"
        )
    raw = np.frombuffer(block, dtype="<f8").reshape(3, n, n).astype(np.float64)
    return unpack_state(raw, grid, time)


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
    files: list[Path],
) -> Path:
    """Checksum the files a run wrote under ``out_dir`` and write the manifest last.

    Call only after a run has fully succeeded; a directory without a
    manifest is by construction an unfinished or failed run.  Files an
    earlier run left in the directory are not listed.
    """
    from .. import __version__

    out = Path(out_dir)
    checksums = {path.relative_to(out).as_posix(): sha256_file(path) for path in files}
    manifest = {
        "code_version": __version__,
        "config": config_echo,
        "wall_time_s": wall_time_s,
        "checksums": checksums,
    }
    return write_json(out / MANIFEST_NAME, manifest)
