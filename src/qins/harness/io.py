"""On-disk formats: snapshots, budget tables, run manifests.

A ``<stem>.state`` file holds one or more state records back to back.
A record is a JSON header line (``n``, ``period``, ``time``) ended by a
newline, then the raw little-endian float64 (3, n, n) block vx, vy, p,
row-major.  A snapshot is a file of one record; a trajectory appends one
record per stored state.  Values round-trip bit for bit.  Budget tables
are CSV with 17 significant digits, enough to reproduce the float64
exactly.  The manifest is written last, only for successful runs, and
carries a config echo plus a checksum of every other file the run wrote.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time as _time
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

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


def append_state(f: BinaryIO, state: State) -> None:
    """Write one record of ``state`` to the binary file ``f``, each field from its own buffer."""
    header = {"n": state.grid.n, "period": state.grid.period, "time": float(state.time)}
    f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
    for values in (state.v.values, state.p.values):
        f.write(np.ascontiguousarray(values, dtype="<f8"))


def write_snapshot(state: State, path_stem: str | Path) -> list[Path]:
    """Write a full state as a ``.state`` file of one record; ``[path]``."""
    path = snapshot_path(path_stem)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as f:
        append_state(f, state)
    return [path]


def read_states(path_stem: str | Path) -> Iterator[State]:
    """Yield each record of a ``.state`` file as a State, bit for bit, one at a time."""
    path = snapshot_path(path_stem)
    with path.open("rb") as f:
        for record in itertools.count():
            head = f.readline()
            if not head:
                return
            try:
                header = json.loads(head)
                n, period, time = int(header["n"]), float(header["period"]), float(header["time"])
            except (ValueError, TypeError, KeyError) as exc:
                raise ValueError(f"record {record}: unreadable snapshot header ({exc})") from None
            grid = Grid(n, period)
            block = f.read(8 * 3 * n * n)
            if len(block) != 8 * 3 * n * n:
                raise ValueError(
                    f"record {record}: block has {len(block) // 8} samples, "
                    f"header promises {3 * n * n}"
                )
            raw = np.frombuffer(block, dtype="<f8").reshape(3, n, n).astype(np.float64)
            yield unpack_state(raw, grid, time)


def read_snapshot(path_stem: str | Path) -> State:
    """Read a state written by :func:`write_snapshot`: a file of exactly one record."""
    with closing(read_states(path_stem)) as records:
        state = next(records, None)
        if state is None:
            raise ValueError("no state record")
        if next(records, None) is not None:
            raise ValueError("snapshot holds several records; read a trajectory with read_states")
    return state


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
