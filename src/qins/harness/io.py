"""The run directory's formats: snapshots, tables, run manifests.

A ``<stem>.state`` file holds one or more state records back to back.
A record is a JSON header line (``n``, ``period``, ``time``) ended by a
newline, then the raw little-endian float64 (3, n, n) block vx, vy, p,
row-major.  The period is always 2 pi, and a header with any other is
unreadable.  A snapshot is a file of one record; a trajectory appends one
record per stored state.  Values round-trip bit for bit.

Every table a run writes is CSV whose header names its columns, and whose
values carry 17 significant digits, enough to reproduce a float64
exactly.  This module declares the three kinds, the energy budget
(``budget*.csv``), the bulk-modulus sweep members (``members.csv``) and
the particle transport audit (``transport.csv``), and reads a table back
by recognising its header, whatever the file is called.  The manifest is
written last, only for successful runs, and carries a config echo plus a
checksum of every other file the run wrote.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from contextlib import closing
from dataclasses import astuple, fields
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from ..diagnostics import EnergyBudgetRow
from ..fields import TWO_PI, Grid
from ..models import State, unpack_state

MANIFEST_NAME = "manifest.json"

# the columns of each table kind; a table is recognised by its header alone
BUDGET_COLUMNS = tuple(f.name for f in fields(EnergyBudgetRow))
MEMBERS_COLUMNS = ("k", "dt", "steps", "max_div_norm", "terminal_velocity_diff")
TRANSPORT_COLUMNS = ("time", "lhs", "rhs")
TABLES = (BUDGET_COLUMNS, MEMBERS_COLUMNS, TRANSPORT_COLUMNS)


def default_out_dir(name: str) -> Path:
    """Where the run ``name`` writes unless told: ``$QINS_OUT/<name>``, else ``qins_out/<name>``."""
    return Path(os.environ.get("QINS_OUT", "qins_out")) / name


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return path


def snapshot_path(path_stem: str | Path) -> Path:
    """The ``.state`` file of a snapshot, given its stem or the file itself."""
    path = Path(path_stem)
    return path if path.suffix == ".state" else path.with_name(path.name + ".state")


def append_state(f: BinaryIO, state: State) -> None:
    """Write one record of ``state`` to the binary file ``f``, each field from its own buffer."""
    header = {"n": state.grid.n, "period": TWO_PI, "time": float(state.time)}
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
                n, time, period = int(header["n"]), float(header["time"]), float(header["period"])
                grid = Grid(n)
                if period != TWO_PI or not np.isfinite(time):
                    raise ValueError(f"need period 2 pi and a finite time, got {period}, {time}")
            except (ValueError, TypeError, KeyError) as exc:
                raise ValueError(f"record {record}: unreadable snapshot header ({exc})") from None
            size = 8 * 3 * n * n
            left = os.fstat(f.fileno()).st_size - f.tell()  # before a read of ``size`` bytes
            if left < size:
                raise ValueError(
                    f"record {record}: block has {left // 8} samples, header promises {3 * n * n}"
                )
            raw = np.frombuffer(f.read(size), dtype="<f8").reshape(3, n, n).astype(np.float64)
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


def format_row(row: Iterable) -> str:
    """One table line: each value with 17 significant digits, so ints such as steps stay ints."""
    return ",".join(f"{value:.17g}" for value in row)


def write_table(path: str | Path, columns: tuple[str, ...], rows: Iterable[Iterable]) -> Path:
    """Write a table of one of the ``TABLES`` kinds: the header, then one line per row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([",".join(columns), *map(format_row, rows)]) + "\n")
    return path


def read_table(path: str | Path) -> tuple[tuple[str, ...], list[tuple[float, ...]]]:
    """``(columns, rows)`` of a table, its kind told by the header; ValueError for any other."""
    header, *lines = Path(path).read_text().strip().splitlines() or [""]
    columns = tuple(header.split(","))
    if columns not in TABLES:
        raise ValueError(f"unknown table header {header!r}")
    rows = [tuple(float(token) for token in line.split(",")) for line in lines]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"expected {len(columns)} columns, got {len(row)}")
    return columns, rows


def write_timeseries(rows: list[EnergyBudgetRow], path: str | Path) -> Path:
    """Write budget rows as a table with full float64 precision."""
    return write_table(path, BUDGET_COLUMNS, map(astuple, rows))


def read_timeseries(path: str | Path) -> list[EnergyBudgetRow]:
    """Read a budget table back into rows; ValueError for a table of another kind."""
    columns, rows = read_table(path)
    if columns != BUDGET_COLUMNS:
        raise ValueError(f"{path} is not a budget table (header {','.join(columns)})")
    return [EnergyBudgetRow(*row) for row in rows]


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


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
