"""Command-line interface.

::

    qins run CONFIG.json [--out DIR] [--quiet]
    qins verify [--out DIR] [--quiet]
    qins inspect PATH

``run`` dispatches a JSON config to its experiment driver.  ``verify``
runs the acceptance gate, every check at its fixed sizes and within its
time budget.
``inspect`` summarizes an output directory (re-hashing every file the
manifest lists), a ``.state`` snapshot or trajectory, or a table, whose
kind it tells by the header, whatever the file is called.

Exit status: 0 on success, 1 on run/verification failure, 2 on a
configuration error.  The default output root is ``$QINS_OUT`` or
``./qins_out``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..fields import integrate
from ..diagnostics import EnergyBudgetRow, divergence_norm
from ..models import SimulationBlowupError
from .acceptance import verify
from .config import ConfigError, config_from_json
from .experiments import resolve_out_dir, run_experiment
from .io import (
    BUDGET_COLUMNS,
    MANIFEST_NAME,
    format_row,
    read_states,
    read_table,
    sha256_file,
    snapshot_path,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output directory (overrides config and $QINS_OUT)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress chatter")


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = config_from_json(args.config)
    run_experiment(cfg, out_dir=args.out, quiet=args.quiet)
    if not args.quiet:
        print(f"wrote {resolve_out_dir(cfg, args.out)}")
    return 0


def _inspect_dir(path: Path) -> int:
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        print(f"{path}: no manifest, unfinished or failed run", file=sys.stderr)
        return 1
    manifest = json.loads(manifest_path.read_text())
    experiment = manifest.get("config", {}).get("experiment", "?")
    print(
        f"{path}: experiment {experiment}, code {manifest.get('code_version', '?')}, "
        f"{len(manifest.get('checksums', {}))} files, "
        f"wall {manifest.get('wall_time_s', 0.0):.2f}s"
    )
    bad = []
    for rel, digest in manifest.get("checksums", {}).items():
        target = path / rel
        if not target.is_file() or sha256_file(target) != digest:
            bad.append(rel)
    if bad:
        for rel in bad:
            print(f"  checksum mismatch: {rel}", file=sys.stderr)
        return 1
    print("  checksums verified")
    return 0


def _inspect_table(path: Path) -> int:
    columns, rows = read_table(path)
    if columns != BUDGET_COLUMNS:
        print(f"{path}: {len(rows)} rows, columns {','.join(columns)}")
        if rows:
            print(f"  last: {format_row(rows[-1])}")
        return 0
    if not rows:
        raise ValueError("budget table has a header but no rows")
    first, last = EnergyBudgetRow(*rows[0]), EnergyBudgetRow(*rows[-1])
    print(f"{path}: {len(rows)} budget rows, t in [{first.time:g}, {last.time:g}]")
    print(
        f"  last: e_kin {last.e_kin:.6g}, e_press {last.e_press:.6g}, "
        f"residual {last.residual:.3e}"
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if path.is_dir():
        return _inspect_dir(path)
    if snapshot_path(path).exists():
        times = []
        for state in read_states(path):  # one state held at a time
            times.append(state.time)
        if not times:
            raise ValueError("no state record")
        if len(times) > 1:
            print(f"{path}: trajectory of {len(times)} records, n={state.grid.n}, "
                  f"t in [{times[0]:g}, {times[-1]:g}]")
            return 0
        e_kin = 0.5 * integrate(state.v.magnitude_squared())
        print(
            f"{path}: state at t={state.time:g}, n={state.grid.n}, "
            f"e_kin {e_kin:.6g}, |div v| {divergence_norm(state):.3e}"
        )
        return 0
    if path.suffix == ".json" and path.exists():
        print(json.dumps(json.loads(path.read_text()), sort_keys=True, indent=1))
        return 0
    if path.is_file():
        return _inspect_table(path)
    print(f"{path}: not a run directory, snapshot, or table", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qins",
        description="periodic 2-D flow experiments with a relaxed divergence constraint",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("config", help="path to the experiment config")
    _add_common(run_p)

    verify_p = sub.add_parser("verify", help="run the acceptance gate")
    _add_common(verify_p)

    inspect_p = sub.add_parser("inspect", help="summarize a run directory, snapshot, or table")
    inspect_p.add_argument("path")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            results = verify(out_root=args.out, quiet=args.quiet)
            return 0 if all(r.passed for r in results) else 1
        try:
            return _cmd_inspect(args)
        except (KeyError, ValueError) as exc:  # a table or header it cannot parse
            print(f"cannot read {args.path}: {exc}", file=sys.stderr)
            return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimulationBlowupError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
