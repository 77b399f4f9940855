"""Command-line interface.

::

    qins run CONFIG.json [--out DIR] [--quiet]
    qins sweep-k CONFIG.json [--out DIR] [--quiet]
    qins verify [--profile desk|quick] [--out DIR] [--quiet]
    qins inspect PATH

``run`` dispatches a JSON config to its experiment driver; ``sweep-k``
is the same but forces the bulk-modulus sweep, so a config written for
another experiment can be reused.  ``verify`` runs the acceptance gate.
``inspect`` summarizes an output directory (re-hashing every file
against the manifest), a snapshot, or a CSV without loading the whole
package output into anything else.

Exit status: 0 on success, 1 on run/verification failure, 2 on a
configuration error.  The default output root is ``$QINS_OUT`` or
``./qins_out``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from ..fields import integrate
from ..diagnostics import divergence_norm
from ..models import SimulationBlowupError
from .acceptance import PROFILES, verify
from .config import ConfigError, config_from_json
from .experiments import resolve_out_dir, run_experiment
from .io import (
    MANIFEST_NAME,
    read_field_snapshot,
    read_snapshot,
    read_timeseries,
    sha256_file,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output directory (overrides config and $QINS_OUT)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress chatter")


def _cmd_run(args: argparse.Namespace, force_experiment: str | None = None) -> int:
    cfg = config_from_json(args.config)
    if force_experiment and cfg.experiment != force_experiment:
        cfg = replace(cfg, experiment=force_experiment)
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


def _inspect_csv(path: Path) -> int:
    if path.name == "transport.csv" or path.name == "members.csv":
        lines = path.read_text().strip().splitlines()
        print(f"{path}: {len(lines) - 1} rows, columns {lines[0]}")
        if len(lines) > 1:
            print(f"  last: {lines[-1]}")
        return 0
    rows = read_timeseries(path)
    print(f"{path}: {len(rows)} budget rows, t in [{rows[0].time:g}, {rows[-1].time:g}]")
    last = rows[-1]
    print(
        f"  last: e_kin {last.e_kin:.6g}, e_press {last.e_press:.6g}, "
        f"residual {last.residual:.3e}"
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if path.is_dir():
        return _inspect_dir(path)
    if path.suffix == ".csv":
        return _inspect_csv(path)
    state_header = Path(str(path) + ".v.json")
    if state_header.exists():
        state = read_snapshot(path)
        e_kin = 0.5 * integrate(state.v.magnitude_squared())
        print(
            f"{path}: state at t={state.time:g}, n={state.grid.n}, "
            f"e_kin {e_kin:.6g}, |div v| {divergence_norm(state):.3e}"
        )
        return 0
    stem = path.with_suffix("") if path.suffix in (".json", ".bin") else path
    if Path(str(stem) + ".json").exists() and Path(str(stem) + ".bin").exists():
        field, header = read_field_snapshot(stem)
        print(
            f"{stem}: {header['kind']} field {header['name']!r} at t={header['time']:g}, "
            f"n={header['n']}"
        )
        return 0
    if path.suffix == ".json" and path.exists():
        print(json.dumps(json.loads(path.read_text()), sort_keys=True, indent=1))
        return 0
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

    sweep_p = sub.add_parser("sweep-k", help="run the bulk-modulus sweep for a config")
    sweep_p.add_argument("config", help="path to the experiment config")
    _add_common(sweep_p)

    verify_p = sub.add_parser("verify", help="run the acceptance gate")
    verify_p.add_argument(
        "--profile", choices=sorted(PROFILES), default="desk", help="check sizes and budgets"
    )
    _add_common(verify_p)

    inspect_p = sub.add_parser("inspect", help="summarize a run directory, snapshot, or table")
    inspect_p.add_argument("path")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep-k":
            return _cmd_run(args, force_experiment="k_sweep")
        if args.command == "verify":
            return verify(out_root=args.out, profile=args.profile, quiet=args.quiet)
        return _cmd_inspect(args)
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
