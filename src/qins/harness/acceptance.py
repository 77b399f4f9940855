"""Acceptance gate: the eight guarantees this package ships with.

``verify`` runs every check, prints one pass/fail line per guarantee,
writes ``results.json`` plus a manifest into the output directory, and
returns the results.  Each check re-derives its numbers from scratch;
nothing is cached between runs, so two invocations produce
byte-identical data files.

A check is a plain verdict function ``check(out, quiet) -> (passed,
headline, details)`` whose grid sizes and run lengths are written next
to its thresholds.  ``verify`` times every call against the check's
pinned budget in ``CHECKS``, and a check that overruns it fails.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..fields import ScalarField, VectorField, integrate, l2_norm, make_grid
from ..inertia import (
    KinematicSample,
    inertial_force_standard,
    inertial_force_star,
    jacobian_from_density,
    kappa_r_star_rate_identity_residual,
    kinetic_density_spatial,
    kinetic_density_star,
)
from ..models import ForcingSpec, ModelConfig, march, stable_dt
from ..operators import convection, divergence, grad_div, gradient, laplacian
from .config import ExperimentConfig, InitialConditionSpec
from .experiments import (
    run_energy_audit,
    run_free_run,
    run_galilean,
    run_k_sweep,
    run_taylor_green,
    run_transport_check,
)
from .initial_conditions import initial_condition
from .io import (MANIFEST_NAME, default_out_dir, make_out_dir, read_snapshot, write_json,
                 write_manifest)

ROUND_OFF = 1e-12  # identity checks run on O(1) fields, so this is absolute

# the relaxed model and the compressive pulse most trajectory checks march
RELAXED = ModelConfig(model="temam", re=100.0, k=100.0)
PULSE = InitialConditionSpec(kind="taylor_green_pulse", amplitude=0.1)

Verdict = tuple[bool, str, dict]  # (passed, headline, details)


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    passed: bool
    seconds: float
    headline: str
    details: dict


def _order(coarse_err: float, fine_err: float) -> float:
    """Observed order between two errors at a factor-two refinement."""
    if coarse_err <= 0.0 or fine_err <= 0.0:
        return float("inf") if fine_err <= 0.0 else float("-inf")
    return float(np.log2(coarse_err / fine_err))


# -- manufactured fields shared by the operator and identity checks ------------


def _test_scalar(grid):
    return ScalarField.from_function(
        grid,
        lambda X, Y: np.cos(X) * np.cos(2 * Y) + 0.5 * np.cos(3 * X) * np.sin(Y),
    )


def _test_scalar_grad(grid):
    return VectorField.from_function(
        grid,
        lambda X, Y: -np.sin(X) * np.cos(2 * Y) - 1.5 * np.sin(3 * X) * np.sin(Y),
        lambda X, Y: -2.0 * np.cos(X) * np.sin(2 * Y) + 0.5 * np.cos(3 * X) * np.cos(Y),
    )


def _test_scalar_lap(grid):
    return ScalarField.from_function(
        grid,
        lambda X, Y: -5.0 * np.cos(X) * np.cos(2 * Y) - 5.0 * np.cos(3 * X) * np.sin(Y),
    )


def _test_vector(grid):
    return VectorField.from_function(
        grid,
        lambda X, Y: np.sin(X) * np.cos(Y) + 0.3 * np.cos(2 * Y),
        lambda X, Y: np.cos(X) * np.sin(2 * Y),
    )


def _test_vector_div(grid):
    return ScalarField.from_function(
        grid,
        lambda X, Y: np.cos(X) * np.cos(Y) + 2.0 * np.cos(X) * np.cos(2 * Y),
    )


def _test_vector_lap(grid):
    return VectorField.from_function(
        grid,
        lambda X, Y: -2.0 * np.sin(X) * np.cos(Y) - 1.2 * np.cos(2 * Y),
        lambda X, Y: -5.0 * np.cos(X) * np.sin(2 * Y),
    )


def _test_vector_conv(grid):
    def cx(X, Y):
        vx = np.sin(X) * np.cos(Y) + 0.3 * np.cos(2 * Y)
        vy = np.cos(X) * np.sin(2 * Y)
        vx_x = np.cos(X) * np.cos(Y)
        vx_y = -np.sin(X) * np.sin(Y) - 0.6 * np.sin(2 * Y)
        return vx * vx_x + vy * vx_y

    def cy(X, Y):
        vx = np.sin(X) * np.cos(Y) + 0.3 * np.cos(2 * Y)
        vy = np.cos(X) * np.sin(2 * Y)
        vy_x = -np.sin(X) * np.sin(2 * Y)
        vy_y = 2.0 * np.cos(X) * np.cos(2 * Y)
        return vx * vy_x + vy * vy_y

    return VectorField.from_function(grid, cx, cy)


def _test_vector_grad_div(grid):
    return VectorField.from_function(
        grid,
        lambda X, Y: -np.sin(X) * np.cos(Y) - 2.0 * np.sin(X) * np.cos(2 * Y),
        lambda X, Y: -np.cos(X) * np.sin(Y) - 4.0 * np.cos(X) * np.sin(2 * Y),
    )


def _test_accel(grid):
    return VectorField.from_function(
        grid,
        lambda X, Y: 0.5 * np.cos(2 * X) * np.sin(Y),
        lambda X, Y: 0.5 * np.sin(X) * np.cos(2 * Y),
    )


def _test_density(grid):
    return ScalarField.from_function(grid, lambda X, Y: 1.0 + 0.3 * np.sin(X) * np.cos(Y))


# -- C1: operator convergence and summation by parts ---------------------------


def check_operators(out: Path, quiet: bool) -> Verdict:
    errs: dict[str, list[float]] = {}
    ibp_rels = []
    grids = (64, 128)
    for n in grids:
        grid = make_grid(n)
        s = _test_scalar(grid)
        v = _test_vector(grid)
        cases = {
            "gradient": (gradient(s), _test_scalar_grad(grid)),
            "divergence": (divergence(v), _test_vector_div(grid)),
            "laplacian_scalar": (laplacian(s), _test_scalar_lap(grid)),
            "laplacian_vector": (laplacian(v), _test_vector_lap(grid)),
            "convection": (convection(v), _test_vector_conv(grid)),
            "grad_div": (grad_div(v), _test_vector_grad_div(grid)),
        }
        for name, (got, want) in cases.items():
            errs.setdefault(name, []).append(l2_norm(got - want))
        lhs = integrate(s * divergence(v))
        rhs = integrate(gradient(s).dot(v))
        ibp_rels.append(abs(lhs + rhs) / max(abs(lhs), abs(rhs), 1e-300))
    orders = {name: _order(e[0], e[1]) for name, e in errs.items()}
    worst_order = min(orders.values())
    worst_ibp = max(ibp_rels)
    return (
        worst_order >= 1.9 and worst_ibp <= ROUND_OFF,
        f"min order {worst_order:.2f}, parts-summation rel {worst_ibp:.1e}",
        {
            "grids": list(grids),
            "errors": {k: list(map(float, v)) for k, v in errs.items()},
            "orders": {k: float(v) for k, v in orders.items()},
            "integration_by_parts_rel": list(map(float, ibp_rels)),
        },
    )


# -- C2: vortex benchmark ------------------------------------------------------


def check_taylor_green(out: Path, quiet: bool) -> Verdict:
    cfg = ExperimentConfig(
        experiment="taylor_green",
        n=32,
        t_final=1.0,
        model=ModelConfig(model="incompressible", re=100.0),
    )
    report = run_taylor_green(cfg, out_dir=out / "taylor_green", quiet=quiet)
    order = report["observed_order"]
    return (
        order >= 1.9,
        f"order {order:.3f} between n={report['coarse']['n']} and n={report['fine']['n']}",
        {
            "observed_order": float(order),
            "error_coarse": float(report["coarse"]["velocity_error"]),
            "error_fine": float(report["fine"]["velocity_error"]),
        },
    )


# -- C3: bulk-modulus sweep ----------------------------------------------------


def check_k_sweep(out: Path, quiet: bool) -> Verdict:
    cfg = ExperimentConfig(
        experiment="k_sweep",
        n=64,
        t_final=0.5,
        model=RELAXED,
        k_list=(1e2, 1e3, 1e4, 1e5),
        initial_condition=InitialConditionSpec(kind="taylor_green_pulse", amplitude=0.05),
    )
    report = run_k_sweep(cfg, out_dir=out / "k_sweep", quiet=quiet)
    slope = report["div_slope"]
    passed = (
        report["all_completed"]
        and report["div_strictly_decreasing"]
        and report["diff_strictly_decreasing"]
        and slope is not None
        and -1.3 <= slope <= -0.7
    )
    return (
        passed,
        (f"slope {slope:.3f}" if slope is not None else "slope undefined")
        + f", div decreasing {report['div_strictly_decreasing']}"
        + f", diff decreasing {report['diff_strictly_decreasing']}",
        {
            "div_slope": slope,
            "div_strictly_decreasing": report["div_strictly_decreasing"],
            "diff_strictly_decreasing": report["diff_strictly_decreasing"],
            "all_completed": report["all_completed"],
            "members": report["members"],
        },
    )


# -- C4: energy budget closure -------------------------------------------------


def check_energy_budget(out: Path, quiet: bool) -> Verdict:
    cfg = ExperimentConfig(
        experiment="energy_audit", n=32, t_final=0.5, model=RELAXED, initial_condition=PULSE
    )
    coarse, fine = (
        run_energy_audit(c, out_dir=out / f"energy_audit_{c.n}", quiet=quiet)
        for c in (cfg, replace(cfg, n=64))
    )
    err_on = (coarse["max_abs_residual_on"], fine["max_abs_residual_on"])
    err_off = (
        coarse["max_abs_residual_off_minus_defect"],
        fine["max_abs_residual_off_minus_defect"],
    )
    order_on = _order(*err_on)
    order_off = _order(*err_off)
    corr = fine["residual_defect_correlation"]
    max_rise = fine["max_total_energy_rise_on"]
    rise_tol = 10.0 * err_on[1] * fine["dt"] + 1e-14
    passed = (
        order_on >= 1.9
        and order_off >= 1.9
        and corr is not None
        and corr > 0.99
        and max_rise <= rise_tol
    )
    return (
        passed,
        f"residual orders {order_on:.2f} (force on) / {order_off:.2f} (force off), "
        + (f"defect correlation {corr:.4f}" if corr is not None else "correlation undefined"),
        {
            "residual_on": list(map(float, err_on)),
            "residual_off_minus_defect": list(map(float, err_off)),
            "order_on": float(order_on),
            "order_off": float(order_off),
            "correlation": corr,
            "max_total_energy_rise": max_rise,
            "rise_tolerance": float(rise_tol),
            "dt": [float(coarse["dt"]), float(fine["dt"])],
        },
    )


# -- C5: inertial bookkeeping identities ----------------------------------------


def check_inertia_identities(out: Path, quiet: bool) -> Verdict:
    # manufactured velocity, acceleration and density on each identity grid
    fields = [
        (_test_vector(g), _test_accel(g), _test_density(g))
        for g in map(make_grid, (64, 128))
    ]

    # pointwise identities at round-off on the first grid
    v, dvdt, rho = fields[0]
    sample_ref = KinematicSample(v=v, dv_dt_partial=dvdt, rho=ScalarField.constant(v.grid, 1.0))
    force_diff = inertial_force_star(sample_ref) - inertial_force_standard(sample_ref)
    closed = (-0.5 * divergence(v)) * v
    sample_gen = KinematicSample(v=v, dv_dt_partial=dvdt, rho=rho)
    jk = jacobian_from_density(rho) * kinetic_density_spatial(sample_gen)
    rate_disc = ScalarField(v.grid, -rho.values * divergence(v).values)
    details = {
        "force_difference_abs": float(l2_norm(force_diff - closed)),
        "jacobian_kinetic_abs": float(l2_norm(jk - kinetic_density_star(sample_gen))),
        "rate_identity_discrete_abs": float(
            kappa_r_star_rate_identity_residual(sample_gen, rate_disc)
        ),
    }

    # analytic-rate route: the only discrete-vs-analytic gap is the divergence,
    # so the residual must shrink at second order
    rate_residuals = [
        kappa_r_star_rate_identity_residual(
            KinematicSample(v=vn, dv_dt_partial=dn, rho=rn),
            ScalarField(vn.grid, -rn.values * _test_vector_div(vn.grid).values),
        )
        for vn, dn, rn in fields
    ]
    rate_order = _order(*rate_residuals)
    details["rate_identity_analytic"] = list(map(float, rate_residuals))
    details["rate_identity_order"] = float(rate_order)

    # power consistency along a simulated trajectory, each grid at its own stable step
    def power_error(n: int) -> float:
        state0 = initial_condition(PULSE, make_grid(n))
        _, dt_used, states = march(
            state0, RELAXED, ForcingSpec.zero(), 0.25, dt=stable_dt(state0, RELAXED)
        )
        ones = ScalarField.constant(state0.grid, 1.0)
        worst, before, mid = 0.0, None, None
        for after in states:
            if before is not None:
                accel = (after.v - before.v) / (2.0 * dt_used)
                sample = KinematicSample(v=mid.v, dv_dt_partial=accel, rho=ones)
                rhs = integrate(((-1.0) * inertial_force_star(sample)).dot(mid.v))
                lhs = (
                    0.5 * integrate(after.v.magnitude_squared())
                    - 0.5 * integrate(before.v.magnitude_squared())
                ) / (2.0 * dt_used)
                worst = max(worst, abs(lhs - rhs))
            before, mid = mid, after
        return worst

    power_errs = (power_error(32), power_error(64))
    power_order = _order(*power_errs)
    details["power_consistency"] = list(map(float, power_errs))
    details["power_consistency_order"] = float(power_order)

    worst_identity = max(
        details["force_difference_abs"],
        details["jacobian_kinetic_abs"],
        details["rate_identity_discrete_abs"],
    )
    return (
        worst_identity <= ROUND_OFF and rate_order >= 1.9 and power_order >= 1.9,
        f"identities at {worst_identity:.1e}, "
        f"rate order {rate_order:.2f}, power order {power_order:.2f}",
        details,
    )


# -- C6: frame-change behavior ---------------------------------------------------


def check_frame_behavior(out: Path, quiet: bool) -> Verdict:
    cfg = ExperimentConfig(
        experiment="galilean",
        n=64,
        t_final=0.5,
        model=RELAXED,
        k_list=(1e2, 1e3, 1e4, 1e5),
        initial_condition=PULSE,
        boost_w=(1.0, 0.0),
    )
    report = run_galilean(cfg, out_dir=out / "galilean", quiet=quiet)
    slope = report["alt_force"]["slope"]
    passed = (
        report["standard_gap"] <= 1e-6
        and report["temam_gap_rel_err"] <= 0.01
        and slope is not None
        and -1.05 <= slope <= -0.95
    )
    return (
        passed,
        f"standard gap {report['standard_gap']:.1e}, "
        f"force gap within {report['temam_gap_rel_err']:.2%} of closed form, "
        + (f"alt-force slope {slope:.3f}" if slope is not None else "alt-force slope undefined"),
        {
            "standard_gap": report["standard_gap"],
            "temam_gap": report["temam_gap"],
            "temam_gap_closed_form": report["temam_gap_closed_form"],
            "temam_gap_rel_err": report["temam_gap_rel_err"],
            "alt_force_slope": slope,
            "alt_force_members": report["alt_force"]["members"],
        },
    )


# -- C7: referential transport ---------------------------------------------------


def check_transport(out: Path, quiet: bool) -> Verdict:
    cfg = ExperimentConfig(
        experiment="transport_check", n=32, t_final=0.4, model=RELAXED,
        initial_condition=PULSE, particles=32,
    )
    coarse, fine = (
        run_transport_check(c, out_dir=out / f"transport_check_{c.n}", quiet=quiet)
        for c in (cfg, replace(cfg, n=64))
    )
    gaps = (coarse["gap"], fine["gap"])
    j_gaps = (coarse["jacobian_route_gap"], fine["jacobian_route_gap"])
    gap_order = _order(*gaps)
    j_order = _order(*j_gaps)
    under_resolved = [coarse["under_resolved"], fine["under_resolved"]]
    passed = (
        not any(under_resolved)
        and gap_order >= 1.9
        and (j_order >= 1.9 or j_gaps[1] <= 1e-11)
    )
    return (
        passed,
        f"gap order {gap_order:.2f}, jacobian-route order {j_order:.2f}",
        {
            "gap": list(map(float, gaps)),
            "gap_order": float(gap_order),
            "jacobian_route_gap": list(map(float, j_gaps)),
            "jacobian_route_order": float(j_order),
            "under_resolved": under_resolved,
        },
    )


# -- C8: bit-reproducibility -----------------------------------------------------


def check_determinism(out: Path, quiet: bool) -> Verdict:
    cfg = ExperimentConfig(
        experiment="free_run",
        n=32,
        t_final=0.1,
        model=RELAXED,
        initial_condition=InitialConditionSpec(kind="random_smooth", seed=7, amplitude=0.3),
        snapshot_every=5,
    )
    checksums = []
    for tag in ("a", "b"):
        run_free_run(cfg, out_dir=out / f"determinism_{tag}", quiet=quiet)
        manifest = json.loads((out / f"determinism_{tag}" / MANIFEST_NAME).read_text())
        checksums.append(manifest["checksums"])
    identical = checksums[0] == checksums[1] and len(checksums[0]) > 0
    digest = hashlib.sha256(
        json.dumps(checksums[0], sort_keys=True).encode()
    ).hexdigest()
    # verify the snapshots round-trip while the two runs are on disk
    snap_a = read_snapshot(out / "determinism_a" / "final")
    snap_b = read_snapshot(out / "determinism_b" / "final")
    bitwise = bool(
        (snap_a.v.values == snap_b.v.values).all() and (snap_a.p.values == snap_b.p.values).all()
    )
    return (
        identical and bitwise,
        f"{len(checksums[0])} files, checksums {'identical' if identical else 'DIFFER'}",
        {
            "files": len(checksums[0]),
            "identical": identical,
            "final_states_bitwise_equal": bitwise,
            "checksum_digest": digest,
        },
    )


# (cid, name, time budget in seconds, check)
CHECKS = (
    ("C1", "operator convergence and summation by parts", 30.0, check_operators),
    ("C2", "decaying-vortex benchmark order", 60.0, check_taylor_green),
    ("C3", "bulk-modulus sweep limit behavior", 300.0, check_k_sweep),
    ("C4", "energy budget closure", 120.0, check_energy_budget),
    ("C5", "inertial bookkeeping identities", 30.0, check_inertia_identities),
    ("C6", "frame-change behavior", 300.0, check_frame_behavior),
    ("C7", "referential transport along particles", 60.0, check_transport),
    ("C8", "bit-reproducibility", 30.0, check_determinism),
)


def verify(out_root: str | Path | None = None, quiet: bool = False) -> list[CriterionResult]:
    """Run the acceptance gate, printing one pass/fail line per check; returns the results.

    Each check is timed here and fails if it overran its budget;
    ``details["budget_s"]`` records it.  ``quiet`` silences only the inner
    drivers, never the pass/fail lines.  The gate writes ``results.json``
    (headline numbers, no wall times, so reruns are byte-identical) and a
    manifest into ``out_root``, by default ``default_out_dir("verify")``.
    The manifest lists ``results.json`` and every file that a driver
    manifest one level below lists.
    """
    out = make_out_dir(out_root if out_root is not None else default_out_dir("verify"))
    started = time.perf_counter()
    results = []
    for cid, name, budget_s, check in CHECKS:
        check_started = time.perf_counter()
        passed, headline, details = check(out, quiet)
        seconds = time.perf_counter() - check_started
        result = CriterionResult(
            cid, name, passed and seconds <= budget_s, seconds, headline,
            {**details, "budget_s": budget_s},
        )
        results.append(result)
        print(
            f"[{'PASS' if result.passed else 'FAIL'}] {result.cid} {result.name}: "
            f"{result.headline} ({result.seconds:.1f}s)",
            flush=True,
        )
    all_passed = all(r.passed for r in results)
    write_json(
        out / "results.json",
        {
            "all_passed": all_passed,
            "results": [
                {
                    "cid": r.cid,
                    "name": r.name,
                    "passed": r.passed,
                    "details": r.details,
                }
                for r in results
            ],
        },
    )
    # the drivers the checks ran certified their own files; list those again
    written = [out / "results.json"]
    for sub in sorted(out.glob(f"*/{MANIFEST_NAME}")):
        written += [sub.parent / rel for rel in json.loads(sub.read_text())["checksums"]]
    write_manifest(out, {"experiment": "verify"}, time.perf_counter() - started, written)
    print(
        ("all checks passed" if all_passed else "SOME CHECKS FAILED")
        + f" ({time.perf_counter() - started:.1f}s total)",
        flush=True,
    )
    return results
