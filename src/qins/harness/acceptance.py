"""Acceptance gate: the eight guarantees this package ships with.

``verify`` runs every check, prints one pass/fail line per guarantee,
writes ``results.json`` plus a manifest into the output directory, and
returns a process exit code.  Each check re-derives its numbers from
scratch; nothing is cached between runs, so two invocations with the
same profile produce byte-identical data files.

Checks with pinned time budgets enforce them only in the ``desk``
profile; the ``quick`` profile runs the same logic on smaller grids for
fast iteration.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..diagnostics import ParticleSet, transport_check
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
from ..models import ForcingSpec, ModelConfig, simulate
from ..operators import convection, divergence, grad_div, gradient, laplacian
from .config import ExperimentConfig, InitialConditionSpec
from .experiments import (
    paired_energy_audit,
    run_free_run,
    run_galilean,
    run_k_sweep,
    run_taylor_green,
    simulate_with_density,
)
from .initial_conditions import initial_condition
from .io import RunTimer, read_snapshot, write_json, write_manifest

ROUND_OFF = 1e-12  # identity checks run on O(1) fields, so this is absolute


@dataclass(frozen=True)
class Profile:
    """Grid sizes and budgets for one verification profile."""

    name: str
    ops_ns: tuple[int, int] = (64, 128)
    tg_n: int = 32
    tg_budget_s: float = 60.0
    sweep_n: int = 64
    sweep_ks: tuple[float, ...] = (1e2, 1e3, 1e4, 1e5)
    sweep_t: float = 0.5
    sweep_budget_s: float = 300.0
    audit_n: int = 32
    audit_t: float = 0.5
    audit_budget_s: float = 120.0
    ident_ns: tuple[int, int] = (64, 128)
    power_n: int = 32
    power_t: float = 0.25
    ident_budget_s: float = 30.0
    gal_n: int = 64
    gal_t: float = 0.5
    gal_ks: tuple[float, ...] = (1e2, 1e3, 1e4, 1e5)
    transport_n: int = 32
    transport_t: float = 0.4
    transport_budget_s: float = 60.0
    det_n: int = 32
    det_t: float = 0.1
    enforce_budgets: bool = True


PROFILES = {
    "desk": Profile(name="desk"),
    "quick": Profile(
        name="quick",
        ops_ns=(32, 64),
        tg_n=24,
        sweep_n=32,
        sweep_ks=(1e2, 1e3, 1e4),
        sweep_t=0.25,
        audit_n=24,
        audit_t=0.4,
        ident_ns=(32, 64),
        power_n=24,
        power_t=0.2,
        gal_n=32,
        gal_t=0.4,
        transport_n=24,
        transport_t=0.3,
        det_n=16,
        det_t=0.05,
        enforce_budgets=False,
    ),
}


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


# -- C1: operator convergence and summation by parts ---------------------------


def check_operators(prof: Profile, out: Path, quiet: bool) -> CriterionResult:
    started = time.perf_counter()
    errs: dict[str, list[float]] = {}
    ibp_rels = []
    for n in prof.ops_ns:
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
    passed = worst_order >= 1.9 and worst_ibp <= ROUND_OFF
    return CriterionResult(
        cid="C1",
        name="operator convergence and summation by parts",
        passed=passed,
        seconds=time.perf_counter() - started,
        headline=f"min order {worst_order:.2f}, parts-summation rel {worst_ibp:.1e}",
        details={
            "grids": list(prof.ops_ns),
            "errors": {k: list(map(float, v)) for k, v in errs.items()},
            "orders": {k: float(v) for k, v in orders.items()},
            "integration_by_parts_rel": list(map(float, ibp_rels)),
        },
    )


# -- C2: vortex benchmark ------------------------------------------------------


def check_taylor_green(prof: Profile, out: Path, quiet: bool) -> CriterionResult:
    started = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="taylor_green",
        n=prof.tg_n,
        t_final=1.0,
        model=ModelConfig(model="incompressible", re=100.0),
    )
    report = run_taylor_green(cfg, out_dir=out / "taylor_green", quiet=quiet)
    seconds = time.perf_counter() - started
    order = report["observed_order"]
    passed = order >= 1.9
    if prof.enforce_budgets:
        passed = passed and seconds <= prof.tg_budget_s
    return CriterionResult(
        cid="C2",
        name="decaying-vortex benchmark order",
        passed=passed,
        seconds=seconds,
        headline=(
            f"order {order:.3f} between n={report['coarse']['n']} and n={report['fine']['n']}"
        ),
        details={
            "observed_order": float(order),
            "error_coarse": float(report["coarse"]["velocity_error"]),
            "error_fine": float(report["fine"]["velocity_error"]),
            "budget_s": prof.tg_budget_s,
        },
    )


# -- C3: bulk-modulus sweep ----------------------------------------------------


def check_k_sweep(prof: Profile, out: Path, quiet: bool) -> CriterionResult:
    started = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="k_sweep",
        n=prof.sweep_n,
        t_final=prof.sweep_t,
        model=ModelConfig(model="temam", re=100.0, k=100.0),
        k_list=prof.sweep_ks,
        initial_condition=InitialConditionSpec(kind="taylor_green_pulse", amplitude=0.05),
    )
    report = run_k_sweep(cfg, out_dir=out / "k_sweep", quiet=quiet)
    seconds = time.perf_counter() - started
    slope = report["div_slope"]
    passed = (
        report["all_completed"]
        and report["div_strictly_decreasing"]
        and report["diff_strictly_decreasing"]
        and slope is not None
        and -1.3 <= slope <= -0.7
    )
    if prof.enforce_budgets:
        passed = passed and seconds <= prof.sweep_budget_s
    return CriterionResult(
        cid="C3",
        name="bulk-modulus sweep limit behavior",
        passed=passed,
        seconds=seconds,
        headline=(
            f"slope {slope:.3f}" if slope is not None else "slope undefined"
        )
        + f", div decreasing {report['div_strictly_decreasing']}"
        + f", diff decreasing {report['diff_strictly_decreasing']}",
        details={
            "div_slope": slope,
            "div_strictly_decreasing": report["div_strictly_decreasing"],
            "diff_strictly_decreasing": report["diff_strictly_decreasing"],
            "all_completed": report["all_completed"],
            "members": report["members"],
            "budget_s": prof.sweep_budget_s,
        },
    )


# -- C4: energy budget closure -------------------------------------------------


def check_energy_budget(prof: Profile, out: Path, quiet: bool) -> CriterionResult:
    started = time.perf_counter()
    model = ModelConfig(model="temam", re=100.0, k=100.0)
    ic = InitialConditionSpec(kind="taylor_green_pulse", amplitude=0.1)
    n = prof.audit_n
    grid = make_grid(n)
    state0 = initial_condition(ic, grid)
    from ..models import stable_dt  # local import keeps the module header lean

    dt = stable_dt(state0, model, 0.4)
    on_c, off_c, dt_c = paired_energy_audit(n, prof.audit_t, model, ic, 0.4, dt=dt)
    on_f, off_f, dt_f = paired_energy_audit(2 * n, prof.audit_t, model, ic, 0.4, dt=dt / 2.0)

    def residual_max(rows):
        return max(abs(r.residual) for r in rows)

    def off_gap_max(rows):
        return max(abs(r.residual - r.defect_predicted) for r in rows)

    err_on = (residual_max(on_c), residual_max(on_f))
    err_off = (off_gap_max(off_c), off_gap_max(off_f))
    order_on = _order(*err_on)
    order_off = _order(*err_off)
    res_off = np.array([r.residual for r in off_f])
    defect_off = np.array([r.defect_predicted for r in off_f])
    corr = float(np.corrcoef(res_off, defect_off)[0, 1])
    total_f = np.array([r.e_kin + r.e_press for r in on_f])
    max_rise = float(max(0.0, np.diff(total_f).max()))
    rise_tol = 10.0 * err_on[1] * dt_f + 1e-14
    seconds = time.perf_counter() - started
    passed = (
        order_on >= 1.9
        and order_off >= 1.9
        and corr > 0.99
        and max_rise <= rise_tol
    )
    if prof.enforce_budgets:
        passed = passed and seconds <= prof.audit_budget_s
    return CriterionResult(
        cid="C4",
        name="energy budget closure",
        passed=passed,
        seconds=seconds,
        headline=(
            f"residual orders {order_on:.2f} (force on) / {order_off:.2f} (force off), "
            f"defect correlation {corr:.4f}"
        ),
        details={
            "residual_on": list(map(float, err_on)),
            "residual_off_minus_defect": list(map(float, err_off)),
            "order_on": float(order_on),
            "order_off": float(order_off),
            "correlation": corr,
            "max_total_energy_rise": max_rise,
            "rise_tolerance": float(rise_tol),
            "dt": [float(dt_c), float(dt_f)],
            "budget_s": prof.audit_budget_s,
        },
    )


# -- C5: inertial bookkeeping identities ----------------------------------------


def check_inertia_identities(prof: Profile, out: Path, quiet: bool) -> CriterionResult:
    started = time.perf_counter()
    details: dict = {}

    # pointwise identities at round-off on O(1) manufactured fields
    grid = make_grid(prof.ident_ns[0])
    v = _test_vector(grid)
    dvdt = VectorField.from_function(
        grid,
        lambda X, Y: 0.5 * np.cos(2 * X) * np.sin(Y),
        lambda X, Y: 0.5 * np.sin(X) * np.cos(2 * Y),
    )
    rho_star = 1.3
    sample_ref = KinematicSample(
        v=v, dv_dt_partial=dvdt, rho=ScalarField.constant(grid, rho_star), rho_star=rho_star
    )
    force_diff = inertial_force_star(sample_ref) - inertial_force_standard(sample_ref)
    closed = ((-0.5 * rho_star) * divergence(v)) * v
    details["force_difference_abs"] = float(l2_norm(force_diff - closed))

    rho = ScalarField.from_function(grid, lambda X, Y: 1.0 + 0.3 * np.sin(X) * np.cos(Y))
    sample_gen = KinematicSample(v=v, dv_dt_partial=dvdt, rho=rho, rho_star=1.0)
    jk = jacobian_from_density(rho, 1.0) * kinetic_density_spatial(sample_gen)
    details["jacobian_kinetic_abs"] = float(l2_norm(jk - kinetic_density_star(sample_gen)))

    rate_disc = ScalarField(grid, -rho.values * divergence(v).values)
    details["rate_identity_discrete_abs"] = float(
        kappa_r_star_rate_identity_residual(sample_gen, rate_disc)
    )

    # analytic-rate route: the only discrete-vs-analytic gap is the divergence,
    # so the residual must shrink at second order
    rate_residuals = []
    for n in prof.ident_ns:
        g = make_grid(n)
        vn = _test_vector(g)
        dn = VectorField.from_function(
            g,
            lambda X, Y: 0.5 * np.cos(2 * X) * np.sin(Y),
            lambda X, Y: 0.5 * np.sin(X) * np.cos(2 * Y),
        )
        rn = ScalarField.from_function(g, lambda X, Y: 1.0 + 0.3 * np.sin(X) * np.cos(Y))
        sn = KinematicSample(v=vn, dv_dt_partial=dn, rho=rn, rho_star=1.0)
        rate_true = ScalarField(g, -rn.values * _test_vector_div(g).values)
        rate_residuals.append(kappa_r_star_rate_identity_residual(sn, rate_true))
    rate_order = _order(rate_residuals[0], rate_residuals[1])
    details["rate_identity_analytic"] = list(map(float, rate_residuals))
    details["rate_identity_order"] = float(rate_order)

    # power consistency along a simulated trajectory
    def power_error(n: int, dt: float) -> float:
        g = make_grid(n)
        ic = initial_condition(
            InitialConditionSpec(kind="taylor_green_pulse", amplitude=0.1), g
        )
        model = ModelConfig(model="temam", re=100.0, k=100.0)
        _, stored, dt_used = simulate(
            ic, model, ForcingSpec.zero(), prof.power_t, dt=dt, store_every=1
        )
        ones = ScalarField.constant(g, 1.0)
        worst = 0.0
        for i in range(1, len(stored) - 1):
            s = stored[i]
            accel = (stored[i + 1].v - stored[i - 1].v) / (2.0 * dt_used)
            sample = KinematicSample(v=s.v, dv_dt_partial=accel, rho=ones, rho_star=1.0)
            rhs = integrate(((-1.0) * inertial_force_star(sample)).dot(s.v))
            lhs = (
                0.5 * integrate(stored[i + 1].v.magnitude_squared())
                - 0.5 * integrate(stored[i - 1].v.magnitude_squared())
            ) / (2.0 * dt_used)
            worst = max(worst, abs(lhs - rhs))
        return worst

    from ..models import stable_dt

    g0 = make_grid(prof.power_n)
    ic0 = initial_condition(InitialConditionSpec(kind="taylor_green_pulse", amplitude=0.1), g0)
    dt0 = stable_dt(ic0, ModelConfig(model="temam", re=100.0, k=100.0), 0.4)
    power_errs = (power_error(prof.power_n, dt0), power_error(2 * prof.power_n, dt0 / 2.0))
    power_order = _order(*power_errs)
    details["power_consistency"] = list(map(float, power_errs))
    details["power_consistency_order"] = float(power_order)

    seconds = time.perf_counter() - started
    passed = (
        details["force_difference_abs"] <= ROUND_OFF
        and details["jacobian_kinetic_abs"] <= ROUND_OFF
        and details["rate_identity_discrete_abs"] <= ROUND_OFF
        and rate_order >= 1.9
        and power_order >= 1.9
    )
    if prof.enforce_budgets:
        passed = passed and seconds <= prof.ident_budget_s
    return CriterionResult(
        cid="C5",
        name="inertial bookkeeping identities",
        passed=passed,
        seconds=seconds,
        headline=(
            f"identities at {max(details['force_difference_abs'], details['jacobian_kinetic_abs'], details['rate_identity_discrete_abs']):.1e}, "
            f"rate order {rate_order:.2f}, power order {power_order:.2f}"
        ),
        details={**details, "budget_s": prof.ident_budget_s},
    )


# -- C6: frame-change behavior ---------------------------------------------------


def check_frame_behavior(prof: Profile, out: Path, quiet: bool) -> CriterionResult:
    started = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="galilean",
        n=prof.gal_n,
        t_final=prof.gal_t,
        model=ModelConfig(model="temam", re=100.0, k=100.0),
        k_list=prof.gal_ks,
        initial_condition=InitialConditionSpec(kind="taylor_green_pulse", amplitude=0.1),
        boost_w=(1.0, 0.0),
    )
    report = run_galilean(cfg, out_dir=out / "galilean", quiet=quiet)
    seconds = time.perf_counter() - started
    slope = report["alt_force"]["slope"]
    passed = (
        not report["off_grid"]
        and report["standard_gap"] <= 1e-6
        and report["temam_gap_rel_err"] <= 0.01
        and slope is not None
        and -1.05 <= slope <= -0.95
    )
    return CriterionResult(
        cid="C6",
        name="frame-change behavior",
        passed=passed,
        seconds=seconds,
        headline=(
            f"standard gap {report['standard_gap']:.1e}, "
            f"force gap within {report['temam_gap_rel_err']:.2%} of closed form, "
            + (f"alt-force slope {slope:.3f}" if slope is not None else "alt-force slope undefined")
        ),
        details={
            "standard_gap": report["standard_gap"],
            "temam_gap": report["temam_gap"],
            "temam_gap_closed_form": report["temam_gap_closed_form"],
            "temam_gap_rel_err": report["temam_gap_rel_err"],
            "off_grid": report["off_grid"],
            "alt_force_slope": slope,
            "alt_force_members": report["alt_force"]["members"],
        },
    )


# -- C7: referential transport ---------------------------------------------------


def check_transport(prof: Profile, out: Path, quiet: bool) -> CriterionResult:
    started = time.perf_counter()
    model = ModelConfig(model="temam", re=100.0, k=100.0)
    ic = InitialConditionSpec(kind="taylor_green_pulse", amplitude=0.1)

    from ..models import stable_dt

    g0 = make_grid(prof.transport_n)
    dt0 = stable_dt(initial_condition(ic, g0), model, 0.4)

    def one(n: int, dt: float):
        g = make_grid(n)
        state0 = initial_condition(ic, g)
        states, densities, _ = simulate_with_density(
            state0, model, ForcingSpec.zero(), prof.transport_t, 0.4, dt=dt
        )
        period = g.period
        particles = ParticleSet.uniform(
            period,
            nx=32,
            ny=32,
            origin=(period / 4.0, period / 4.0),
            extent=(period / 2.0, period / 2.0),
        )
        return transport_check(states, particles, model, rho_fields=densities, rho_star=1.0)

    rep_c = one(prof.transport_n, dt0)
    rep_f = one(2 * prof.transport_n, dt0 / 2.0)
    gap_order = _order(rep_c.gap, rep_f.gap)
    j_order = _order(rep_c.jacobian_route_gap, rep_f.jacobian_route_gap)
    seconds = time.perf_counter() - started
    passed = (
        not rep_c.under_resolved
        and not rep_f.under_resolved
        and gap_order >= 1.9
        and (j_order >= 1.9 or rep_f.jacobian_route_gap <= 1e-11)
    )
    if prof.enforce_budgets:
        passed = passed and seconds <= prof.transport_budget_s
    return CriterionResult(
        cid="C7",
        name="referential transport along particles",
        passed=passed,
        seconds=seconds,
        headline=f"gap order {gap_order:.2f}, jacobian-route order {j_order:.2f}",
        details={
            "gap": [float(rep_c.gap), float(rep_f.gap)],
            "gap_order": float(gap_order),
            "jacobian_route_gap": [
                float(rep_c.jacobian_route_gap),
                float(rep_f.jacobian_route_gap),
            ],
            "jacobian_route_order": float(j_order),
            "under_resolved": [rep_c.under_resolved, rep_f.under_resolved],
            "budget_s": prof.transport_budget_s,
        },
    )


# -- C8: bit-reproducibility -----------------------------------------------------


def check_determinism(prof: Profile, out: Path, quiet: bool) -> CriterionResult:
    started = time.perf_counter()
    import hashlib
    import json

    cfg = ExperimentConfig(
        experiment="free_run",
        n=prof.det_n,
        t_final=prof.det_t,
        model=ModelConfig(model="temam", re=100.0, k=100.0),
        initial_condition=InitialConditionSpec(kind="random_smooth", seed=7, amplitude=0.3),
        snapshot_every=5,
    )
    checksums = []
    for tag in ("a", "b"):
        run_free_run(cfg, out_dir=out / f"determinism_{tag}", quiet=quiet)
        manifest = json.loads((out / f"determinism_{tag}" / "manifest.json").read_text())
        checksums.append(manifest["checksums"])
    identical = checksums[0] == checksums[1] and len(checksums[0]) > 0
    digest = hashlib.sha256(
        json.dumps(checksums[0], sort_keys=True).encode()
    ).hexdigest()
    seconds = time.perf_counter() - started
    # verify the snapshots round-trip while the two runs are on disk
    snap_a = read_snapshot(out / "determinism_a" / "final")
    snap_b = read_snapshot(out / "determinism_b" / "final")
    bitwise = bool(
        (snap_a.v.x == snap_b.v.x).all()
        and (snap_a.v.y == snap_b.v.y).all()
        and (snap_a.p.values == snap_b.p.values).all()
    )
    return CriterionResult(
        cid="C8",
        name="bit-reproducibility",
        passed=identical and bitwise,
        seconds=seconds,
        headline=(
            f"{len(checksums[0])} files, checksums {'identical' if identical else 'DIFFER'}"
        ),
        details={
            "files": len(checksums[0]),
            "identical": identical,
            "final_states_bitwise_equal": bitwise,
            "checksum_digest": digest,
        },
    )


CHECKS = (
    check_operators,
    check_taylor_green,
    check_k_sweep,
    check_energy_budget,
    check_inertia_identities,
    check_frame_behavior,
    check_transport,
    check_determinism,
)


def _resolve_root(out_root: str | Path | None) -> Path:
    if out_root:
        return Path(out_root)
    return Path(os.environ.get("QINS_OUT", "qins_out")) / "verify"


def run_checks(
    out_root: str | Path | None = None,
    profile: str = "desk",
    quiet: bool = False,
) -> list[CriterionResult]:
    """Run every check, printing one pass/fail line each; returns the results.

    ``quiet`` silences only the inner drivers, never the pass/fail lines.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}, expected one of {sorted(PROFILES)}")
    prof = PROFILES[profile]
    out = _resolve_root(out_root)
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for check in CHECKS:
        result = check(prof, out, quiet)
        results.append(result)
        print(
            f"[{'PASS' if result.passed else 'FAIL'}] {result.cid} {result.name}: "
            f"{result.headline} ({result.seconds:.1f}s)",
            flush=True,
        )
    return results


def verify(
    out_root: str | Path | None = None,
    profile: str = "desk",
    quiet: bool = False,
) -> int:
    """Run the acceptance gate; returns 0 only if every check passes.

    On top of :func:`run_checks` this writes ``results.json`` (headline
    numbers, no wall times, so reruns are byte-identical) and a manifest
    into the output directory.
    """
    out = _resolve_root(out_root)
    timer = RunTimer.start()
    results = run_checks(out, profile=profile, quiet=quiet)
    all_passed = all(r.passed for r in results)
    write_json(
        out / "results.json",
        {
            "profile": profile,
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
    write_manifest(out, {"profile": profile}, timer.elapsed())
    print(
        ("all checks passed" if all_passed else "SOME CHECKS FAILED")
        + f" ({timer.elapsed():.1f}s total)",
        flush=True,
    )
    return 0 if all_passed else 1
