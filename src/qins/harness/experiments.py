"""Experiment drivers: complete, reproducible runs with their own records.

Every driver writes into one output directory: data files, a
``report.json`` with the headline numbers, and finally a manifest with
the config echo and a sha256 of every other file.  The manifest is
written only after the run has fully succeeded, so its presence marks a
finished directory.  All numeric output is deterministic for a fixed
config and seed; wall time appears only in the manifest.

Drivers run unforced.  Body forces are part of the library API
(:class:`qins.models.ForcingSpec`) and of the tests, but none of the
canned experiments needs one.

Runs go one after another.  ``run_free_run`` and ``run_transport_check``
still accept a ``threads`` keyword and ignore it, because the benchmark
workloads in ``perfbench/workloads.py`` pass ``threads=1``.
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from ..diagnostics import (
    EnergyBudgetRow,
    ParticleSet,
    divergence_norm,
    energy_audit,
    galilean_invariance_report,
    transport_check,
)
from ..fields import ScalarField, integrate, l2_norm, make_grid
from ..models import (
    ForcingSpec,
    ModelConfig,
    SimulationBlowupError,
    State,
    blowup_guard,
    consistent_pressure,
    fixed_step,
    galilean_alt_force,
    project_divergence_free,
    projected_rhs,
    simulate,
    stable_dt,
    step_rk4,
    temam_rhs,
)
from ..operators import divergence
from .config import ExperimentConfig, config_echo
from .initial_conditions import initial_condition, taylor_green_exact, taylor_green_state
from .io import RunTimer, write_json, write_manifest, write_snapshot, write_timeseries


def resolve_out_dir(cfg: ExperimentConfig, override: str | Path | None = None) -> Path:
    """Output directory: explicit override, then the config, then $QINS_OUT."""
    if override is not None:
        return Path(override)
    if cfg.out_dir:
        return Path(cfg.out_dir)
    return Path(os.environ.get("QINS_OUT", "qins_out")) / cfg.experiment


def _say(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg, flush=True)


def _strictly_decreasing(seq) -> bool:
    return all(b < a for a, b in zip(seq, seq[1:]))


def _loglog_slope(xs, ys) -> float | None:
    """Least-squares slope of log(y) against log(x); None if degenerate."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2 or (xs <= 0).any() or (ys <= 0).any():
        return None
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


# -- taylor-green benchmark ----------------------------------------------------


def run_taylor_green(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    quiet: bool = False,
) -> dict:
    """Projection-solver benchmark against the decaying vortex array.

    Runs the incompressible solver on n and 2n grids and reports the L2
    velocity error against the closed form, plus the observed order
    between the two grids.  The splitting is first order in dt, so the
    step is refined like h^2 to keep the time error from masking the
    spatial order.
    """
    out = resolve_out_dir(cfg, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timer = RunTimer.start()
    cfg_inc = ModelConfig(
        model="incompressible", re=cfg.model.re, convection=cfg.model.convection
    )

    def one(n: int):
        grid = make_grid(n)
        state0 = taylor_green_state(grid)
        dt = min(cfg.cfl * grid.spacing**2, stable_dt(state0, cfg_inc, cfg.cfl))
        final, _, dt_used = simulate(state0, cfg_inc, ForcingSpec.zero(), cfg.t_final, dt=dt)
        exact = taylor_green_exact(grid, cfg.t_final, cfg_inc.re)
        return {
            "n": n,
            "dt": dt_used,
            "steps": int(round(cfg.t_final / dt_used)),
            "velocity_error": l2_norm(final.v - exact.v),
            "final": final,
        }

    coarse, fine = one(cfg.n), one(2 * cfg.n)
    order = float(np.log2(coarse["velocity_error"] / fine["velocity_error"]))
    write_snapshot(coarse.pop("final"), out / "final_coarse")
    write_snapshot(fine.pop("final"), out / "final_fine")
    report = {
        "experiment": "taylor_green",
        "re": cfg.model.re,
        "t_final": cfg.t_final,
        "coarse": coarse,
        "fine": fine,
        "observed_order": order,
    }
    write_json(out / "report.json", report)
    write_manifest(out, config_echo(cfg), timer.elapsed())
    _say(
        quiet,
        f"taylor_green: error {coarse['velocity_error']:.3e} (n={coarse['n']}) -> "
        f"{fine['velocity_error']:.3e} (n={fine['n']}), order {order:.3f}",
    )
    return report


# -- bulk-modulus sweep --------------------------------------------------------


def run_k_sweep(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    quiet: bool = False,
) -> dict:
    """Bulk-modulus sweep against a matched incompressible reference.

    The initial velocity is projected divergence-free and the initial
    pressure solved from the instantaneous momentum balance, so every
    run starts on the slow manifold.  The divergence each run then
    develops is the model's own O(1/K) response, not a decaying acoustic
    transient of the data; without this preparation the sweep measures
    the (nearly K-independent) decay of the initial sound content
    instead.  The reference trajectory integrates the projected
    right-hand side with the same RK4 scheme, keeping its time error
    orders of magnitude below the K effects being compared.
    """
    out = resolve_out_dir(cfg, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timer = RunTimer.start()
    forcing = ForcingSpec.zero()
    grid = make_grid(cfg.n)
    raw = initial_condition(cfg.initial_condition, grid)
    base_model = replace(cfg.model, model="temam", k=cfg.model.k or cfg.k_list[0])

    v0, _ = project_divergence_free(raw.v)
    p0 = consistent_pressure(v0, forcing, base_model)
    state0 = State(v0, p0, 0.0)
    preparation = {
        "div_norm_raw": l2_norm(divergence(raw.v)),
        "div_norm_prepared": l2_norm(divergence(v0)),
    }

    cfg_ref = ModelConfig(
        model="incompressible", re=cfg.model.re, convection=cfg.model.convection
    )
    ref = State(v0, ScalarField.zeros(grid), 0.0)
    ref_steps, ref_dt = fixed_step(ref, cfg_ref, cfg.t_final, cfl=cfg.cfl)

    def ref_rates(y: tuple, t: float):
        return projected_rhs(State(y[0], y[1], t), forcing, cfg_ref)

    for _ in range(ref_steps):
        with blowup_guard(ref, cfg_ref, ref_dt):
            (v, p), _ = step_rk4(ref_rates, (ref.v, ref.p), ref.time, ref_dt)
        ref = State(v, p, ref.time + ref_dt)

    def member(k: float) -> dict:
        cfg_k = replace(base_model, k=k)
        peak = [0.0]

        def watch_div(s: State) -> None:
            peak[0] = max(peak[0], divergence_norm(s))

        try:
            final, _, dt_used = simulate(
                state0, cfg_k, forcing, cfg.t_final, cfl=cfg.cfl, observer=watch_div
            )
        except SimulationBlowupError as exc:
            return {"k": k, "failed": str(exc)}
        return {
            "k": k,
            "dt": dt_used,
            "steps": int(round(cfg.t_final / dt_used)),
            "max_div_norm": peak[0],
            "terminal_velocity_diff": l2_norm(final.v - ref.v),
        }

    members = [member(k) for k in cfg.k_list]

    ok = [m for m in members if "failed" not in m]
    divs = [m["max_div_norm"] for m in ok]
    diffs = [m["terminal_velocity_diff"] for m in ok]
    report = {
        "experiment": "k_sweep",
        "n": cfg.n,
        "re": cfg.model.re,
        "t_final": cfg.t_final,
        "preparation": preparation,
        "reference": {"dt": ref_dt, "steps": ref_steps},
        "members": members,
        "all_completed": len(ok) == len(members),
        "div_strictly_decreasing": _strictly_decreasing(divs),
        "diff_strictly_decreasing": _strictly_decreasing(diffs),
        "div_slope": _loglog_slope([m["k"] for m in ok], divs),
    }
    lines = ["k,dt,steps,max_div_norm,terminal_velocity_diff"]
    for m in ok:
        lines.append(
            f"{m['k']:.17g},{m['dt']:.17g},{m['steps']},"
            f"{m['max_div_norm']:.17g},{m['terminal_velocity_diff']:.17g}"
        )
    (out / "members.csv").write_text("\n".join(lines) + "\n")
    write_json(out / "report.json", report)
    write_manifest(out, config_echo(cfg), timer.elapsed())
    for m in members:
        if "failed" in m:
            _say(quiet, f"k_sweep: k={m['k']:g} FAILED: {m['failed']}")
        else:
            _say(
                quiet,
                f"k_sweep: k={m['k']:g} max|div v|={m['max_div_norm']:.3e} "
                f"terminal diff={m['terminal_velocity_diff']:.3e}",
            )
    if report["div_slope"] is not None:
        _say(quiet, f"k_sweep: divergence slope {report['div_slope']:.3f}")
    return report


# -- energy budget audit -------------------------------------------------------


def paired_energy_audit(
    n: int,
    t_final: float,
    model: ModelConfig,
    ic_spec,
    cfl: float,
    dt: float | None = None,
) -> tuple[list[EnergyBudgetRow], list[EnergyBudgetRow], float]:
    """Two identical unforced runs of the relaxed model, extra force on and off.

    Returns ``(rows_on, rows_off, dt_used)``.  Both runs share the same
    initial state and time step, so the rows align sample by sample and
    the off-variant's residual can be compared directly against the
    dilatational defect the extra force exists to cancel.
    """
    grid = make_grid(n)
    state0 = initial_condition(ic_spec, grid)
    forcing = ForcingSpec.zero()
    cfg_on = replace(model, model="temam", extra_force="temam")
    cfg_off = replace(model, model="temam", extra_force="none")
    dt_used = dt if dt is not None else stable_dt(state0, cfg_on, cfl)
    _, stored_on, dt_on = simulate(state0, cfg_on, forcing, t_final, dt=dt_used, store_every=1)
    _, stored_off, _ = simulate(state0, cfg_off, forcing, t_final, dt=dt_used, store_every=1)
    rows_on = energy_audit(stored_on, forcing, cfg_on)
    rows_off = energy_audit(stored_off, forcing, cfg_off)
    return rows_on, rows_off, dt_on


def audit_summary(rows_on: list[EnergyBudgetRow], rows_off: list[EnergyBudgetRow]) -> dict:
    """Headline numbers of a paired audit.

    With the extra force on, the residual is pure discretization error.
    With it off, residual minus predicted defect plays that role, and
    the correlation says whether the residual tracks the defect at all.
    """
    res_on = np.array([r.residual for r in rows_on])
    total_on = np.array([r.e_kin + r.e_press for r in rows_on])
    res_off = np.array([r.residual for r in rows_off])
    defect_off = np.array([r.defect_predicted for r in rows_off])
    corr = None
    if res_off.std() > 0.0 and defect_off.std() > 0.0:
        corr = float(np.corrcoef(res_off, defect_off)[0, 1])
    rises = np.diff(total_on)
    return {
        "max_abs_residual_on": float(np.abs(res_on).max()),
        "max_abs_residual_off_minus_defect": float(np.abs(res_off - defect_off).max()),
        "defect_scale": float(np.abs(defect_off).max()),
        "residual_defect_correlation": corr,
        "max_total_energy_rise_on": float(max(0.0, rises.max())) if len(rises) else 0.0,
    }


def run_energy_audit(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    quiet: bool = False,
) -> dict:
    """Paired budget audit of the relaxed model (extra force on vs off)."""
    out = resolve_out_dir(cfg, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timer = RunTimer.start()
    rows_on, rows_off, dt_used = paired_energy_audit(
        cfg.n, cfg.t_final, cfg.model, cfg.initial_condition, cfg.cfl
    )
    write_timeseries(rows_on, out / "budget_extra_on.csv")
    write_timeseries(rows_off, out / "budget_extra_off.csv")
    report = {
        "experiment": "energy_audit",
        "n": cfg.n,
        "t_final": cfg.t_final,
        "dt": dt_used,
        "samples": len(rows_on) + 2,
        **audit_summary(rows_on, rows_off),
    }
    write_json(out / "report.json", report)
    write_manifest(out, config_echo(cfg), timer.elapsed())
    _say(
        quiet,
        f"energy_audit: |residual| {report['max_abs_residual_on']:.3e} with the force, "
        f"|residual-defect| {report['max_abs_residual_off_minus_defect']:.3e} without "
        f"(defect scale {report['defect_scale']:.3e})",
    )
    return report


# -- frame-change experiment ---------------------------------------------------


def run_galilean(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    quiet: bool = False,
) -> dict:
    """Frame-change gaps, and the K-decay of the frame-indifferent force.

    The run is timed so the boost displacement w*t lands on whole grid
    cells (the larger velocity component decides; if the other one then
    falls between cells the report flags it and the gaps include
    interpolation error).  The state is advanced to that time with the
    relaxed model and the inertial term and extra force are compared
    across frames.  Separately, one run per k in ``k_list`` is advanced
    with the alternative force enabled; its terminal norm is fitted
    against k, and should fall off like 1/k.
    """
    out = resolve_out_dir(cfg, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timer = RunTimer.start()
    grid = make_grid(cfg.n)
    h = grid.spacing
    wx, wy = cfg.boost_w
    speed = max(abs(wx), abs(wy))
    if speed > 0.0:
        cells = max(1, round(cfg.t_final * speed / h))
        t_boost = cells * h / speed
    else:
        t_boost = cfg.t_final
    forcing = ForcingSpec.zero()
    base_model = replace(cfg.model, model="temam", k=cfg.model.k or 100.0)
    state0 = initial_condition(cfg.initial_condition, grid)
    state_r, _, dt_used = simulate(state0, base_model, forcing, t_boost, cfl=cfg.cfl)
    rep = galilean_invariance_report(state_r, cfg.boost_w, base_model)
    rel_gap_err = abs(rep.temam_gap - rep.temam_gap_closed_form) / max(
        rep.temam_gap_closed_form, 1e-300
    )

    # the members start on the slow manifold: raw compressive data carries
    # acoustic pressure that grows like sqrt(k) and would mask the 1/k
    # decay being measured (the gap report above keeps the raw state, it
    # wants the divergence)
    v0p, _ = project_divergence_free(state0.v)
    prepared0 = State(v0p, consistent_pressure(v0p, forcing, base_model), 0.0)

    def alt_member(k: float) -> dict:
        cfg_k = replace(base_model, k=k, extra_force="galilean_alt")
        final, _, _ = simulate(prepared0, cfg_k, forcing, t_boost, cfl=cfg.cfl)
        # acceleration estimate without the alternative force itself; the
        # neglected feedback shifts the norm by O(1/k^2)
        dv_dt, _ = temam_rhs(final, forcing, replace(cfg_k, extra_force="none"))
        force = galilean_alt_force(final, dv_dt, cfg_k)
        return {"k": k, "alt_force_norm": l2_norm(force)}

    alts = [alt_member(k) for k in cfg.k_list]
    slope = _loglog_slope([a["k"] for a in alts], [a["alt_force_norm"] for a in alts])

    write_snapshot(state_r, out / "boost_source")
    report = {
        "experiment": "galilean",
        "n": cfg.n,
        "boost_w": [wx, wy],
        "t_boost": t_boost,
        "dt": dt_used,
        "shift_cells": [wx * t_boost / h, wy * t_boost / h],
        "off_grid": rep.off_grid,
        "standard_gap": rep.standard_gap,
        "temam_gap": rep.temam_gap,
        "temam_gap_closed_form": rep.temam_gap_closed_form,
        "temam_gap_rel_err": rel_gap_err,
        "alt_force": {"members": alts, "slope": slope},
    }
    write_json(out / "report.json", report)
    write_manifest(out, config_echo(cfg), timer.elapsed())
    _say(
        quiet,
        f"galilean: standard gap {rep.standard_gap:.3e}, "
        f"extra-force gap {rep.temam_gap:.6e} vs closed form "
        f"{rep.temam_gap_closed_form:.6e}",
    )
    if slope is not None:
        _say(quiet, f"galilean: alternative force norm slope {slope:.3f} in k")
    return report


# -- particle transport audit --------------------------------------------------


def simulate_with_density(
    state0: State,
    cfg: ModelConfig,
    forcing: ForcingSpec,
    t_final: float,
    cfl: float,
    dt: float | None = None,
) -> tuple[list[State], list[ScalarField], float]:
    """Advance the relaxed model while co-evolving a density field.

    The density starts at one and obeys the full mass balance
    d rho/dt = -div(rho v) inside the same RK4 stages as (v, p), so a
    particle Jacobian integrated to O(dt^4) can be cross-checked against
    1/rho along paths at matching accuracy.  Returns every step:
    ``(states, densities, dt_used)``.
    """
    steps, dt_used = fixed_step(state0, cfg, t_final, dt, cfl)

    def rates(y: tuple, t: float):
        v, p, rho = y
        dv, dp = temam_rhs(State(v, p, t), forcing, cfg)
        return dv, dp, -divergence(rho * v)

    state, rho = state0, ScalarField.constant(state0.grid, 1.0)
    states, densities = [state], [rho]
    for _ in range(steps):
        with blowup_guard(state, cfg, dt_used):
            (v, p, rho), _ = step_rk4(rates, (state.v, state.p, rho), state.time, dt_used)
        state = State(v, p, state.time + dt_used)
        states.append(state)
        densities.append(rho)
    return states, densities, dt_used


def run_transport_check(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    threads: int = 1,
    quiet: bool = False,
) -> dict:
    """Referential transport audit along particle paths.

    Particles seed the centered quarter-area patch of the square, so the
    audited region is a genuinely moving sub-body; on the whole torus
    the boundary terms vanish and the check would be too easy.
    """
    out = resolve_out_dir(cfg, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timer = RunTimer.start()
    grid = make_grid(cfg.n)
    state0 = initial_condition(cfg.initial_condition, grid)
    model = replace(cfg.model, model="temam", k=cfg.model.k or 100.0)
    states, densities, dt_used = simulate_with_density(
        state0, model, ForcingSpec.zero(), cfg.t_final, cfg.cfl
    )
    period = grid.period
    particles = ParticleSet.uniform(
        period,
        nx=cfg.particles,
        ny=cfg.particles,
        origin=(period / 4.0, period / 4.0),
        extent=(period / 2.0, period / 2.0),
    )
    rep = transport_check(states, particles, model, rho_fields=densities, rho_star=1.0)
    lines = ["time,lhs,rhs"]
    for t, a, b in zip(rep.times, rep.lhs, rep.rhs):
        lines.append(f"{t:.17g},{a:.17g},{b:.17g}")
    (out / "transport.csv").write_text("\n".join(lines) + "\n")
    report = {
        "experiment": "transport_check",
        "n": cfg.n,
        "t_final": cfg.t_final,
        "dt": dt_used,
        "samples": len(states),
        "particles_per_side": cfg.particles,
        "gap": rep.gap,
        "jacobian_route_gap": rep.jacobian_route_gap,
        "under_resolved": rep.under_resolved,
    }
    write_json(out / "report.json", report)
    write_manifest(out, config_echo(cfg), timer.elapsed())
    _say(
        quiet,
        f"transport_check: gap {rep.gap:.3e}, jacobian routes within "
        f"{rep.jacobian_route_gap:.3e}" + (" (UNDER-RESOLVED)" if rep.under_resolved else ""),
    )
    return report


# -- free run ------------------------------------------------------------------


def run_free_run(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    threads: int = 1,
    quiet: bool = False,
) -> dict:
    """Plain run of the configured model with a budget table and snapshots.

    Stores every step in memory for the budget, so it is meant for the
    moderate runs the other drivers are built from, not for production
    campaigns.
    """
    out = resolve_out_dir(cfg, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timer = RunTimer.start()
    grid = make_grid(cfg.n)
    state0 = initial_condition(cfg.initial_condition, grid)
    forcing = ForcingSpec.zero()
    final, stored, dt_used = simulate(
        state0, cfg.model, forcing, cfg.t_final, cfl=cfg.cfl, store_every=1
    )
    if len(stored) >= 3:
        rows = energy_audit(stored, forcing, cfg.model)
        write_timeseries(rows, out / "budget.csv")
    if cfg.snapshot_every:
        for idx in range(0, len(stored), cfg.snapshot_every):
            write_snapshot(stored[idx], out / f"snap_{idx:06d}")
    write_snapshot(final, out / "final")
    report = {
        "experiment": "free_run",
        "model": cfg.model.model,
        "n": cfg.n,
        "t_final": final.time,
        "dt": dt_used,
        "steps": len(stored) - 1,
        "e_kin_final": 0.5 * integrate(final.v.magnitude_squared()),
        "div_norm_final": divergence_norm(final),
    }
    write_json(out / "report.json", report)
    write_manifest(out, config_echo(cfg), timer.elapsed())
    _say(
        quiet,
        f"free_run: {report['steps']} steps to t={final.time:g}, "
        f"e_kin {report['e_kin_final']:.6g}, |div v| {report['div_norm_final']:.3e}",
    )
    return report


DRIVERS = {
    "taylor_green": run_taylor_green,
    "k_sweep": run_k_sweep,
    "energy_audit": run_energy_audit,
    "galilean": run_galilean,
    "transport_check": run_transport_check,
    "free_run": run_free_run,
}


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    quiet: bool = False,
) -> dict:
    """Dispatch a config to its driver; returns the report dict."""
    return DRIVERS[cfg.experiment](cfg, out_dir=out_dir, quiet=quiet)
