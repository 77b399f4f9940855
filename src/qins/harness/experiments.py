"""Experiment drivers: complete, reproducible runs with their own records.

Every driver writes into one output directory: data files in the
formats of ``io``, then, through ``_finish``, a ``report.json`` with the
headline numbers and finally a manifest with the config echo and a
sha256 of every other file.  The manifest is
written only after the run has fully succeeded, so its presence marks a
finished directory.  All numeric output is deterministic for a fixed
config and seed; wall time appears only in the manifest.

Drivers run unforced, with ``ForcingSpec.zero()``.  A body force is
library API, ``ForcingSpec(fn)`` with ``fn(t)`` giving (2, n, n) samples;
the tests drive it, and none of the canned experiments needs one.

Runs go one after another.  ``run_free_run`` and ``run_transport_check``
still accept a ``threads`` keyword and ignore it, because the benchmark
workloads in ``perfbench/workloads.py`` pass ``threads=1``.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from ..diagnostics import (
    ParticleSet,
    divergence_norm,
    energy_audit,
    galilean_invariance_report,
    transport_check,
)
from ..fields import TWO_PI, ScalarField, VectorField, integrate, l2_norm, make_grid
from ..models import (
    ForcingSpec,
    ModelConfig,
    SimulationBlowupError,
    State,
    _TEMAM_WORK,
    _march,
    _momentum_source,
    consistent_pressure,
    fixed_step,
    galilean_alt_force,
    march,
    pack_state,
    project_divergence_free,
    simulate,
    stable_dt,
    step_rk4,
    temam_rhs,
    unpack_state,
)
from ..operators import _ddx, _ddy
from .config import ConfigError, ExperimentConfig, config_echo
from .initial_conditions import initial_condition, taylor_green_exact, taylor_green_state
from .io import (
    MEMBERS_COLUMNS,
    TRANSPORT_COLUMNS,
    append_state,
    default_out_dir,
    make_out_dir,
    write_json,
    write_manifest,
    write_snapshot,
    write_table,
    write_timeseries,
)


def resolve_out_dir(cfg: ExperimentConfig, override: str | Path | None = None) -> Path:
    """Output directory: explicit override, then the config, then ``default_out_dir``."""
    if override is not None:
        return Path(override)
    if cfg.out_dir:
        return Path(cfg.out_dir)
    return default_out_dir(cfg.experiment)


def _start(cfg: ExperimentConfig, out_dir: str | Path | None) -> tuple[Path, float]:
    """The run's output directory, made if missing, and the clock reading it starts at."""
    return make_out_dir(resolve_out_dir(cfg, out_dir)), time.perf_counter()


def _finish(cfg: ExperimentConfig, out: Path, started: float, written: list[Path],
            report: dict, quiet: bool, *lines: str) -> dict:
    """Write ``report.json``, then the manifest over it and ``written``; print ``lines``."""
    written = [*written, write_json(out / "report.json", report)]
    write_manifest(out, config_echo(cfg), time.perf_counter() - started, written)
    if not quiet:
        for line in lines:
            print(line, flush=True)
    return report


def _initial_state(spec, grid, t_final: float) -> State:
    """The configured initial state, which must start before ``t_final``."""
    state = initial_condition(spec, grid)
    if state.time >= t_final:
        raise ConfigError(f"initial state at t={state.time:g} is not before t_final={t_final:g}")
    return state


def _temam(model: ModelConfig, k: float = 100.0) -> ModelConfig:
    """``model`` retargeted to the relaxed model, at its own k or else at ``k``."""
    return replace(model, model="temam", k=model.k or k)


def _slow_manifold(state: State, forcing: ForcingSpec, model: ModelConfig) -> State:
    """``state`` with its velocity projected divergence-free and its pressure made consistent."""
    v0, _ = project_divergence_free(state.v)
    return State(v0, consistent_pressure(v0, forcing, model, state.time), state.time)


def _require_steps(what: str, steps: int, minimum: int, t_final: float, dt: float) -> None:
    """Refuse a run too short for ``what``, which differences its samples in time."""
    if steps < minimum:
        raise ConfigError(
            f"{what} needs at least {minimum} time steps, but t_final={t_final:g} "
            f"takes {steps} at dt={dt:g}"
        )


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
    between the two grids.  ``march``'s default step for the model is
    refined like h^2, which keeps the time error of the first-order
    splitting from masking the spatial order.
    """
    out, started = _start(cfg, out_dir)
    cfg_inc = ModelConfig(model="incompressible", re=cfg.model.re)

    def one(n: int):
        grid = make_grid(n)
        state0 = taylor_green_state(grid)
        final, _, dt_used = simulate(state0, cfg_inc, ForcingSpec.zero(), cfg.t_final, cfl=cfg.cfl)
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
    written = write_snapshot(coarse.pop("final"), out / "final_coarse")
    written += write_snapshot(fine.pop("final"), out / "final_fine")
    report = {
        "experiment": "taylor_green",
        "re": cfg.model.re,
        "t_final": cfg.t_final,
        "coarse": coarse,
        "fine": fine,
        "observed_order": order,
    }
    return _finish(
        cfg, out, started, written, report, quiet,
        f"taylor_green: error {coarse['velocity_error']:.3e} (n={coarse['n']}) -> "
        f"{fine['velocity_error']:.3e} (n={fine['n']}), order {order:.3f}",
    )


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
    instead.  Every run starts at the initial state's time.  The
    reference trajectory integrates the projected
    right-hand side with classical RK4 at its stable step, keeping its time
    error orders of magnitude below the K effects being compared.  The
    members take ``march``'s default step, so those past the acoustic
    bound step ETDRK4 at the advective bound; their time error then grows
    with dt rather than with the stiffness, and at the largest K it is of
    the same order as the O(1/K) terminal difference.
    """
    out, started = _start(cfg, out_dir)
    forcing = ForcingSpec.zero()
    grid = make_grid(cfg.n)
    raw = _initial_state(cfg.initial_condition, grid, cfg.t_final)
    base_model = _temam(cfg.model, cfg.k_list[0])
    state0 = _slow_manifold(raw, forcing, base_model)
    preparation = {
        "div_norm_raw": divergence_norm(raw),
        "div_norm_prepared": divergence_norm(state0),
    }

    cfg_ref = ModelConfig(model="incompressible", re=cfg.model.re)
    ref_steps, ref_dt = fixed_step(state0, cfg_ref, cfg.t_final, cfl=cfg.cfl)
    force = forcing.sampler(grid, state0.time)

    def ref_rates(y: np.ndarray, t: float, out: np.ndarray) -> None:
        src = _momentum_source(y, force(t), cfg_ref, grid.spacing)
        dv, _ = project_divergence_free(VectorField(grid, src))
        np.copyto(out, dv.values)

    work = np.empty((5,) + state0.v.values.shape)
    ref = _march(state0.v.values, state0.time, cfg.t_final, ref_steps,
                 lambda ys, ts: step_rk4(ref_rates, ys, ts, ref_dt, work), grid.spacing, cfg_ref)
    y, _ = deque(ref, maxlen=1)[0]  # the last sample
    ref_v = VectorField(grid, y)

    def member(k: float) -> dict:
        steps, dt_used, states = march(state0, replace(base_model, k=k), forcing,
                                       cfg.t_final, cfl=cfg.cfl)
        peak = 0.0
        try:
            for final in states:
                peak = max(peak, divergence_norm(final))
        except SimulationBlowupError as exc:
            return {"k": k, "failed": str(exc)}
        return {
            "k": k,
            "dt": dt_used,
            "steps": steps,
            "max_div_norm": peak,
            "terminal_velocity_diff": l2_norm(final.v - ref_v),
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
    table = write_table(out / "members.csv", MEMBERS_COLUMNS,
                        ([m[c] for c in MEMBERS_COLUMNS] for m in ok))
    lines = [
        f"k_sweep: k={m['k']:g} FAILED: {m['failed']}" if "failed" in m else
        f"k_sweep: k={m['k']:g} max|div v|={m['max_div_norm']:.3e} "
        f"terminal diff={m['terminal_velocity_diff']:.3e}"
        for m in members
    ]
    if report["div_slope"] is not None:
        lines.append(f"k_sweep: divergence slope {report['div_slope']:.3f}")
    return _finish(cfg, out, started, [table], report, quiet, *lines)


# -- energy budget audit -------------------------------------------------------


def run_energy_audit(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    quiet: bool = False,
) -> dict:
    """Paired budget audit of the relaxed model, extra force on and off.

    Both unforced runs share the initial state and the untrimmed
    ``stable_dt`` of the run with the force, so their rows align sample by
    sample.  With the force on, the residual is pure discretization error.
    With it off, residual minus predicted defect plays that role, and the
    correlation says whether the residual tracks the dilatational defect
    the extra force exists to cancel.
    """
    out, started = _start(cfg, out_dir)
    state0 = _initial_state(cfg.initial_condition, make_grid(cfg.n), cfg.t_final)
    forcing = ForcingSpec.zero()
    cfg_on = replace(_temam(cfg.model), extra_force="temam")
    cfg_off = replace(cfg_on, extra_force="none")
    dt = stable_dt(state0, cfg_on, cfg.cfl)
    steps, dt_used, states_on = march(state0, cfg_on, forcing, cfg.t_final, dt=dt)
    _require_steps("energy_audit", steps, 2, cfg.t_final, dt_used)
    rows_on = energy_audit(states_on, forcing, cfg_on)
    rows_off = energy_audit(march(state0, cfg_off, forcing, cfg.t_final, dt=dt)[2], forcing, cfg_off)
    written = [
        write_timeseries(rows_on, out / "budget_extra_on.csv"),
        write_timeseries(rows_off, out / "budget_extra_off.csv"),
    ]
    res_on = np.array([r.residual for r in rows_on])
    rises = np.diff([r.e_kin + r.e_press for r in rows_on])
    res_off = np.array([r.residual for r in rows_off])
    defect_off = np.array([r.defect_predicted for r in rows_off])
    corr = None
    if res_off.std() > 0.0 and defect_off.std() > 0.0:
        corr = float(np.corrcoef(res_off, defect_off)[0, 1])
    report = {
        "experiment": "energy_audit",
        "n": cfg.n,
        "t_final": cfg.t_final,
        "dt": dt_used,
        "samples": steps + 1,
        "max_abs_residual_on": float(np.abs(res_on).max()),
        "max_abs_residual_off_minus_defect": float(np.abs(res_off - defect_off).max()),
        "defect_scale": float(np.abs(defect_off).max()),
        "residual_defect_correlation": corr,
        "max_total_energy_rise_on": float(max(0.0, rises.max())) if len(rises) else 0.0,
    }
    return _finish(
        cfg, out, started, written, report, quiet,
        f"energy_audit: |residual| {report['max_abs_residual_on']:.3e} with the force, "
        f"|residual-defect| {report['max_abs_residual_off_minus_defect']:.3e} without "
        f"(defect scale {report['defect_scale']:.3e})",
    )


# -- frame-change experiment ---------------------------------------------------


def run_galilean(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    quiet: bool = False,
) -> dict:
    """Frame-change gaps, and the K-decay of the frame-indifferent force.

    The state is advanced to ``t_final`` with the relaxed model, and the
    inertial term and extra force are compared between the rest frame
    and a frame moving with velocity -w, at the same material points.
    Separately, one run per k in ``k_list`` is advanced with the
    alternative force enabled; the force of its final state,
    -(p/K)(dv/dt + (v.grad)v) with the model's own rate, is fitted in norm
    against k, and should fall off like 1/k.
    """
    out, started = _start(cfg, out_dir)
    grid = make_grid(cfg.n)
    forcing = ForcingSpec.zero()
    base_model = _temam(cfg.model)
    state0 = _initial_state(cfg.initial_condition, grid, cfg.t_final)
    state_r, _, dt_used = simulate(state0, base_model, forcing, cfg.t_final, cfl=cfg.cfl)
    rep = galilean_invariance_report(state_r, cfg.boost_w, base_model)
    rel_gap_err = abs(rep.temam_gap - rep.temam_gap_closed_form) / max(
        rep.temam_gap_closed_form, 1e-300
    )

    # the members start on the slow manifold, at the initial state's time:
    # raw compressive data carries acoustic pressure that grows like
    # sqrt(k) and would mask the 1/k decay being measured (the gap report
    # above keeps the raw state, it wants the divergence)
    prepared0 = _slow_manifold(state0, forcing, base_model)

    def alt_member(k: float) -> dict:
        cfg_k = replace(base_model, k=k, extra_force="galilean_alt")
        final, _, _ = simulate(prepared0, cfg_k, forcing, cfg.t_final, cfl=cfg.cfl)
        return {"k": k, "alt_force_norm": l2_norm(galilean_alt_force(final, cfg_k))}

    alts = [alt_member(k) for k in cfg.k_list]
    slope = _loglog_slope([a["k"] for a in alts], [a["alt_force_norm"] for a in alts])

    written = write_snapshot(state_r, out / "boost_source")
    report = {
        "experiment": "galilean",
        "n": cfg.n,
        "boost_w": list(cfg.boost_w),
        "dt": dt_used,
        "standard_gap": rep.standard_gap,
        "temam_gap": rep.temam_gap,
        "temam_gap_closed_form": rep.temam_gap_closed_form,
        "temam_gap_rel_err": rel_gap_err,
        "alt_force": {"members": alts, "slope": slope},
    }
    lines = [
        f"galilean: standard gap {rep.standard_gap:.3e}, "
        f"extra-force gap {rep.temam_gap:.6e} vs closed form "
        f"{rep.temam_gap_closed_form:.6e}"
    ]
    if slope is not None:
        lines.append(f"galilean: alternative force norm slope {slope:.3f} in k")
    return _finish(cfg, out, started, written, report, quiet, *lines)


# -- particle transport audit --------------------------------------------------


def simulate_with_density(
    state0: State,
    cfg: ModelConfig,
    forcing: ForcingSpec,
    t_final: float,
    cfl: float,
    dt: float | None = None,
):
    """Advance the relaxed model while co-evolving a density field.

    The density starts at one and obeys the full mass balance
    d rho/dt = -div(rho v) inside the same RK4 stages as (v, p), so a
    particle Jacobian integrated to O(dt^4) can be cross-checked against
    1/rho along paths at matching accuracy.  Returns ``(steps, dt_used,
    samples)``; ``samples`` yields ``(state, density)`` for the initial
    state and after each step, as ``march`` yields states.
    """
    steps, dt_used = fixed_step(state0, cfg, t_final, dt, cfl)
    grid, h = state0.grid, state0.grid.spacing
    force = forcing.sampler(grid, state0.time)
    rhs_work = np.empty((_TEMAM_WORK, grid.n, grid.n))
    flux, dflux = np.empty((2, 2, grid.n, grid.n))

    def rates(y: np.ndarray, t: float, out: np.ndarray) -> None:
        temam_rhs(y[:3], force(t), cfg, h, out[:3], work=rhs_work)
        np.multiply(y[3], y[:2], out=flux)
        np.add(_ddx(flux[0], h, dflux[0]), _ddy(flux[1], h, dflux[1]), out=out[3])
        np.negative(out[3], out=out[3])

    y = np.concatenate([pack_state(state0), np.ones((1, grid.n, grid.n))])
    work = np.empty((5,) + y.shape)
    samples = _march(y, state0.time, t_final, steps,
                     lambda ys, ts: step_rk4(rates, ys, ts, dt_used, work), h, cfg)
    return steps, dt_used, ((unpack_state(y, grid, t), ScalarField(grid, y[3])) for y, t in samples)


def run_transport_check(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    threads: int = 1,
    quiet: bool = False,
) -> dict:
    """Referential transport audit along ``particles``^2 particle paths.

    A density run of the relaxed model (``simulate_with_density``) streams
    into ``transport_check``.  Particles seed the centered quarter-area
    patch of the square, so the audited region is a genuinely moving
    sub-body; on the whole torus the boundary terms vanish and the check
    would be too easy.
    """
    out, started = _start(cfg, out_dir)
    state0 = _initial_state(cfg.initial_condition, make_grid(cfg.n), cfg.t_final)
    steps, dt_used, samples = simulate_with_density(
        state0, _temam(cfg.model), ForcingSpec.zero(), cfg.t_final, cfg.cfl
    )
    _require_steps("transport_check", steps, 4, cfg.t_final, dt_used)
    seeds = ParticleSet.uniform(cfg.particles, cfg.particles, origin=(TWO_PI / 4.0,) * 2,
                                extent=(TWO_PI / 2.0,) * 2)
    rep = transport_check(samples, seeds)
    table = write_table(out / "transport.csv", TRANSPORT_COLUMNS, zip(rep.times, rep.lhs, rep.rhs))
    report = {
        "experiment": "transport_check",
        "n": cfg.n,
        "t_final": cfg.t_final,
        "dt": dt_used,
        "samples": steps + 1,
        "particles_per_side": cfg.particles,
        "gap": rep.gap,
        "jacobian_route_gap": rep.jacobian_route_gap,
        "under_resolved": rep.under_resolved,
    }
    return _finish(
        cfg, out, started, [table], report, quiet,
        f"transport_check: gap {rep.gap:.3e}, jacobian routes within "
        f"{rep.jacobian_route_gap:.3e}" + (" (UNDER-RESOLVED)" if rep.under_resolved else ""),
    )


# -- free run ------------------------------------------------------------------


def run_free_run(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    threads: int = 1,
    quiet: bool = False,
) -> dict:
    """Plain run of the configured model with a budget table and a trajectory.

    The run streams: the budget keeps six floats per state, and every
    ``snapshot_every``-th state before the last is appended to
    ``trajectory.state`` when it appears.  The last state is ``final.state``.
    """
    out, started = _start(cfg, out_dir)
    state0 = _initial_state(cfg.initial_condition, make_grid(cfg.n), cfg.t_final)
    forcing = ForcingSpec.zero()
    # the budget differences the samples in time, so the relaxed run keeps to the
    # acoustic bound; march's own default for it steps ETDRK4 past that bound
    dt = stable_dt(state0, cfg.model, cfg.cfl) if cfg.model.model == "temam" else None
    steps, dt_used, states = march(state0, cfg.model, forcing, cfg.t_final, dt, cfg.cfl)
    trajectory = out / "trajectory.state" if cfg.snapshot_every else None

    def recorded(f):
        nonlocal final
        for idx, final in enumerate(states):
            if f and idx % cfg.snapshot_every == 0 and idx < steps:  # the last is final.state
                append_state(f, final)
            yield final

    final, written = None, []
    with (trajectory.open("wb") if trajectory else nullcontext()) as f:
        if steps >= 2:
            rows = energy_audit(recorded(f), forcing, cfg.model)
            written.append(write_timeseries(rows, out / "budget.csv"))
        else:
            deque(recorded(f), maxlen=0)  # too few states for a budget
    written += ([trajectory] if trajectory else []) + write_snapshot(final, out / "final")
    report = {
        "experiment": "free_run",
        "model": cfg.model.model,
        "n": cfg.n,
        "t_final": final.time,
        "dt": dt_used,
        "steps": steps,
        "e_kin_final": 0.5 * integrate(final.v.magnitude_squared()),
        "div_norm_final": divergence_norm(final),
    }
    return _finish(
        cfg, out, started, written, report, quiet,
        f"free_run: {report['steps']} steps to t={final.time:g}, "
        f"e_kin {report['e_kin_final']:.6g}, |div v| {report['div_norm_final']:.3e}",
    )


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
