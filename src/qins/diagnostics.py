"""Trajectory diagnostics: energy budgets, frame changes, particle transport.

These routines consume simulated trajectories and measure how well the
discrete solution honors the identities the quasi-incompressible model
is built on: the closed kinetic + pressure energy budget, the frame
(non-)invariance of the extra force, and the referential transport
theorem along particle paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Grid, ScalarField, VectorField, integrate, l2_norm
from .models import ForcingSpec, ModelConfig, State, step_rk4, temam_extra_force, temam_rhs
from .operators import (
    convection,
    directional_derivative,
    divergence,
    strain_frobenius_sq,
)


@dataclass(frozen=True)
class EnergyBudgetRow:
    """One audited sample of the energy budget.

    ``residual`` is d/dt(e_kin + e_press) - injection + dissipation,
    with the time derivative taken by centered differences over the
    stored samples.  For the model with the extra force on, the residual
    is pure discretization error; with it off, the residual tracks
    ``defect_predicted``, the dilatational defect (1/2) integral of
    (div v)|v|^2.
    """

    time: float
    e_kin: float
    e_press: float
    dissipation: float
    injection: float
    defect_predicted: float
    residual: float


CSV_HEADER = "time,e_kin,e_press,dissipation,injection,defect_predicted,residual"


def _uniform_dt(times: np.ndarray) -> float:
    gaps = np.diff(times)
    dt = float(gaps[0])
    if dt <= 0.0 or not np.allclose(gaps, dt, rtol=1e-9, atol=1e-12):
        raise ValueError("trajectory samples are not uniformly spaced in time")
    return dt


def energy_audit(
    trajectory: list[State], forcing: ForcingSpec, cfg: ModelConfig
) -> list[EnergyBudgetRow]:
    """Audit the energy budget of a uniformly sampled trajectory.

    Needs at least three samples; produces one row per interior sample.
    The pressure energy uses the configured bulk modulus and is zero for
    the incompressible model, where pressure is a multiplier rather than
    a stored energy.
    """
    if len(trajectory) < 3:
        raise ValueError("energy audit needs at least three samples")
    times = np.array([s.time for s in trajectory])
    dt = _uniform_dt(times)

    e_kin = np.empty(len(trajectory))
    e_press = np.empty(len(trajectory))
    dissipation = np.empty(len(trajectory))
    injection = np.empty(len(trajectory))
    defect = np.empty(len(trajectory))
    for i, s in enumerate(trajectory):
        speed_sq = s.v.magnitude_squared()
        e_kin[i] = 0.5 * integrate(speed_sq)
        if cfg.k is not None:
            e_press[i] = integrate(s.p * s.p) / (2.0 * cfg.k)
        else:
            e_press[i] = 0.0
        dissipation[i] = integrate(strain_frobenius_sq(s.v)) / cfg.re
        injection[i] = integrate(forcing.evaluate(s.grid, s.time).dot(s.v))
        defect[i] = 0.5 * integrate(divergence(s.v) * speed_sq)

    total = e_kin + e_press
    rows = []
    for i in range(1, len(trajectory) - 1):
        de_dt = (total[i + 1] - total[i - 1]) / (2.0 * dt)
        rows.append(
            EnergyBudgetRow(
                time=float(times[i]),
                e_kin=float(e_kin[i]),
                e_press=float(e_press[i]),
                dissipation=float(dissipation[i]),
                injection=float(injection[i]),
                defect_predicted=float(defect[i]),
                residual=float(de_dt - injection[i] + dissipation[i]),
            )
        )
    return rows


def divergence_norm(state: State) -> float:
    """L2 norm of the discrete velocity divergence."""
    return l2_norm(divergence(state.v))


# -- frame changes ------------------------------------------------------------


def _shift_cells(grid: Grid, wx: float, wy: float, t: float) -> tuple[float, float]:
    h = grid.spacing
    return wx * t / h, wy * t / h


def _cubic_weights(f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    f2 = f * f
    f3 = f2 * f
    return (
        0.5 * (-f3 + 2.0 * f2 - f),
        0.5 * (3.0 * f3 - 5.0 * f2 + 2.0),
        0.5 * (-3.0 * f3 + 4.0 * f2 + f),
        0.5 * (f3 - f2),
    )


def _periodic_interp(values: np.ndarray, px: np.ndarray, py: np.ndarray, grid: Grid) -> np.ndarray:
    """Catmull-Rom interpolation with periodic wrap; positions in physical units.

    Interpolating and C1-smooth.  The smoothness matters as much as the
    O(h^3) pointwise accuracy: the transport diagnostics differentiate
    interpolated samples in time, and the kinks of a merely continuous
    interpolant would contribute an error that does not refine.
    """
    h = grid.spacing
    n = grid.n
    ux = px / h - 0.5
    uy = py / h - 0.5
    ix = np.floor(ux).astype(int)
    iy = np.floor(uy).astype(int)
    wx = _cubic_weights(ux - ix)
    wy = _cubic_weights(uy - iy)
    out = np.zeros_like(ux, dtype=np.float64)
    for a in range(4):
        rows = np.mod(ix - 1 + a, n)
        for b in range(4):
            cols = np.mod(iy - 1 + b, n)
            out += wx[a] * wy[b] * values[rows, cols]
    return out


def _resample_shifted(values: np.ndarray, grid: Grid, sx: float, sy: float) -> np.ndarray:
    """Sample a field at positions displaced by (-sx, -sy) grid cells.

    Integer shifts reduce to an exact roll; anything else falls back to
    cubic interpolation.
    """
    mx, my = round(sx), round(sy)
    if abs(sx - mx) < 1e-9 and abs(sy - my) < 1e-9:
        return np.roll(values, (mx, my), axis=(0, 1))
    X, Y = grid.mesh()
    h = grid.spacing
    return _periodic_interp(values, X - sx * h, Y - sy * h, grid)


def _is_on_grid(sx: float, sy: float) -> bool:
    return abs(sx - round(sx)) < 1e-9 and abs(sy - round(sy)) < 1e-9


def galilean_boost(state: State, w: tuple[float, float], tau: float = 0.0) -> State:
    """View a state from a frame moving with velocity -w.

    Positions transform as x* = x + w t and the velocity gains +w; the
    pressure rides along unchanged.  Samples are rolled exactly when
    w * time lands on whole cells and interpolated otherwise.  ``tau``
    relabels the clock; it does not move the samples.
    """
    wx, wy = float(w[0]), float(w[1])
    grid = state.grid
    sx, sy = _shift_cells(grid, wx, wy, state.time)
    v_x = _resample_shifted(state.v.x, grid, sx, sy) + wx
    v_y = _resample_shifted(state.v.y, grid, sx, sy) + wy
    p = _resample_shifted(state.p.values, grid, sx, sy)
    return State(VectorField(grid, v_x, v_y), ScalarField(grid, p), state.time + tau)


@dataclass(frozen=True)
class GalileanReport:
    """Frame-difference norms for the inertial term and the extra force."""

    standard_gap: float
    temam_gap: float
    temam_gap_closed_form: float
    off_grid: bool


def galilean_invariance_report(
    state: State, w: tuple[float, float], cfg: ModelConfig
) -> GalileanReport:
    """Measure how the inertial term and the extra force react to a boost.

    The standard inertial term dv/dt + (v.grad)v is evaluated in the
    original frame and in a frame moving with velocity -w (velocity
    gains +w, samples shift by w * time, and the Eulerian time
    derivative transforms by the chain rule with the same discrete
    gradient the convection uses).  With the advective convection form
    the discrete cancellation is exact, so the reported gap sits at
    round-off.  The extra force -(1/2)(div v) v has no such cancellation:
    its frame difference is -(1/2)(div v) w, and the report returns both
    the directly evaluated gap and that closed form.
    """
    if cfg.model != "temam":
        raise ValueError("the frame-invariance report is defined for the temam model")
    wx, wy = float(w[0]), float(w[1])
    grid = state.grid
    v = state.v

    dv_dt, _ = temam_rhs(state, ForcingSpec.zero(), cfg)
    inertial_here = dv_dt + convection(v, cfg.convection)
    force_here = temam_extra_force(v)

    sx, sy = _shift_cells(grid, wx, wy, state.time)
    on_grid = _is_on_grid(sx, sy)

    def shifted_vec(field: VectorField, add: tuple[float, float] = (0.0, 0.0)) -> VectorField:
        return VectorField(
            grid,
            _resample_shifted(field.x, grid, sx, sy) + add[0],
            _resample_shifted(field.y, grid, sx, sy) + add[1],
        )

    def unshifted_vec(field: VectorField) -> VectorField:
        return VectorField(
            grid,
            _resample_shifted(field.x, grid, -sx, -sy),
            _resample_shifted(field.y, grid, -sx, -sy),
        )

    v_boosted = shifted_vec(v, add=(wx, wy))
    # chain rule: the boosted-frame Eulerian derivative loses (w . grad) v
    dv_dt_boosted = shifted_vec(dv_dt - directional_derivative((wx, wy), v))
    inertial_there = dv_dt_boosted + convection(v_boosted, cfg.convection)
    force_there = temam_extra_force(v_boosted)

    standard_gap = l2_norm(unshifted_vec(inertial_there) - inertial_here)
    temam_gap = l2_norm(unshifted_vec(force_there) - force_here)
    div_v = divergence(v)
    closed = 0.5 * l2_norm(VectorField(grid, div_v.values * wx, div_v.values * wy))
    return GalileanReport(
        standard_gap=float(standard_gap),
        temam_gap=float(temam_gap),
        temam_gap_closed_form=float(closed),
        off_grid=not on_grid,
    )


# -- particle transport --------------------------------------------------------


@dataclass(frozen=True)
class ParticleSet:
    """Sample points for a convecting region, with Jacobians and weights.

    ``weights`` are referential quadrature weights (midpoint rule over
    the seeded rectangle); ``jacobians`` start at one and are integrated
    along paths by dJ/dt = J div v.
    """

    positions: np.ndarray
    jacobians: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.float64)
        jac = np.asarray(self.jacobians, dtype=np.float64)
        wts = np.asarray(self.weights, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must be (m, 2), got {pos.shape}")
        m = pos.shape[0]
        if jac.shape != (m,) or wts.shape != (m,):
            raise ValueError("jacobians and weights must match the particle count")
        if not (jac > 0.0).all():
            raise ValueError("jacobians must be positive")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "jacobians", jac)
        object.__setattr__(self, "weights", wts)

    @classmethod
    def uniform(
        cls,
        period: float,
        nx: int = 32,
        ny: int = 32,
        origin: tuple[float, float] = (0.0, 0.0),
        extent: tuple[float, float] | None = None,
    ) -> "ParticleSet":
        """Midpoint sub-lattice over a rectangle (default: the whole square)."""
        ex, ey = extent if extent is not None else (period, period)
        xs = origin[0] + (np.arange(nx) + 0.5) * (ex / nx)
        ys = origin[1] + (np.arange(ny) + 0.5) * (ey / ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        positions = np.column_stack([X.ravel(), Y.ravel()])
        m = nx * ny
        return cls(positions, np.ones(m), np.full(m, (ex / nx) * (ey / ny)))


@dataclass(frozen=True)
class TransportReport:
    """Two sides of the referential transport identity along particle paths."""

    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    gap: float
    jacobian_route_gap: float | None
    under_resolved: bool


def transport_check(
    trajectory: list[State],
    particles: ParticleSet,
    cfg: ModelConfig,
    rho_fields: list[ScalarField] | None = None,
    rho_star: float = 1.0,
) -> TransportReport:
    """Check d/dt of the referential kinetic energy of a convecting region.

    Particles are advected through the sampled velocity with classical
    RK4 (one particle step consumes two snapshot intervals, the midpoint
    snapshot serving the middle stages), and each carries a Jacobian
    integrated by dJ/dt = J div v.  At every other sample the region
    integrals

        lhs = d/dt sum w J rho* |v|^2 / 2
        rhs = sum w J (rho* dv/dt|material + (rho*/2)(div v) v) . v

    are formed, the derivative by centered differences; ``gap`` is the
    largest pointwise discrepancy.  When ``rho_fields`` holds a density
    co-evolved under the full mass balance (starting from rho_star),
    the Jacobian is also recovered as rho*/rho at the particles and the
    worst disagreement between the two routes is reported.
    """
    if len(trajectory) < 5:
        raise ValueError("transport check needs at least five samples")
    usable = len(trajectory) if len(trajectory) % 2 == 1 else len(trajectory) - 1
    trajectory = trajectory[:usable]
    if rho_fields is not None:
        if len(rho_fields) < usable:
            raise ValueError("rho_fields must cover the trajectory")
        rho_fields = rho_fields[:usable]

    grid = trajectory[0].grid
    h = grid.spacing
    times = np.array([s.time for s in trajectory])
    dt = _uniform_dt(times)
    div_fields = [divergence(s.v).values for s in trajectory]

    def vel_at(idx: int, pos: np.ndarray) -> np.ndarray:
        s = trajectory[idx]
        return np.column_stack([
            _periodic_interp(s.v.x, pos[:, 0], pos[:, 1], grid),
            _periodic_interp(s.v.y, pos[:, 0], pos[:, 1], grid),
        ])

    def div_at(idx: int, pos: np.ndarray) -> np.ndarray:
        return _periodic_interp(div_fields[idx], pos[:, 0], pos[:, 1], grid)

    def path_rates(y: tuple, t: float) -> tuple:
        pos, jac = y
        idx = round(t / dt)  # every stage time is a sample time
        return vel_at(idx, pos), jac * div_at(idx, pos)

    # advect with RK4 over pairs of intervals; positions live at even samples
    pos, jac = particles.positions.copy(), particles.jacobians.copy()
    even_positions, even_jacobians = [pos], [jac]
    under_resolved = False
    big = 2.0 * dt
    for k in range(0, usable - 1, 2):
        (moved, jac), _ = step_rk4(path_rates, (pos, jac), k * dt, big)
        if np.abs(moved - pos).max() > h:
            under_resolved = True
        pos = np.mod(moved, grid.period)
        even_positions.append(pos)
        even_jacobians.append(jac)

    half_rho = 0.5 * rho_star

    def region_energy(eidx: int) -> float:
        pos_e = even_positions[eidx]
        jac_e = even_jacobians[eidx]
        vel = vel_at(2 * eidx, pos_e)
        speed_sq = vel[:, 0] ** 2 + vel[:, 1] ** 2
        return float(np.sum(particles.weights * jac_e * half_rho * speed_sq))

    def region_power(eidx: int) -> float:
        idx = 2 * eidx
        s = trajectory[idx]
        before, after = trajectory[idx - 1], trajectory[idx + 1]
        conv = convection(s.v)
        accel_x = (after.v.x - before.v.x) / (2.0 * dt) + conv.x
        accel_y = (after.v.y - before.v.y) / (2.0 * dt) + conv.y
        pos_e = even_positions[eidx]
        jac_e = even_jacobians[eidx]
        vel = vel_at(idx, pos_e)
        ax = _periodic_interp(accel_x, pos_e[:, 0], pos_e[:, 1], grid)
        ay = _periodic_interp(accel_y, pos_e[:, 0], pos_e[:, 1], grid)
        dv = div_at(idx, pos_e)
        fx = rho_star * ax + half_rho * dv * vel[:, 0]
        fy = rho_star * ay + half_rho * dv * vel[:, 1]
        power = fx * vel[:, 0] + fy * vel[:, 1]
        return float(np.sum(particles.weights * jac_e * power))

    n_even = len(even_positions)
    lhs_list, rhs_list, t_list = [], [], []
    for e in range(1, n_even - 1):
        lhs_list.append((region_energy(e + 1) - region_energy(e - 1)) / (2.0 * big))
        rhs_list.append(region_power(e))
        t_list.append(times[2 * e])
    lhs = np.array(lhs_list)
    rhs = np.array(rhs_list)

    j_gap = None
    if rho_fields is not None:
        worst = 0.0
        for e in range(n_even):
            rho_vals = rho_fields[2 * e].values
            pos_e = even_positions[e]
            rho_at = _periodic_interp(rho_vals, pos_e[:, 0], pos_e[:, 1], grid)
            worst = max(worst, float(np.abs(even_jacobians[e] - rho_star / rho_at).max()))
        j_gap = worst

    return TransportReport(
        times=np.array(t_list),
        lhs=lhs,
        rhs=rhs,
        gap=float(np.abs(lhs - rhs).max()) if len(lhs) else 0.0,
        jacobian_route_gap=j_gap,
        under_resolved=under_resolved,
    )
