"""Trajectory diagnostics: energy budgets, frame changes, particle transport.

These routines consume simulated trajectories and measure how well the
discrete solution honors the identities the quasi-incompressible model
is built on: the closed kinetic + pressure energy budget, the frame
(non-)invariance of the extra force, and the referential transport
theorem along particle paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import TWO_PI, Grid, VectorField, integrate, l2_norm
from .models import (
    ForcingSpec,
    ModelConfig,
    State,
    pack_state,
    step_rk4,
    temam_extra_force,
    temam_rhs,
    unpack_state,
)
from .operators import (
    _convection,
    _ddx,
    _ddy,
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


def _first_gap(t_prev: float, t: float, dt: float | None) -> float:
    """``dt``, or ``t - t_prev`` if None, once the gap ``t - t_prev`` is checked against it."""
    gap = t - t_prev
    dt = gap if dt is None else dt
    if dt <= 0.0 or not abs(gap - dt) <= 1e-12 + 1e-9 * abs(dt):
        raise ValueError("trajectory samples are not uniformly spaced in time")
    return dt


_BUDGET_TERMS = ("e_kin", "e_press", "dissipation", "injection", "defect_predicted")


def energy_audit(trajectory, forcing: ForcingSpec, cfg: ModelConfig) -> list[EnergyBudgetRow]:
    """Audit the energy budget of a uniformly sampled trajectory.

    ``trajectory`` is any iterable of states, a generator such as
    ``march``'s included; it is streamed, keeping the time and five
    floats per sample.  Needs at least three samples; produces one row
    per interior sample.  The pressure energy uses the configured bulk
    modulus and is zero for the incompressible model, where pressure is
    a multiplier rather than a stored energy.

    The terms are formed on the sample arrays with the stencil kernels, each
    integral as ``integrate`` forms it; a term that is not finite raises
    ValueError naming it and the sample time.
    """
    budget, force, dt = [], None, None
    for s in trajectory:
        if force is None:
            force = forcing.sampler(s.grid, s.time)
            h = s.grid.spacing
        else:
            dt = _first_gap(budget[-1][0], s.time, dt)
        v = s.v.values
        speed_sq = v[0] * v[0] + v[1] * v[1]
        fv = force(s.time) * v
        p = s.p.values
        terms = (
            0.5 * float(h * h * speed_sq.sum()),
            float(h * h * (p * p).sum()) / (2.0 * cfg.k) if cfg.model != "incompressible" else 0.0,
            integrate(strain_frobenius_sq(s.v)) / cfg.re,
            float(h * h * (fv[0] + fv[1]).sum()),
            0.5 * float(h * h * ((_ddx(v[0], h) + _ddy(v[1], h)) * speed_sq).sum()),
        )
        for name, term in zip(_BUDGET_TERMS, terms):
            if not math.isfinite(term):
                raise ValueError(f"energy budget term {name} is not finite at t={s.time:.6g}")
        budget.append((s.time, *terms))
    if len(budget) < 3:
        raise ValueError("energy audit needs at least three samples")
    b = np.array(budget)  # columns as EnergyBudgetRow's, up to the residual
    total = b[:, 1] + b[:, 2]
    residual = (total[2:] - total[:-2]) / (2.0 * dt) - b[1:-1, 4] + b[1:-1, 3]
    return [EnergyBudgetRow(*map(float, row), float(r)) for row, r in zip(b[1:-1], residual)]


def divergence_norm(state: State) -> float:
    """L2 norm of the discrete velocity divergence."""
    return l2_norm(divergence(state.v))


# -- frame changes ------------------------------------------------------------


@dataclass(frozen=True)
class GalileanReport:
    """Frame-difference norms for the inertial term and the extra force."""

    standard_gap: float
    temam_gap: float
    temam_gap_closed_form: float


def galilean_invariance_report(
    state: State, w: tuple[float, float], cfg: ModelConfig
) -> GalileanReport:
    """Measure how the inertial term and the extra force react to a boost.

    Both frames are evaluated at the same material points.  The moving
    frame sees the velocity v + w, and by the chain rule its Eulerian
    rate is dv/dt - (w.grad)v, taken with the same discrete gradient the
    convection uses.  The standard inertial term dv/dt + (v.grad)v then
    cancels between the frames, so its gap sits at round-off.
    The extra force -(1/2)(div v) v has no such cancellation: its frame
    difference is -(1/2)(div v) w, and the report returns both the
    directly evaluated gap and that closed form.  Nothing depends on
    ``state.time``.
    """
    if cfg.model != "temam":
        raise ValueError("the frame-invariance report is defined for the temam model")
    grid = state.grid
    v = state.v
    w_field = VectorField.constant(grid, w[0], w[1])
    v_moving = v + w_field

    dv_dt = unpack_state(temam_rhs(pack_state(state), 0.0, cfg, grid.spacing), grid).v  # unforced
    inertial_here = dv_dt + convection(v)
    inertial_moving = (dv_dt - directional_derivative(w, v)) + convection(v_moving)

    standard_gap = l2_norm(inertial_moving - inertial_here)
    temam_gap = l2_norm(temam_extra_force(v_moving) - temam_extra_force(v))
    closed = 0.5 * l2_norm(divergence(v) * w_field)
    return GalileanReport(
        standard_gap=float(standard_gap),
        temam_gap=float(temam_gap),
        temam_gap_closed_form=float(closed),
    )


# -- particle transport --------------------------------------------------------


def _cubic_weights(f: np.ndarray) -> np.ndarray:
    f2 = f * f
    f3 = f2 * f
    return np.array([
        0.5 * (-f3 + 2.0 * f2 - f),
        0.5 * (3.0 * f3 - 5.0 * f2 + 2.0),
        0.5 * (-3.0 * f3 + 4.0 * f2 + f),
        0.5 * (f3 - f2),
    ])


def _interp_taps(px: np.ndarray, py: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and weights, each (16, m), of the Catmull-Rom taps at m particle positions.

    Tap 4a + b is node (i - 1 + a, j - 1 + b), wrapped periodically,
    where node (i, j) is the nearest one below and left of the position;
    positions are in physical units.  The interpolant is C1-smooth as well
    as O(h^3) accurate: the transport diagnostics differentiate interpolated
    samples in time, and the kinks of a merely continuous interpolant would
    contribute an error that does not refine.
    """
    n = grid.n
    u = np.array([np.ravel(px), np.ravel(py)]) / grid.spacing - 0.5
    i = np.floor(u).astype(int)
    # wrap the base node once; its offsets -1..+2 then leave [0, n) by at most one period
    nodes = np.mod(i, n) + np.arange(-1, 3)[:, None, None]  # (4, 2, m)
    nodes[0][nodes[0] < 0] += n
    nodes[2:][nodes[2:] >= n] -= n
    w = _cubic_weights(u - i)
    flat = (nodes[:, None, 0] * n + nodes[None, :, 1]).reshape(16, -1)
    weights = (w[:, None, 0] * w[None, :, 1]).reshape(16, -1)
    return flat, weights


def _gather(taps: tuple[np.ndarray, np.ndarray], *fields: np.ndarray) -> list[np.ndarray]:
    """Each (n, n) field interpolated to the particle positions of one set of taps.

    The taps are summed in order from zero.  For m >= 2 particles one
    reduction over the tap axis does that, row by row; for a single
    particle numpy's reduction runs along contiguous memory and sums
    pairwise, so there the rows are added one at a time.
    """
    flat, weights = taps
    out = []
    for values in fields:
        terms = np.take(values.ravel(), flat)
        terms *= weights
        if flat.shape[1] == 1:
            total = np.zeros(1)
            for term in terms:
                total += term
        else:
            total = np.add.reduce(terms, axis=0, initial=0.0)
        out.append(total)
    return out


@dataclass(frozen=True)
class ParticleSet:
    """Sample points for a convecting region, with their weights.

    ``weights`` are referential quadrature weights (midpoint rule over
    the seeded rectangle).  The particles start undeformed: each path's
    Jacobian starts at one and is integrated by dJ/dt = J div v.
    """

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.float64)
        wts = np.asarray(self.weights, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must be (m, 2), got {pos.shape}")
        if wts.shape != (pos.shape[0],):
            raise ValueError("weights must match the particle count")
        for name, arr in (("positions", pos), ("weights", wts)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", wts)

    @classmethod
    def uniform(
        cls,
        nx: int = 32,
        ny: int = 32,
        origin: tuple[float, float] = (0.0, 0.0),
        extent: tuple[float, float] = (TWO_PI, TWO_PI),
    ) -> "ParticleSet":
        """Midpoint sub-lattice over a rectangle (default: the whole square)."""
        ex, ey = extent
        xs = origin[0] + (np.arange(nx) + 0.5) * (ex / nx)
        ys = origin[1] + (np.arange(ny) + 0.5) * (ey / ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        positions = np.column_stack([X.ravel(), Y.ravel()])
        return cls(positions, np.full(nx * ny, (ex / nx) * (ey / ny)))


@dataclass(frozen=True)
class TransportReport:
    """Two sides of the referential transport identity along particle paths."""

    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    gap: float
    jacobian_route_gap: float
    under_resolved: bool


def transport_check(trajectory, particles: ParticleSet) -> TransportReport:
    """Check d/dt of the referential kinetic energy of a convecting region.

    Particles are advected through the sampled velocity with classical
    RK4 (one particle step consumes two snapshot intervals, the midpoint
    snapshot serving the middle stages), and each carries a Jacobian
    integrated by dJ/dt = J div v from J = 1.  The model is dimensionless,
    so the reference density is rho* = 1.  At every other sample the
    region integrals

        lhs = d/dt sum w J rho* |v|^2 / 2
        rhs = sum w J (rho* dv/dt|material + (rho*/2)(div v) v) . v

    are formed, the derivative by centered differences; ``gap`` is the
    largest pointwise discrepancy.  The samples are ``(state, rho)``
    pairs, rho a density co-evolved under the full mass balance from
    rho = rho*, so the Jacobian is also recovered as rho*/rho at the
    particles; ``jacobian_route_gap`` is the worst disagreement between
    the two routes.  Each set of positions builds its interpolation taps
    once and gathers every field it needs through them; an RK4 step's
    first stage sits on the even sample it starts from and reuses that
    sample's values.

    ``trajectory`` is any iterable of such pairs, a generator included.
    It is streamed: at most four samples are held at a time.  An even
    number of samples drops the last one.
    """
    y = np.column_stack([particles.positions, np.ones(len(particles.positions))])
    window, times, energy, power = [], [], [], []  # window: (state, div v, rho) per sample
    worst, under_resolved, dt, count = 0.0, False, None, 0

    def path_rates(y: np.ndarray, t: float, out: np.ndarray) -> None:
        # every stage time is a sample time, k to k + 2; the first stage's is k
        ahead = round(t / dt) - k
        if ahead:
            state, div, _ = window[len(window) - 3 + ahead]
            taps = _interp_taps(y[:, 0], y[:, 1], grid)
            out[:, 0], out[:, 1], div_at = _gather(taps, state.v.x, state.v.y, div)
        else:  # the even sample at k gathered these at the same positions
            out[:, 0], out[:, 1], div_at = at_k
        out[:, 2] = y[:, 2] * div_at

    def even_sample(at: int, interior: bool) -> list[np.ndarray]:
        """Region energy, and inside the run its power, at window[at], where y holds the paths.

        Returns v and div v at the paths, the rates of a step from there.
        """
        nonlocal worst
        state, div, rho = window[at]
        fields = [*state.v.values, div]
        if interior:
            before, after = window[at - 1][0].v.values, window[at + 1][0].v.values
            fields.extend((after - before) / (2.0 * dt) + _convection(state.v.values, h))
        fields.append(rho.values)
        pos, jac = y[:, :2], y[:, 2]
        vx, vy, dv, *rest = _gather(_interp_taps(pos[:, 0], pos[:, 1], grid), *fields)
        energy.append(np.sum(particles.weights * jac * 0.5 * (vx**2 + vy**2)))
        if interior:
            ax, ay = rest[:2]
            fx = ax + 0.5 * dv * vx
            fy = ay + 0.5 * dv * vy
            power.append(np.sum(particles.weights * jac * (fx * vx + fy * vy)))
            times.append(state.time)
        worst = max(worst, float(np.abs(jac - 1.0 / rest[-1]).max()))
        return [vx, vy, dv]

    # advect (x, y, J) with RK4 over pairs of intervals; positions live at even samples.
    # Once sample k + 2 arrives (k even), the window holds k - 1 (if k > 0) to k + 2.
    for count, (s, rho) in enumerate(trajectory, 1):
        if window:
            dt = _first_gap(window[-1][0].time, s.time, dt)
        else:
            grid, h = s.grid, s.grid.spacing
        v = s.v.values
        window.append((s, _ddx(v[0], h) + _ddy(v[1], h), rho))
        k = count - 3
        if k < 0 or k % 2:
            continue
        at_k = even_sample(len(window) - 3, interior=k > 0)
        moved = step_rk4(path_rates, y, k * dt, 2.0 * dt)
        under_resolved |= bool(np.abs(moved[:, :2] - y[:, :2]).max() > grid.spacing)
        y = moved
        np.mod(y[:, :2], TWO_PI, out=y[:, :2])
        del window[:-2]  # samples k + 1 and k + 2
    if count < 5:
        raise ValueError("transport check needs at least five samples")
    even_sample(-1 - (count % 2 == 0), interior=False)

    energy, rhs = np.array(energy), np.array(power)
    lhs = (energy[2:] - energy[:-2]) / (2.0 * (2.0 * dt))
    return TransportReport(
        times=np.array(times),
        lhs=lhs,
        rhs=rhs,
        gap=float(np.abs(lhs - rhs).max()),
        jacobian_route_gap=worst,
        under_resolved=under_resolved,
    )
