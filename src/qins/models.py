"""Flow models on the periodic square: right-hand sides and time stepping.

Three systems share one state (velocity, pressure, time):

* ``incompressible``  - advanced by a Chorin-style projection step; the
  pressure is the Lagrange multiplier of the divergence constraint.
* ``temam``           - quasi-incompressible relaxation: the pressure
  evolves by dp/dt = -K div v and the momentum equation may carry an
  extra force -(1/2)(div v) v that restores the energy balance.
* ``compressible``    - barotropic system in (v, p) with density
  1 + p/K and a dilatational viscous term.

Everything is dimensionless.  ``nondimensionalize`` maps dimensional
fields into this setting (velocity scale V, length scale L, reference
density rho*, reference pressure p*), and ``eos`` / ``eos_inverse``
convert between dimensional density and pressure.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .fields import Grid, ScalarField, VectorField
from .operators import convection, divergence, grad_div, gradient, laplacian

MODELS = ("incompressible", "temam", "compressible")
EXTRA_FORCES = ("temam", "none", "galilean_alt")
CONVECTION_FORMS = ("advective", "skew")
PRESSURE_TRANSPORT = ("partial", "material")

DEFAULT_CFL = 0.4


class SimulationBlowupError(RuntimeError):
    """A time step produced non-finite samples."""


@dataclass(frozen=True)
class ModelConfig:
    """Model selection plus the physical and numerical parameters.

    ``re`` and the dimensional group (rho_star, l_char, v_char, mu) are
    tied by re = rho_star * l_char * v_char / mu; ``mu`` is derived when
    omitted and cross-checked when supplied.  ``k`` is the dimensionless
    bulk modulus and is required by the temam and compressible models.
    """

    model: str
    re: float
    k: float | None = None
    zeta_over_mu: float = 0.0
    extra_force: str = "temam"
    convection: str = "advective"
    pressure_transport: str = "partial"
    rho_star: float = 1.0
    p_star: float = 0.0
    v_char: float = 1.0
    l_char: float = 1.0
    mu: float | None = None

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}, expected one of {MODELS}")
        if not self.re > 0.0:
            raise ValueError(f"re must be positive, got {self.re}")
        if self.model in ("temam", "compressible"):
            if self.k is None or not self.k > 0.0:
                raise ValueError(f"model {self.model!r} needs a positive bulk modulus k, got {self.k}")
        if self.k is not None and not self.k > 0.0:
            raise ValueError(f"k must be positive when given, got {self.k}")
        if self.zeta_over_mu < 0.0:
            raise ValueError(f"zeta_over_mu must be >= 0, got {self.zeta_over_mu}")
        if self.extra_force not in EXTRA_FORCES:
            raise ValueError(f"unknown extra_force {self.extra_force!r}")
        if self.convection not in CONVECTION_FORMS:
            raise ValueError(f"unknown convection form {self.convection!r}")
        if self.pressure_transport not in PRESSURE_TRANSPORT:
            raise ValueError(f"unknown pressure_transport {self.pressure_transport!r}")
        for name in ("rho_star", "v_char", "l_char"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        derived_mu = self.rho_star * self.l_char * self.v_char / self.re
        if self.mu is None:
            object.__setattr__(self, "mu", derived_mu)
        else:
            if not self.mu > 0.0:
                raise ValueError(f"mu must be positive, got {self.mu}")
            re_from_mu = self.rho_star * self.l_char * self.v_char / self.mu
            if abs(re_from_mu - self.re) > 1e-12 * abs(self.re):
                raise ValueError(
                    "inconsistent dimensional group: "
                    f"re={self.re} but rho_star*l_char*v_char/mu={re_from_mu}"
                )

    @property
    def k_dimensional(self) -> float:
        """Dimensional bulk modulus, k * rho_star * v_char**2."""
        if self.k is None:
            raise ValueError("this config has no bulk modulus")
        return self.k * self.rho_star * self.v_char**2


@dataclass(frozen=True)
class State:
    """Instantaneous flow state: velocity, pressure, simulation time."""

    v: VectorField
    p: ScalarField
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.v.grid != self.p.grid:
            raise ValueError("velocity and pressure live on different grids")

    @property
    def grid(self) -> Grid:
        return self.v.grid

    @classmethod
    def rest(cls, grid: Grid, time: float = 0.0) -> "State":
        return cls(VectorField.zeros(grid), ScalarField.zeros(grid), time)


@dataclass(frozen=True)
class ForcingSpec:
    """Analytic body force, evaluable on any grid at any time.

    Catalog: ``zero``, a steady trigonometric cell pattern, a frozen
    user-supplied table (vector field), or an arbitrary callable
    ``fn(X, Y, t) -> (fx, fy)`` for tests.
    """

    kind: str = "zero"
    amplitude: float = 0.0
    kx: int = 1
    ky: int = 1
    table: VectorField | None = None
    fn: object = None

    @classmethod
    def zero(cls) -> "ForcingSpec":
        return cls(kind="zero")

    @classmethod
    def trig(cls, amplitude: float, kx: int = 1, ky: int = 1) -> "ForcingSpec":
        return cls(kind="trig", amplitude=float(amplitude), kx=int(kx), ky=int(ky))

    @classmethod
    def from_field(cls, table: VectorField) -> "ForcingSpec":
        return cls(kind="table", table=table)

    @classmethod
    def from_callable(cls, fn) -> "ForcingSpec":
        return cls(kind="callable", fn=fn)

    def evaluate(self, grid: Grid, t: float) -> VectorField:
        if self.kind == "zero":
            return VectorField.zeros(grid)
        if self.kind == "trig":
            a, kx, ky = self.amplitude, self.kx, self.ky
            return VectorField.from_function(
                grid,
                lambda X, Y: a * np.sin(kx * X) * np.cos(ky * Y),
                lambda X, Y: -a * np.cos(kx * X) * np.sin(ky * Y),
            )
        if self.kind == "table":
            if self.table is None or self.table.grid != grid:
                raise ValueError("forcing table missing or on the wrong grid")
            return self.table
        if self.kind == "callable":
            X, Y = grid.mesh()
            fx, fy = self.fn(X, Y, t)
            shape = (grid.n, grid.n)
            return VectorField(grid, np.broadcast_to(np.asarray(fx, float), shape),
                               np.broadcast_to(np.asarray(fy, float), shape))
        raise ValueError(f"unknown forcing kind {self.kind!r}")


# -- equation of state -------------------------------------------------------


def eos(rho: ScalarField, cfg: ModelConfig) -> ScalarField:
    """Dimensional pressure from density: p = K (rho/rho* - 1) + p*."""
    if not (rho.values > 0.0).all():
        worst = float(rho.values.min())
        raise ValueError(f"density must be positive everywhere, worst sample {worst}")
    k_dim = cfg.k_dimensional
    return ScalarField(rho.grid, k_dim * (rho.values / cfg.rho_star - 1.0) + cfg.p_star)


def eos_inverse(p: ScalarField, cfg: ModelConfig) -> ScalarField:
    """Dimensional density from pressure: rho = rho* (1 + (p - p*)/K)."""
    k_dim = cfg.k_dimensional
    ratio = 1.0 + (p.values - cfg.p_star) / k_dim
    if not (ratio > 0.0).all():
        i, j = np.unravel_index(np.argmin(ratio), ratio.shape)
        raise ValueError(
            "pressure implies non-positive density: "
            f"worst sample p={p.values[i, j]} at cell ({i}, {j})"
        )
    return ScalarField(p.grid, cfg.rho_star * ratio)


# -- right-hand sides --------------------------------------------------------


def temam_extra_force(v: VectorField) -> VectorField:
    """The quasi-incompressible extra force, -(1/2)(div v) v."""
    return (-0.5 * divergence(v)) * v


def galilean_alt_force(state: State, dv_dt: VectorField, cfg: ModelConfig) -> VectorField:
    """Frame-indifferent alternative to the extra force, -(p/K) dv/dt|material.

    Dimensionless reduction of -rho* (p/K) (dv/dt + (v.grad)v); the
    prefactor vanishes as K grows, so the force is a strict-compressibility
    correction.  ``dv_dt`` is the caller's current estimate of the Eulerian
    acceleration (the time loop lags it by one accepted step, starting
    from zero).
    """
    if cfg.k is None:
        raise ValueError("galilean_alt force needs a bulk modulus")
    accel = dv_dt + convection(state.v, cfg.convection)
    return ((-1.0 / cfg.k) * state.p) * accel


def temam_rhs(
    state: State,
    forcing: ForcingSpec,
    cfg: ModelConfig,
    dv_dt_prev: VectorField | None = None,
) -> tuple[VectorField, ScalarField]:
    """Right-hand side of the quasi-incompressible system.

    Momentum: -(v.grad)v - grad p + (1/Re) lap v + f + extra force.
    Pressure: dp/dt = -K div v, plus the transport term -v.grad p when
    the material form is configured.
    """
    if cfg.model != "temam":
        raise ValueError(f"temam_rhs called with model {cfg.model!r}")
    v, p, grid = state.v, state.p, state.grid
    f = forcing.evaluate(grid, state.time)
    dv = -convection(v, cfg.convection) - gradient(p) + (1.0 / cfg.re) * laplacian(v) + f
    if cfg.extra_force == "temam":
        dv = dv + temam_extra_force(v)
    elif cfg.extra_force == "galilean_alt":
        lag = dv_dt_prev if dv_dt_prev is not None else VectorField.zeros(grid)
        dv = dv + galilean_alt_force(state, lag, cfg)
    dp = (-cfg.k) * divergence(v)
    if cfg.pressure_transport == "material":
        dp = dp - v.dot(gradient(p))
    return dv, dp


def compressible_rhs(
    state: State, forcing: ForcingSpec, cfg: ModelConfig
) -> tuple[VectorField, ScalarField]:
    """Right-hand side of the barotropic compressible system in (v, p).

    The density never appears as a state variable: it is reconstructed
    pointwise as rho_hat = 1 + p/K.  Errors out if that ever dips to zero.
    """
    if cfg.model != "compressible":
        raise ValueError(f"compressible_rhs called with model {cfg.model!r}")
    v, p, grid = state.v, state.p, state.grid
    rho_hat_values = 1.0 + p.values / cfg.k
    if not (rho_hat_values > 0.0).all():
        raise ValueError("reconstructed density 1 + p/K reached zero")
    rho_hat = ScalarField(grid, rho_hat_values)
    f = forcing.evaluate(grid, state.time)
    momentum = (
        -(rho_hat * convection(v, cfg.convection))
        - gradient(p)
        + (1.0 / cfg.re) * laplacian(v)
        + ((cfg.zeta_over_mu + 1.0 / 3.0) / cfg.re) * grad_div(v)
        + f
    )
    dv = momentum / rho_hat
    dp = (-cfg.k) * divergence(rho_hat * v)
    return dv, dp


# -- pressure Poisson solve and projection -----------------------------------


def solve_pressure_poisson(rhs: np.ndarray, h: float) -> np.ndarray:
    """Solve div(grad p) = rhs on the torus exactly in Fourier space.

    The composed central-difference operator is the wide stencil with
    Fourier symbol -(sin^2 theta_x + sin^2 theta_y) / h^2, theta = 2 pi m / n,
    so a velocity corrected with the solution is divergence-free to
    round-off.  The symbol vanishes where 2m = 0 (mod n) on both axes: the
    constant mode, plus the three checkerboard modes on even grids.  Those
    modes are dropped, which projects the right-hand side onto the
    operator's range (the compatibility condition) and fixes the solution
    gauge at mean zero.  They are masked by index because sin(pi)^2 is
    about 1e-32 rather than 0, and dividing by it would swamp the solution.
    """
    n = rhs.shape[0]
    sym = -(
        np.sin(2.0 * np.pi * np.fft.fftfreq(n))[:, None] ** 2
        + np.sin(2.0 * np.pi * np.fft.rfftfreq(n))[None, :] ** 2
    ) / (h * h)
    null = (2 * np.arange(n) % n == 0)[:, None] & (2 * np.arange(n // 2 + 1) % n == 0)[None, :]
    sym[null] = 1.0
    p_hat = np.fft.rfft2(rhs) / sym
    p_hat[null] = 0.0
    return np.fft.irfft2(p_hat, s=rhs.shape)


def project_divergence_free(v: VectorField) -> tuple[VectorField, ScalarField]:
    """Remove the discrete-gradient part of v; returns (solenoidal v, potential)."""
    phi = solve_pressure_poisson(divergence(v).values, v.grid.spacing)
    phi_field = ScalarField(v.grid, phi)
    return v - gradient(phi_field), phi_field


def _momentum_source(v: VectorField, f: VectorField, cfg: ModelConfig) -> VectorField:
    """Momentum right-hand side without the pressure: -(v.grad)v + (1/Re) lap v + f.

    Callers evaluate f and keep it until their step ends: freed any earlier,
    its arrays made a projection run at n = 128 page-fault five times as often.
    """
    return -convection(v, cfg.convection) + (1.0 / cfg.re) * laplacian(v) + f


def consistent_pressure(
    v: VectorField, forcing: ForcingSpec, cfg: ModelConfig, t: float = 0.0
) -> ScalarField:
    """Pressure consistent with the instantaneous momentum balance.

    Solves div(grad p) = div(-(v.grad)v + (1/Re) lap v + f); starting a
    quasi-incompressible run from this pressure avoids exciting an
    artificial acoustic transient.
    """
    f = forcing.evaluate(v.grid, t)
    rhs = divergence(_momentum_source(v, f, cfg)).values
    return ScalarField(v.grid, solve_pressure_poisson(rhs, v.grid.spacing))


def incompressible_step(
    state: State, forcing: ForcingSpec, cfg: ModelConfig, dt: float
) -> State:
    """One Chorin projection step of the incompressible system.

    Explicit advection-diffusion predictor, pressure Poisson solve
    div(grad p) = div(v*) / dt, then correction v = v* - dt grad p.  The
    returned pressure is the projection multiplier with mean zero.
    """
    if cfg.model != "incompressible":
        raise ValueError(f"incompressible_step called with model {cfg.model!r}")
    v, grid = state.v, state.grid
    f = forcing.evaluate(grid, state.time)
    v_star = v + dt * _momentum_source(v, f, cfg)
    p = ScalarField(grid, solve_pressure_poisson(divergence(v_star).values / dt, grid.spacing))
    v_new = v_star - dt * gradient(p)
    return State(v_new, p, state.time + dt)


def projected_rhs(
    state: State, forcing: ForcingSpec, cfg: ModelConfig
) -> tuple[VectorField, ScalarField]:
    """Method-of-lines form of the incompressible system.

    The momentum right-hand side is projected onto the discrete
    divergence-free space each evaluation, so any explicit integrator
    applied to it (the bulk-modulus sweep uses classical RK4) keeps the
    velocity solenoidal to round-off while carrying the integrator's own
    time accuracy.  The pressure slot is unused.
    """
    f = forcing.evaluate(state.grid, state.time)
    projected, _ = project_divergence_free(_momentum_source(state.v, f, cfg))
    return projected, ScalarField.zeros(state.grid)


# -- time stepping -----------------------------------------------------------


def stable_dt(state: State, cfg: ModelConfig, cfl: float = DEFAULT_CFL) -> float:
    """CFL-style step bound: advection, explicit diffusion, acoustics.

    dt = cfl * min(h / |v|_inf, Re h^2 / 4, h / sqrt(K)); the acoustic
    bound applies only to the models that carry a bulk modulus.
    """
    h = state.grid.spacing
    vmax = state.v.max_abs()
    bounds = [cfg.re * h * h / 4.0]
    if vmax > 0.0:
        bounds.append(h / vmax)
    if cfg.model in ("temam", "compressible"):
        bounds.append(h / np.sqrt(cfg.k))
    return float(cfl * min(bounds))


def fixed_step(state: State, cfg: ModelConfig, t_final: float, dt: float | None = None,
               cfl: float = DEFAULT_CFL) -> tuple[int, float]:
    """``(steps, dt_used)``: ``dt`` (default stable_dt) trimmed to land on ``t_final``."""
    if t_final <= state.time:
        raise ValueError("t_final must exceed the state's current time")
    span = t_final - state.time
    base = dt if dt is not None else stable_dt(state, cfg, cfl)
    steps = max(1, int(np.ceil(span / base - 1e-12)))
    return steps, span / steps


@contextmanager
def blowup_guard(state: State, cfg: ModelConfig, dt: float):
    """Re-raise a failed step from ``state`` as SimulationBlowupError naming each bound.

    Overflow is no anomaly to warn about: the field constructors reject
    non-finite samples with ``ValueError``, which is what is caught here.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except ValueError as exc:
        h = state.grid.spacing
        vmax = state.v.max_abs()
        msg = (
            f"non-finite samples at t={state.time:.6g} with dt={dt:.3e}; "
            f"|v|_inf={vmax:.3e}, advective bound {h / max(vmax, 1e-300):.3e}, "
            f"diffusive bound {cfg.re * h * h / 4.0:.3e}"
        )
        if cfg.model in ("temam", "compressible") and cfg.k:
            msg += f", acoustic bound {h / np.sqrt(cfg.k):.3e}"
        raise SimulationBlowupError(msg) from exc


def step_rk4(rates, y: tuple, t: float, dt: float) -> tuple[tuple, tuple]:
    """One classical RK4 step of dy/dt = rates(y, t) for a tuple of fields.

    Returns ``(y_new, k1)``; galilean_alt reuses k1 = rates(y, t) as its lag.
    """

    def shifted(k: tuple, frac: float) -> tuple:
        return tuple(a + (frac * dt) * b for a, b in zip(y, k))

    k1 = rates(y, t)
    k2 = rates(shifted(k1, 0.5), t + 0.5 * dt)
    k3 = rates(shifted(k2, 0.5), t + 0.5 * dt)
    k4 = rates(shifted(k3, 1.0), t + dt)
    y_new = tuple(
        a + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    )
    return y_new, k1


def simulate(
    state: State,
    cfg: ModelConfig,
    forcing: ForcingSpec,
    t_final: float,
    dt: float | None = None,
    cfl: float = DEFAULT_CFL,
    store_every: int = 0,
    observer=None,
):
    """March a state to ``t_final`` with a fixed step.

    The step is chosen once from the initial state (or taken from ``dt``)
    and then trimmed so an integer number of steps lands exactly on
    ``t_final``.  ``observer(state)`` fires on the initial state and on
    every accepted step; ``store_every=m`` additionally collects every
    m-th state (plus the initial one) into the returned list.

    Returns ``(final_state, stored_states, dt_used)``.
    """
    steps, dt_used = fixed_step(state, cfg, t_final, dt, cfl)
    forcing.evaluate(state.grid, state.time)  # input errors surface here, not as a blow-up

    def rates(y: tuple, t: float):
        s = State(y[0], y[1], t)
        if cfg.model == "compressible":
            return compressible_rhs(s, forcing, cfg)
        return temam_rhs(s, forcing, cfg, dv_dt_prev=lag)

    stored: list[State] = []
    if observer is not None:
        observer(state)
    if store_every:
        stored.append(state)
    lag = None  # last step's acceleration, read by galilean_alt only; None is zero
    for i in range(steps):
        with blowup_guard(state, cfg, dt_used):
            if cfg.model == "incompressible":
                state = incompressible_step(state, forcing, cfg, dt_used)
            else:
                (v, p), (lag, _) = step_rk4(rates, (state.v, state.p), state.time, dt_used)
                state = State(v, p, state.time + dt_used)
        if observer is not None:
            observer(state)
        if store_every and ((i + 1) % store_every == 0 or i + 1 == steps):
            stored.append(state)
    return state, stored, dt_used


# -- scaling -----------------------------------------------------------------


def nondimensionalize(
    v_dim: VectorField, p_dim: ScalarField, f_dim: VectorField, cfg: ModelConfig
) -> tuple[VectorField, ScalarField, VectorField]:
    """Map dimensional (v, p, f) to the dimensionless setting.

    v -> v/V, p -> (p - p*)/(rho* V^2), f -> L f/(rho* V^2); the carrier
    grid is rescaled to period/L so positions are measured in units of L.
    """
    if v_dim.grid != p_dim.grid or v_dim.grid != f_dim.grid:
        raise ValueError("fields to nondimensionalize must share a grid")
    g = Grid(v_dim.grid.n, v_dim.grid.period / cfg.l_char)
    dyn = cfg.rho_star * cfg.v_char**2
    v = VectorField(g, v_dim.x / cfg.v_char, v_dim.y / cfg.v_char)
    p = ScalarField(g, (p_dim.values - cfg.p_star) / dyn)
    f = VectorField(g, cfg.l_char * f_dim.x / dyn, cfg.l_char * f_dim.y / dyn)
    return v, p, f


def redimensionalize(
    v: VectorField, p: ScalarField, f: VectorField, cfg: ModelConfig
) -> tuple[VectorField, ScalarField, VectorField]:
    """Inverse of :func:`nondimensionalize`."""
    if v.grid != p.grid or v.grid != f.grid:
        raise ValueError("fields to redimensionalize must share a grid")
    g = Grid(v.grid.n, v.grid.period * cfg.l_char)
    dyn = cfg.rho_star * cfg.v_char**2
    v_dim = VectorField(g, v.x * cfg.v_char, v.y * cfg.v_char)
    p_dim = ScalarField(g, p.values * dyn + cfg.p_star)
    f_dim = VectorField(g, f.x * dyn / cfg.l_char, f.y * dyn / cfg.l_char)
    return v_dim, p_dim, f_dim


def nondimensional_time(t_dim: float, cfg: ModelConfig) -> float:
    return cfg.v_char * t_dim / cfg.l_char


def dimensional_time(t: float, cfg: ModelConfig) -> float:
    return cfg.l_char * t / cfg.v_char


def dimensionless_bulk_modulus(k_dim: float, cfg: ModelConfig) -> float:
    return k_dim / (cfg.rho_star * cfg.v_char**2)
