"""Flow models on the periodic square: right-hand sides and time stepping.

Three systems share one state (velocity, pressure, time):

* ``incompressible``  - advanced by a Chorin projection step; the
  pressure is the Lagrange multiplier of the divergence constraint.
* ``temam``           - quasi-incompressible relaxation: the pressure
  evolves by dp/dt = -K div v and the momentum equation may carry an
  extra force -(1/2)(div v) v that restores the energy balance, or the
  frame-indifferent -(p/K)(dv/dt + (v.grad)v), which makes it a momentum
  balance of density 1 + p/K.
* ``compressible``    - barotropic system in (v, p): the galilean_alt
  momentum balance of density 1 + p/K plus a dilatational viscous term,
  with the pressure rate dp/dt = -K div((1 + p/K) v).

``temam_rhs`` is the one right-hand side of both relaxed-pressure models.

The systems are posed in dimensionless form, as in the paper, with the
Reynolds number Re and the bulk modulus K as their parameters.

``march`` streams every model's run as one packed (3, n, n) array.  The
temam model past its acoustic bound h / sqrt(K) steps ETDRK4 (``ETDRK4``),
which takes the stiff linear part exactly per Fourier mode of the
stencils, so by default only the advective and diffusive bounds limit its
step.  The incompressible model takes projection steps, and every other
run classical RK4 (``step_rk4``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .fields import Grid, ScalarField, VectorField
from .operators import (
    _convection, _ddx, _ddy, _lap, convection, divergence, gradient, laplacian, stencil_symbols,
)

MODELS = ("incompressible", "temam", "compressible")
EXTRA_FORCES = ("temam", "none", "galilean_alt")

DEFAULT_CFL = 0.4


class SimulationBlowupError(RuntimeError):
    """A time step produced non-finite samples."""


@dataclass(frozen=True)
class ModelConfig:
    """Model selection plus the dimensionless parameters.

    ``re`` is the Reynolds number.  ``k`` is the bulk modulus and is
    required by the temam and compressible models.
    """

    model: str
    re: float
    k: float | None = None
    zeta_over_mu: float = 0.0
    extra_force: str = "temam"

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}, expected one of {MODELS}")
        if not self.re > 0.0:
            raise ValueError(f"re must be positive, got {self.re}")
        if self.model in ("temam", "compressible") and self.k is None:
            raise ValueError(f"model {self.model!r} needs a positive bulk modulus k, got None")
        if self.k is not None and not 0.0 < self.k < np.inf:
            raise ValueError(f"k must be positive and finite, got {self.k}")
        if not 0.0 <= self.zeta_over_mu < np.inf:
            raise ValueError(f"zeta_over_mu must be >= 0 and finite, got {self.zeta_over_mu}")
        if self.extra_force not in EXTRA_FORCES:
            raise ValueError(f"unknown extra_force {self.extra_force!r}")


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


def pack_state(state: State) -> np.ndarray:
    """A state's samples copied into one C-contiguous (3, n, n) array: vx, vy, p."""
    return np.concatenate([state.v.values, state.p.values[None]])


def unpack_state(y: np.ndarray, grid: Grid, time: float = 0.0) -> State:
    """Validated State over channels 0-2 of a packed array; views, not copies."""
    return State(VectorField(grid, y[:2]), ScalarField(grid, y[2]), time)


@dataclass(frozen=True)
class ForcingSpec:
    """Body force f(t): ``fn(t)`` gives its (2, n, n) samples, and ``fn=None`` no force."""

    fn: object = None

    @classmethod
    def zero(cls) -> "ForcingSpec":
        return cls()

    def sampler(self, grid: Grid, t0: float):
        """f by time, to add to a rate: the scalar 0.0, or ``fn`` once its shape passes at t0."""
        if self.fn is None:
            return lambda t: 0.0
        shape, want = np.shape(self.fn(t0)), (2, grid.n, grid.n)
        if shape != want:
            raise ValueError(f"forcing samples have shape {shape}, the grid needs {want}")
        return self.fn


# -- right-hand sides --------------------------------------------------------


def _extra_force(v: np.ndarray, div, out=None, scale=None) -> np.ndarray:
    """-(1/2)(div v) v of packed (2, n, n) v into ``out``; ``scale`` is (n, n) scratch."""
    return np.multiply(v, np.multiply(div, -0.5, out=scale), out=out)


def _density(p: np.ndarray, k: float, out=None) -> np.ndarray:
    """rho_hat = 1 + p/K into ``out``; ValueError unless it is positive everywhere."""
    rho = np.add(np.divide(p, k, out=out), 1.0, out=out)
    if not rho.min() > 0.0:
        raise ValueError("reconstructed density 1 + p/K reached zero")
    return rho


def temam_extra_force(v: VectorField) -> VectorField:
    """The quasi-incompressible extra force, -(1/2)(div v) v."""
    return VectorField(v.grid, _extra_force(v.values, divergence(v).values))


def galilean_alt_force(state: State, cfg: ModelConfig, f=0.0) -> VectorField:
    """Frame-indifferent alternative to the extra force, -(p/K)(dv/dt + (v.grad)v).

    Dimensionless reduction of -rho* (p/K) Dv/Dt; the prefactor vanishes as
    K grows, so the force is a strict-compressibility correction.  dv/dt is
    the galilean_alt rate (``temam_rhs``) of ``state`` under body force ``f``.
    """
    if cfg.k is None:
        raise ValueError("galilean_alt force needs a bulk modulus")
    y, h = pack_state(state), state.grid.spacing
    accel = temam_rhs(y, f, replace(cfg, extra_force="galilean_alt"), h)[:2]
    accel += _convection(y[:2], h)
    return VectorField(state.grid, np.multiply(accel, np.multiply(y[2], -1.0 / cfg.k), out=accel))


_TEMAM_WORK = 13  # channels of the work array temam_rhs needs
_SOURCE_WORK = 6  # and those _momentum_source and incompressible_step need


def temam_rhs(y: np.ndarray, f, cfg: ModelConfig, h: float, out=None, work=None,
              _linear: bool = True) -> np.ndarray:
    """Right-hand side of both relaxed-pressure models on packed (vx, vy, p).

    Temam model: momentum -(v.grad)v - grad p + (1/Re) lap v + f + extra
    force, with f of shape (2, n, n) or a scalar, and dp/dt = -K div v.  The
    galilean_alt force -(p/K)(dv/dt + (v.grad)v) is linear in the rate, so
    the momentum equation is solved for it: rho_hat (dv/dt + (v.grad)v) =
    -grad p + (1/Re) lap v + f, with the density rho_hat = 1 + p/K > 0.
    The compressible model is that balance plus the dilatational viscosity
    ((zeta/mu + 1/3)/Re) grad div v, with dp/dt = -K div(rho_hat v).
    Given ``out`` and ``work`` (13, n, n), it allocates nothing.
    ``_linear=False`` drops -grad p, (1/Re) lap v and -K div v, the linear
    part ETDRK4 integrates exactly, and gives the temam model's N.
    """
    if cfg.model == "incompressible":
        raise ValueError(f"temam_rhs called with model {cfg.model!r}")
    out = np.empty_like(y) if out is None else out
    w = np.empty((_TEMAM_WORK,) + y.shape[1:]) if work is None else work
    dx, dy, conv, t, lap, div = w[0:3], w[3:6], w[6:8], w[8:10], w[10:12], w[12]
    v, dv, grad_p = y[:2], out[:2], w[2:6:3]  # grad_p: channels 2 of dx and dy
    comp = cfg.model == "compressible"
    alt = comp or cfg.extra_force == "galilean_alt"
    c = 3 if _linear or alt else 2  # gradients read
    _ddx(y[:c], h, dx[:c])
    _ddy(y[:c], h, dy[:c])
    _convection(v, h, conv, dx[:2], dy[:2], (t, lap, dv))
    np.add(dx[0], dy[1], out=div)
    if alt:  # (lap v/Re - grad p + f)/rho_hat - conv, or N's (f - (p/K)(lap v/Re - grad p))/...
        rate = np.subtract(np.multiply(_lap(v, h, lap, t), 1.0 / cfg.re, out=lap), grad_p, out=lap)
        if comp:  # + ((zeta/mu + 1/3)/Re) grad div v
            _ddx(div, h, t[0])
            _ddy(div, h, t[1])
            rate += np.multiply(t, (cfg.zeta_over_mu + 1.0 / 3.0) / cfg.re, out=t)
        if not _linear:  # its zeros are +0.0 with or without f
            np.subtract(f, np.multiply(rate, np.divide(y[2], cfg.k, out=t[0]), out=rate), out=rate)
        elif np.ndim(f) or f:
            rate += f
        np.subtract(np.divide(rate, _density(y[2], cfg.k, t[0]), out=rate), conv, out=dv)
    else:  # lap v / Re - (conv + grad p), or N's 0.0 - conv (+0.0 where conv is 0)
        rate = np.multiply(_lap(v, h, lap, t), 1.0 / cfg.re, out=lap) if _linear else 0.0
        np.subtract(rate, np.add(conv, grad_p, out=t) if _linear else conv, out=dv)
        if np.ndim(f) or f:  # the sampler's no-force 0.0 adds nothing
            dv += f
        if cfg.extra_force == "temam":
            dv += _extra_force(v, div, t, lap[0])
    if comp:  # -K div(rho_hat v), its flux where conv was and rho_hat still in t[0]
        flux = np.multiply(v, t[0], out=conv)
        np.add(_ddx(flux[0], h, lap[0]), _ddy(flux[1], h, lap[1]), out=out[2])
        out[2] *= -cfg.k
    else:
        np.multiply(div, -cfg.k if _linear else 0.0, out=out[2])
    return out


# -- pressure Poisson solve and projection -----------------------------------


@lru_cache
def _poisson_inverse(n: int, h: float) -> np.ndarray:
    sin_x, sin_y, _ = stencil_symbols(n, h)
    sym = -(sin_x**2 + sin_y**2) / (h * h)
    null = np.outer(2 * np.arange(n) % n == 0, 2 * np.arange(n // 2 + 1) % n == 0)
    inv = np.divide(1.0, sym, out=np.zeros_like(sym), where=~null)
    inv.flags.writeable = False
    return inv


def solve_pressure_poisson(rhs: np.ndarray, h: float, out=None) -> np.ndarray:
    """Solve div(grad p) = rhs on the torus exactly in Fourier space, into ``out`` if given.

    The composed central-difference operator is the wide stencil with
    Fourier symbol -(sin^2 theta_x + sin^2 theta_y) / h^2, theta = 2 pi m / n,
    so a velocity corrected with the solution is divergence-free to
    round-off.  The symbol vanishes where 2m = 0 (mod n) on both axes: the
    constant mode, plus the three checkerboard modes on even grids.  Those
    modes are dropped, which projects the right-hand side onto the
    operator's range (the compatibility condition) and fixes the solution
    gauge at mean zero.  The inverse symbol, cached read-only per (n, h), is 0
    there: sin(pi)^2 is about 1e-32, not 0, and its inverse would swamp the solution.
    """
    if rhs.ndim != 2 or rhs.shape[0] != rhs.shape[1]:
        raise ValueError(f"pressure Poisson right-hand side must be (n, n), got {rhs.shape}")
    p_hat = np.fft.rfft2(rhs)
    p_hat *= _poisson_inverse(rhs.shape[0], h)
    return np.fft.irfftn(p_hat, rhs.shape, axes=(-2, -1), out=out)


def project_divergence_free(v: VectorField) -> tuple[VectorField, ScalarField]:
    """Remove the discrete-gradient part of v; returns (solenoidal v, potential)."""
    phi = ScalarField(v.grid, solve_pressure_poisson(divergence(v).values, v.grid.spacing))
    return v - gradient(phi), phi


def _momentum_source(v: np.ndarray, f, cfg: ModelConfig, h: float, out=None,
                     work=None) -> np.ndarray:
    """-(v.grad)v + (1/Re) lap v + f of packed (2, n, n) v; ``work`` is (6, n, n)."""
    t, s, u = np.empty((3,) + v.shape) if work is None else (work[0:2], work[2:4], work[4:6])
    out = _convection(v, h, out, work=(t, s, u))
    np.subtract(np.multiply(_lap(v, h, s, t), 1.0 / cfg.re, out=s), out, out=out)
    if np.ndim(f) or f:  # as in temam_rhs
        out += f
    return out


def consistent_pressure(
    v: VectorField, forcing: ForcingSpec, cfg: ModelConfig, t: float = 0.0
) -> ScalarField:
    """Pressure consistent with the instantaneous momentum balance.

    Solves div(grad p) = div(-(v.grad)v + (1/Re) lap v + f); starting a
    quasi-incompressible run from this pressure avoids exciting an
    artificial acoustic transient.
    """
    # field operators, not _momentum_source: the relaxed-stiff trace expects both in set-up
    rate = -convection(v) + (1.0 / cfg.re) * laplacian(v)
    src = VectorField(v.grid, rate.values + forcing.sampler(v.grid, t)(t))
    return ScalarField(v.grid, solve_pressure_poisson(divergence(src).values, v.grid.spacing))


def incompressible_step(y: np.ndarray, f, cfg: ModelConfig, h: float, dt: float,
                        work=None) -> np.ndarray:
    """One Chorin projection step of the incompressible system on packed (vx, vy, p).

    Explicit advection-diffusion predictor v* = v + dt (-(v.grad)v + (1/Re)
    lap v + f), pressure Poisson solve div(grad p) = div(v*) / dt, then
    correction v = v* - dt grad p.  The new pressure is the projection multiplier
    with mean zero, solved into the new array; the old one is not read.  With ``work``
    (6, n, n) only the new array and the solve's spectrum allocate; it is checked
    once (``_checked``).
    """
    if cfg.model != "incompressible":
        raise ValueError(f"incompressible_step called with model {cfg.model!r}")
    w = np.empty((_SOURCE_WORK,) + y.shape[1:]) if work is None else work
    y_new = np.empty_like(y)
    v_star = np.multiply(_momentum_source(y[:2], f, cfg, h, y_new[:2], w), dt, out=y_new[:2])
    v_star += y[:2]
    div = np.add(_ddx(v_star[0], h, w[0]), _ddy(v_star[1], h, w[1]), out=w[0])
    solve_pressure_poisson(np.divide(div, dt, out=div), h, out=y_new[2])
    _ddx(y_new[2], h, w[0])
    _ddy(y_new[2], h, w[1])
    v_star -= np.multiply(w[:2], dt, out=w[:2])  # dt grad p
    return _checked(y_new, "projection step")


# -- time stepping -----------------------------------------------------------


def _checked(y_new: np.ndarray, step: str) -> np.ndarray:
    """``y_new``, or ValueError if a sample is non-finite or so large that the
    sum of the squared samples, a consumer's energy, could overflow.
    """
    if not max(y_new.max(), -y_new.min()) < math.sqrt(sys.float_info.max / y_new.size):
        raise ValueError(f"{step} produced non-finite or overflowing samples")
    return y_new


def _step_bounds(h: float, vmax: float, cfg: ModelConfig) -> dict[str, float]:
    """Explicit step bounds by name, for stable_dt and the blow-up message.

    Advective h / |v|_inf (infinite at rest), diffusive Re h^2 / 4 and,
    for the models that carry a bulk modulus, acoustic h / sqrt(K).
    """
    bounds = {
        "advective": h / vmax if vmax > 0.0 else np.inf,
        "diffusive": cfg.re * h * h / 4.0,
    }
    if cfg.model in ("temam", "compressible"):
        bounds["acoustic"] = h / np.sqrt(cfg.k)
    return bounds


def stable_dt(state: State, cfg: ModelConfig, cfl: float = DEFAULT_CFL) -> float:
    """CFL-style step bound: cfl times the smallest of the step bounds."""
    return float(cfl * min(_step_bounds(state.grid.spacing, state.v.max_abs(), cfg).values()))


def fixed_step(state: State, cfg: ModelConfig, t_final: float, dt: float | None = None,
               cfl: float = DEFAULT_CFL) -> tuple[int, float]:
    """``(steps, dt_used)``: ``dt`` (default stable_dt) trimmed to land on ``t_final``."""
    if t_final <= state.time:
        raise ValueError("t_final must exceed the state's current time")
    span = t_final - state.time
    base = dt if dt is not None else stable_dt(state, cfg, cfl)
    if not 0.0 < base < np.inf:
        raise ValueError(f"time step must be positive and finite, got {base}")
    steps = max(1, int(np.ceil(span / base - 1e-12)))
    return steps, span / steps


def _advective_guard(v, t: float, h: float, cfg: ModelConfig, dt: float) -> None:
    """Refuse a step from time ``t`` whose dt exceeds the advective bound h / |v|_inf.

    Once the acoustic bound no longer limits the step, the advective bound,
    fixed from the initial state, is what a run could outgrow; this names it
    before any sample turns non-finite.
    """
    vmax = float(np.abs(v).max())
    if dt > _step_bounds(h, vmax, cfg)["advective"]:
        raise _blowup_error("step past the advective bound", vmax, t, h, cfg, dt)


def _blowup_error(what: str, vmax: float, t: float, h: float, cfg: ModelConfig,
                  dt: float) -> SimulationBlowupError:
    bounds = ", ".join(
        f"{name} bound {value:.3e}" for name, value in _step_bounds(h, vmax, cfg).items()
    )
    return SimulationBlowupError(
        f"{what} at t={t:.6g} with dt={dt:.3e}; |v|_inf={vmax:.3e}, {bounds}"
    )


def step_rk4(rates, y: np.ndarray, t: float, dt: float, work=None) -> np.ndarray:
    """One classical RK4 step of dy/dt = rates(y, t, out) for one array: ``y_new``.

    ``work`` (shape ``(5,) + y.shape``) holds k1..k4 and the stage state, so
    the stages and the combination allocate nothing but ``y_new``.  The new
    array is checked once (``_checked``).
    """
    k1, k2, k3, k4, ys = np.empty((5,) + y.shape) if work is None else work
    rates(y, t, k1)
    rates(np.add(y, np.multiply(k1, 0.5 * dt, out=ys), out=ys), t + 0.5 * dt, k2)
    rates(np.add(y, np.multiply(k2, 0.5 * dt, out=ys), out=ys), t + 0.5 * dt, k3)
    rates(np.add(y, np.multiply(k3, dt, out=ys), out=ys), t + dt, k4)
    np.add(k1, np.multiply(k2, 2.0, out=k2), out=k2)  # (dt/6)(k1 + 2k2 + 2k3 + k4) in k2
    k2 += np.multiply(k3, 2.0, out=k3)
    k2 += k4
    return _checked(y + np.multiply(k2, dt / 6.0, out=k2), "RK4 step")


# 1/(j+3)! for j = 0..17: the series of phi_3 where |z| < 1
_PHI3_SERIES = np.cumprod([1.0 / 6.0] + [1.0 / (j + 3) for j in range(1, 18)])


def _phi(z: np.ndarray) -> tuple[np.ndarray, ...]:
    """exp(z) and phi_1..phi_3(z), phi_k(z) = 1/k! + z phi_{k+1}(z), for real or complex z.

    The closed forms lose digits where |z| < 1; there phi_3 is summed as a
    series and phi_2, phi_1 follow by the recurrence.
    """
    e = np.exp(z)
    small = np.abs(z) < 1.0
    zs = np.where(small, 1.0, z)
    p1 = (e - 1.0) / zs
    p2 = (p1 - 1.0) / zs
    p3 = (p2 - 0.5) / zs
    if small.any():
        w, s3 = z[small], 0.0
        for c in _PHI3_SERIES[::-1]:
            s3 = s3 * w + c
        p3[small] = s3
        p2[small] = 0.5 + w * s3
        p1[small] = 1.0 + w * p2[small]
    return e, p1, p2, p3


def _etd_functions(z: np.ndarray, dt: float) -> np.ndarray:
    """E, E_1/2, Q, f1, 2 f2, f3 of ETDRK4 at eigenvalues z of L dt, stacked on axis 0.

    Kassam & Trefethen (2005): Q = dt (e^{z/2} - 1)/z and f1..f3 are the
    stage weights, written with the phi functions so they hold at z = 0.
    f2 only ever weighs N(a) + N(b) twice, so it comes doubled.
    """
    e, p1, p2, p3 = _phi(z)
    e_half, q1, _, _ = _phi(0.5 * z)
    return np.stack([e, e_half, (0.5 * dt) * q1, dt * (p1 - 3.0 * p2 + 4.0 * p3),
                     (2.0 * dt) * (p2 - 2.0 * p3), dt * (4.0 * p3 - p2)])


_CONTOUR = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)  # unit circle, 32 points
_MODES_PER_BLOCK = 4096  # modes per coefficient block: bounded temporaries, few calls


def etd_coefficients(cfg: ModelConfig, symbols: tuple, h: float, dt: float) -> np.ndarray:
    """ETDRK4 coefficients of the temam model's linear part, per rfft2 mode.

    L(v, p) = (-grad p + lap v / Re, -K div v).  With s the symbol vector
    (sin theta_x, sin theta_y) / h and sigma = |s|, a mode splits into the
    transverse velocity, which only decays (eigenvalue lap dt / Re = 2c),
    and the longitudinal velocity u = s.v / sigma with p, whose block of
    L dt is c I + B, B = [[c, -i sigma dt], [-i K sigma dt, -c]], B^2 =
    delta^2 I, delta^2 = c^2 - K sigma^2 dt^2.  So any function f of it is
    g0 I + g1 B with real g0, g1: the half sum and the divided difference
    of f at c +- delta, which for an oscillatory pair c +- i omega are
    Re f(c + i omega) and Im f(c + i omega) / omega.  Where |delta| < 1/4
    they are contour means around c.

    ``symbols`` is ``stencil_symbols(n, h)``.  Returns (6, 4, n, n//2 + 1)
    reals: for each function of ``_etd_functions``, a (transverse factor),
    m ((uu entry - a) / sigma^2), g (g1 dt) and d (pp entry), so that the
    function maps a mode (v, p) to (a v + s (m s.v - i g p), d p - i K g s.v).
    """
    sin_x, sin_y, lap = symbols
    half = len(lap) // 2 + 1  # theta_x and -theta_x share their symbols, so mirror those rows
    sigma2 = ((sin_x[:half] ** 2 + sin_y**2) / (h * h)).ravel()
    c = ((0.5 * dt / cfg.re) * lap[:half]).ravel()
    delta2 = c * c - cfg.k * dt * dt * sigma2
    coef = np.zeros((6, 4) + lap.shape)
    modes = coef[:, :, :half].reshape(6, 4, -1)  # a view
    for i in range(0, c.size, _MODES_PER_BLOCK):
        b = slice(i, i + _MODES_PER_BLOCK)
        _coefficient_block(c[b], delta2[b], sigma2[b], dt, modes[:, :, b])
    coef[:, :, half:] = coef[:, :, len(lap) - half:0:-1]
    return coef


def _coefficient_block(c, delta2, sigma2, dt: float, coef: np.ndarray) -> None:
    coef[:, 0] = _etd_functions(2.0 * c, dt)
    g1, g0 = coef[:, 2], coef[:, 3]  # turned into g and d at the end
    osc, over = delta2 <= -1.0 / 16.0, delta2 >= 1.0 / 16.0
    near = ~(osc | over)
    omega = np.sqrt(-delta2[osc])
    values = _etd_functions(c[osc] + 1j * omega, dt)  # f(c - i omega) is its conjugate
    g0[:, osc], g1[:, osc] = values.real, values.imag / omega
    if over.any():  # real c +- delta, where damping outweighs sound
        delta = np.sqrt(delta2[over])
        up, down = (_etd_functions(c[over] + sign * delta, dt) for sign in (1.0, -1.0))
        g0[:, over], g1[:, over] = 0.5 * (up + down), (up - down) * (0.5 / delta)
    # (zI - cI - B)^-1 = ((z - c) I + B) / ((z - c)^2 - delta^2) on z = c + r
    r = _CONTOUR
    w = r / (r * r - delta2[near][:, None])
    values = _etd_functions(c[near][:, None] + r, dt)
    g0[:, near] = (values * w * r).mean(axis=-1).real
    g1[:, near] = (values * w).mean(axis=-1).real
    np.divide(g0 + c * g1 - coef[:, 0], sigma2, out=coef[:, 1], where=sigma2 > 0.0)
    g0 -= c * g1
    g1 *= dt


class ETDRK4:
    """ETDRK4 for the temam model: its linear part exact per Fourier mode.

    On the torus the stiff part of the temam model is linear with
    constant coefficients, L(v, p) = (-grad p + lap v / Re, -K div v), and
    the stencils' Fourier symbols diagonalise it (``etd_coefficients``).
    The rest, N, is convection, the extra force and the forcing:
    ``temam_rhs`` without its linear lines, evaluated directly.  N has no
    pressure part, so the stages transform only the channels N reads: the
    velocity and, for galilean_alt, whose density 1 + p/K weighs the whole
    momentum balance, the pressure.  Scheme: Cox & Matthews,
    J. Comput. Phys. 176 (2002), with coefficients as in Kassam &
    Trefethen, SIAM J. Sci. Comput. 26 (2005).
    The coefficients fix dt for the stepper; ``step`` allocates only the new state.
    """

    def __init__(self, cfg: ModelConfig, n: int, h: float, dt: float) -> None:
        sin_x, sin_y, lap = symbols = stencil_symbols(n, h)
        self.s = np.stack(np.broadcast_arrays(sin_x / h, sin_y / h))  # symbol vector
        self.coef = etd_coefficients(cfg, symbols, h, dt)
        self.ig, self.igk = -1j * self.coef[:, 2], (-1j * cfg.k) * self.coef[:, 2]
        self.dt = dt
        self.reads = 3 if cfg.extra_force == "galilean_alt" else 2  # the channels N reads
        self.spectral = np.empty((3, 3) + lap.shape, dtype=complex)  # stages
        self.nonlinear = np.empty((4, 2) + lap.shape, dtype=complex)  # N of stages
        self.scratch = np.empty((2, 2) + lap.shape, dtype=complex)
        self.stage, self.rate = np.zeros((2, 3, n, n))

    def _apply(self, which: int, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = function ``which`` of L dt times z = (v, p), or (v) with p = 0; may be z.

        Mode by mode that is (a v + s (m s.v - i g p), d p - i K g s.v).
        """
        a, m, _, d = self.coef[which]
        (sv, t), sz = self.scratch
        np.multiply(self.s, z[:2], out=sz)
        np.add(sz[0], sz[1], out=sv)
        np.multiply(m, sv, out=t)
        if len(z) == 3:
            t += np.multiply(self.ig[which], z[2], out=sz[0])
            np.multiply(d, z[2], out=out[2])
            out[2] += np.multiply(self.igk[which], sv, out=sz[0])
        else:
            np.multiply(self.igk[which], sv, out=out[2])
        np.multiply(a, z[:2], out=out[:2])
        out[:2] += np.multiply(self.s, t, out=sz)
        return out

    def _stage(self, nonlinear, z: np.ndarray, t: float, out: np.ndarray) -> np.ndarray:
        """out = the transform of N at the stage whose transform is z."""
        c = self.reads
        np.fft.irfftn(z[:c], self.stage.shape[1:], axes=(-2, -1), out=self.stage[:c])
        return np.fft.rfft2(nonlinear(self.stage, t, self.rate)[:2], out=out)

    def step(self, nonlinear, y: np.ndarray, t: float) -> np.ndarray:
        """``y_new`` one step from packed (vx, vy, p); ``nonlinear(y, t, out)`` writes N at (y, t)."""
        E, E_HALF, Q, F1, F2, F3 = range(6)
        z, a, acc = self.spectral  # z: the transform of y, then scratch and the b stage
        nv, na, nb, nd = self.nonlinear  # N(y), N(a), N(b) then N(c), differences
        np.fft.rfft2(y, out=z)
        np.fft.rfft2(nonlinear(y, t, self.rate)[:2], out=nv)
        self._apply(E, z, acc)
        self._apply(E_HALF, z, a)
        a += self._apply(Q, nv, z)  # a = E_1/2 y + Q N(y)
        acc += self._apply(F1, nv, z)
        self._stage(nonlinear, a, t + 0.5 * self.dt, na)
        self._apply(Q, np.subtract(na, nv, out=nd), z)
        z += a  # b = E_1/2 y + Q N(a) = a + Q (N(a) - N(y))
        self._stage(nonlinear, z, t + 0.5 * self.dt, nb)
        na += nb
        acc += self._apply(F2, na, z)  # f2 weighs N(a) + N(b)
        np.multiply(nb, 2.0, out=nd)
        nd -= nv
        self._apply(E_HALF, a, a)
        a += self._apply(Q, nd, z)  # c = E_1/2 a + Q (2 N(b) - N(y))
        self._stage(nonlinear, a, t + self.dt, nb)
        acc += self._apply(F3, nb, z)
        return _checked(np.fft.irfft2(acc, s=y.shape[1:]), "ETDRK4 step")


def _march(y: np.ndarray, t: float, steps: int, dt: float, advance, h: float, cfg: ModelConfig):
    """Yield packed ``(y, t)``, then again after each of ``steps`` steps ``advance(y, t)`` of ``dt``.

    A step that fails with ValueError raises SimulationBlowupError, led by
    that error's text and then each step bound; the steppers fail on
    samples that are non-finite or that would overflow, the field
    constructors on non-finite ones and the density guard on a density
    1 + p/K that is not positive, so no consumer is handed a state whose
    energy it cannot form.  Overflow is therefore no anomaly to warn
    about.  Each step makes a new array, so a consumer may keep what it
    was given.
    """
    yield y, t
    for _ in range(steps):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                y = advance(y, t)
        except ValueError as exc:
            raise _blowup_error(str(exc), float(np.abs(y[:2]).max()), t, h, cfg, dt) from exc
        t = t + dt
        yield y, t


def march(state: State, cfg: ModelConfig, forcing: ForcingSpec, t_final: float,
          dt: float | None = None, cfl: float = DEFAULT_CFL, _packed: bool = False):
    """March a state to ``t_final`` with a fixed step: ``(steps, dt_used, states)``.

    ``states`` is a generator of the initial state and then each state as
    its step is taken, so a consumer holds only what it keeps; ``_packed``
    yields packed ``(y, t)`` instead and builds no State.  The step is chosen
    once from the initial state (or taken from ``dt``) and trimmed so that
    ``steps`` steps land exactly on ``t_final``.

    The step picks the integrator.  The temam model past its acoustic
    bound, dt > h / sqrt(K), steps ETDRK4, which treats the stiff linear
    part exactly, and refuses any step past the advective bound; so its
    default step is ``cfl`` times the advective and diffusive bounds only.
    The incompressible model takes projection steps (``incompressible_step``)
    and every other run classical RK4 (``step_rk4``), by default at
    ``stable_dt``.  A forcing that cannot be sampled raises here, before
    any step.  The run owns its buffers.
    """
    grid, h = state.grid, state.grid.spacing
    if dt is None and cfg.model == "temam":
        bounds = _step_bounds(h, state.v.max_abs(), cfg)
        dt = cfl * min(bounds["advective"], bounds["diffusive"])
    steps, dt_used = fixed_step(state, cfg, t_final, dt, cfl)
    force = forcing.sampler(grid, state.time)  # input errors surface here, not as a blow-up
    y, etd, work = pack_state(state), None, None
    projection = cfg.model == "incompressible"
    if cfg.model == "temam" and dt_used > h / np.sqrt(cfg.k):
        etd = ETDRK4(cfg, grid.n, h, dt_used)
    elif not projection:
        work = np.empty((5,) + y.shape)
    rhs_work = np.empty((_SOURCE_WORK if projection else _TEMAM_WORK,) + y.shape[1:])

    def rates(ys: np.ndarray, ts: float, out: np.ndarray) -> np.ndarray:
        return temam_rhs(ys, force(ts), cfg, h, out, rhs_work, _linear=etd is None)

    def advance(ys: np.ndarray, ts: float) -> np.ndarray:
        if projection:
            return incompressible_step(ys, force(ts), cfg, h, dt_used, rhs_work)
        if etd:
            _advective_guard(ys[:2], ts, h, cfg, dt_used)
            return etd.step(rates, ys, ts)
        return step_rk4(rates, ys, ts, dt_used, work)

    samples = _march(y, state.time, steps, dt_used, advance, h, cfg)
    return steps, dt_used, samples if _packed else (unpack_state(y, grid, t) for y, t in samples)


def simulate(state: State, cfg: ModelConfig, forcing: ForcingSpec, t_final: float,
             dt: float | None = None, cfl: float = DEFAULT_CFL, observer=None):
    """``(final_state, [], dt_used)`` of ``march``'s run.

    ``observer(state)`` fires on the initial state and on every accepted
    step; without one, no State is built but the final one.  The middle
    slot is always empty, for callers that unpack three values; a caller
    that reads the states iterates ``march``.
    """
    _, dt_used, samples = march(state, cfg, forcing, t_final, dt, cfl, _packed=True)
    for y, t in samples:
        if observer is not None:
            observer(unpack_state(y, state.grid, t))
    return unpack_state(y, state.grid, t), [], dt_used
