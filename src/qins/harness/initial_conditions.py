"""Initial state catalog for the experiment drivers."""

from __future__ import annotations

import numpy as np

from ..fields import Grid, ScalarField, VectorField
from ..models import State
from .config import ConfigError, InitialConditionSpec
from .io import read_snapshot


def taylor_green_state(grid: Grid) -> State:
    """The decaying vortex array with its exact initial pressure."""
    return taylor_green_exact(grid, 0.0, 1.0)  # no decay yet at t = 0, whatever re


def taylor_green_exact(grid: Grid, t: float, re: float) -> State:
    """Closed-form decaying solution at time t for viscosity 1/re."""
    decay = float(np.exp(-2.0 * t / re))
    v = VectorField.from_function(
        grid,
        lambda X, Y: decay * np.sin(X) * np.cos(Y),
        lambda X, Y: -decay * np.cos(X) * np.sin(Y),
    )
    p = ScalarField.from_function(
        grid, lambda X, Y: decay * decay * 0.25 * (np.cos(2 * X) + np.cos(2 * Y))
    )
    return State(v, p, t)


def compressive_pulse_state(grid: Grid, amplitude: float) -> State:
    """Curl-free velocity from the potential a sin(x) sin(y); pressure zero.

    The analytic divergence is -2 a sin(x) sin(y), so the default
    amplitude 0.1 gives an L2 divergence around 0.63 on the 2 pi square.
    """
    a = float(amplitude)
    v = VectorField.from_function(
        grid,
        lambda X, Y: a * np.cos(X) * np.sin(Y),
        lambda X, Y: a * np.sin(X) * np.cos(Y),
    )
    return State(v, ScalarField.zeros(grid), 0.0)


def random_smooth_state(grid: Grid, seed: int, modes: int, amplitude: float) -> State:
    """Band-limited random velocity, normalized to the requested amplitude.

    Both components are independent real sums of a cos(theta) + b sin(theta),
    theta = kx x + ky y, over 0 <= kx <= modes, |ky| <= modes, except kx = 0,
    ky <= 0; a and b have standard deviation 1/(1+|k|^2) so the field stays
    smooth on coarse grids.  Deterministic in the seed.  As a cos + b sin is
    Re[(a - ib) e^{i theta}], each component is the separable sum Re(Ex C Ey^T)
    with Ex[i, kx] = e^{i kx x_i}, Ey[j, ky] = e^{i ky y_j}, C[kx, ky] = a - ib.
    """
    rng = np.random.default_rng(seed)
    k = np.arange(-modes, modes + 1)
    kx, ky = np.meshgrid(k[modes:], k, indexing="ij")
    keep = (kx > 0) | (ky > 0)
    scale = np.repeat(1.0 / (1.0 + kx[keep] ** 2 + ky[keep] ** 2), 2)
    coeffs = np.zeros((2,) + kx.shape, dtype=complex)
    for c in coeffs:  # (a, b) per mode in (kx, ky) order, all of vx then all of vy
        a, b = rng.normal(0.0, scale).reshape(-1, 2).T
        c[keep] = a - 1j * b
    ey = np.exp(1j * np.outer(grid.coords(), k))  # Ex: columns k >= 0
    rows = np.einsum("ik,ckl->cil", ey[:, modes:], coeffs, order="C")
    # Re(rows Ey^T): contract the interleaved (re, im) pairs of rows and conj(Ey)
    v = np.einsum("cil,jl->cij", rows.view(float), ey.conj().view(float))
    peak = max(v.max(), -v.min())
    if peak > 0.0:
        v *= amplitude / peak
    return State(VectorField(grid, v), ScalarField.zeros(grid), 0.0)


def initial_condition(spec: InitialConditionSpec, grid: Grid) -> State:
    """Build the configured initial state on the given grid."""
    if spec.kind == "taylor_green":
        return taylor_green_state(grid)
    if spec.kind == "compressive_pulse":
        return compressive_pulse_state(grid, spec.amplitude)
    if spec.kind == "taylor_green_pulse":
        base = taylor_green_state(grid)
        pulse = compressive_pulse_state(grid, spec.amplitude)
        return State(base.v + pulse.v, base.p, 0.0)
    if spec.kind == "random_smooth":
        return random_smooth_state(grid, spec.seed, spec.modes, spec.amplitude)
    if spec.kind == "from_snapshot":
        try:
            state = read_snapshot(spec.path)
        except ValueError as exc:
            raise ConfigError(f"cannot read snapshot {spec.path}: {exc}") from None
        if state.grid != grid:
            raise ConfigError(f"snapshot grid {state.grid} does not match requested {grid}")
        return state
    raise ValueError(f"unknown initial condition kind {spec.kind!r}")
