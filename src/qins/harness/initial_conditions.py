"""Initial state catalog for the experiment drivers."""

from __future__ import annotations

import numpy as np

from ..fields import Grid, ScalarField, VectorField
from ..models import State
from .config import ConfigError, InitialConditionSpec
from .io import read_snapshot


def taylor_green_state(grid: Grid) -> State:
    """The decaying vortex array with its exact initial pressure."""
    v = VectorField.from_function(
        grid,
        lambda X, Y: np.sin(X) * np.cos(Y),
        lambda X, Y: -np.cos(X) * np.sin(Y),
    )
    p = ScalarField.from_function(grid, lambda X, Y: 0.25 * (np.cos(2 * X) + np.cos(2 * Y)))
    return State(v, p, 0.0)


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

    Both components are independent real trigonometric sums over wave
    numbers up to ``modes``; the spectrum falls off as 1/(1+|k|^2) so the
    field stays smooth on coarse grids.  Deterministic in the seed.
    """
    rng = np.random.default_rng(seed)
    X, Y = grid.mesh()

    def component() -> np.ndarray:
        out = np.zeros_like(X)
        for kx in range(0, modes + 1):
            for ky in range(-modes, modes + 1):
                if kx == 0 and ky <= 0:
                    continue
                scale = 1.0 / (1.0 + kx * kx + ky * ky)
                a, b = rng.normal(0.0, scale, size=2)
                phase = kx * X + ky * Y
                out += a * np.cos(phase) + b * np.sin(phase)
        return out

    vx, vy = component(), component()
    peak = max(np.abs(vx).max(), np.abs(vy).max())
    if peak > 0.0:
        vx *= amplitude / peak
        vy *= amplitude / peak
    return State(VectorField(grid, vx, vy), ScalarField.zeros(grid), 0.0)


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
        state = read_snapshot(spec.path)
        if state.grid != grid:
            raise ConfigError(f"snapshot grid {state.grid} does not match requested {grid}")
        return state
    raise ValueError(f"unknown initial condition kind {spec.kind!r}")
