"""Body forces for the tests: ``ForcingSpec(fn)`` built from a grid's mesh."""

import numpy as np

from qins.fields import VectorField
from qins.models import ForcingSpec


def trig(grid, amplitude, kx=1, ky=1):
    """The steady cell pattern a (sin(kx x) cos(ky y), -cos(kx x) sin(ky y))."""
    X, Y = grid.mesh()
    a = float(amplitude)
    table = np.stack([a * np.sin(kx * X) * np.cos(ky * Y), -a * np.cos(kx * X) * np.sin(ky * Y)])
    return ForcingSpec(lambda t: table)


def from_mesh(grid, fn):
    """The force ``fn(X, Y, t) -> (fx, fy)`` on the grid's mesh, each part broadcast to (n, n)."""
    X, Y = grid.mesh()
    shape = (grid.n, grid.n)
    return ForcingSpec(
        lambda t: np.stack([np.broadcast_to(np.asarray(c, float), shape) for c in fn(X, Y, t)]))


def field(forcing, grid, t):
    """The force at time ``t`` as a VectorField, for the field-level oracles."""
    return VectorField(grid, forcing.fn(t))
