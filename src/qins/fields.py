"""Uniform periodic grid and cell-sampled field containers.

Everything downstream (difference operators, flow models, diagnostics)
works on the three types defined here: ``Grid``, ``ScalarField`` and
``VectorField``.  Fields are value types: construct them, then read them.
Arithmetic returns new fields and every construction validates shape and
finiteness at the API boundary.  The marching loops step packed arrays
instead and check finiteness once per step, on the new array.

Sampling convention: ``n x n`` cell centers, ``x_i = (i + 1/2) h`` with
``h = period / n``, axis 0 running along x and axis 1 along y.  The
quadrature behind ``integrate`` is the midpoint rule, which on this
lattice is spectrally accurate for smooth periodic integrands and exact
for trigonometric polynomials below the grid Nyquist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Uniform periodic square lattice: ``n`` cells per side, side ``period``.

    The spacing is always derived as ``period / n`` and never stored, so
    the three quantities cannot drift apart.
    """

    n: int
    period: float = TWO_PI

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError(f"grid needs at least 4 cells per side, got n={self.n}")
        if not self.period > 0.0:
            raise ValueError(f"grid period must be positive, got {self.period}")

    @property
    def spacing(self) -> float:
        return self.period / self.n

    def coords(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return (np.arange(self.n) + 0.5) * self.spacing

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Full coordinate arrays (X, Y), axis 0 along x."""
        x = self.coords()
        return np.meshgrid(x, x, indexing="ij")


def make_grid(n: int, period: float = TWO_PI) -> Grid:
    """Construct a periodic grid, rejecting degenerate sizes."""
    return Grid(int(n), float(period))


def _coerce(grid: Grid, values: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (grid.n, grid.n):
        raise ValueError(
            f"{what} must have shape {(grid.n, grid.n)}, got {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite samples")
    return arr


def _check_same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise ValueError(f"grid mismatch: {a} vs {b}")


@dataclass(frozen=True)
class ScalarField:
    """Real scalar samples at the cell centers of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _coerce(self.grid, self.values, "scalar field"))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        X, Y = grid.mesh()
        return cls(grid, np.asarray(fn(X, Y), dtype=np.float64))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full((grid.n, grid.n), float(value)))

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros((grid.n, grid.n)))

    # -- arithmetic (pointwise, grid-checked) --------------------------------

    def __add__(self, other: "ScalarField") -> "ScalarField":
        _check_same_grid(self.grid, other.grid)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        _check_same_grid(self.grid, other.grid)
        return ScalarField(self.grid, self.values - other.values)

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.values)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            _check_same_grid(self.grid, other.grid)
            return ScalarField(self.grid, self.values * other.values)
        if isinstance(other, VectorField):
            _check_same_grid(self.grid, other.grid)
            return VectorField(other.grid, self.values * other.x, self.values * other.y)
        return ScalarField(self.grid, self.values * float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ScalarField):
            _check_same_grid(self.grid, other.grid)
            return ScalarField(self.grid, self.values / other.values)
        return ScalarField(self.grid, self.values / float(other))


@dataclass(frozen=True)
class VectorField:
    """Planar vector samples (x and y components) at the cell centers."""

    grid: Grid
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _coerce(self.grid, self.x, "vector field x component"))
        object.__setattr__(self, "y", _coerce(self.grid, self.y, "vector field y component"))

    @classmethod
    def from_function(cls, grid: Grid, fx, fy) -> "VectorField":
        X, Y = grid.mesh()
        return cls(grid, np.asarray(fx(X, Y), dtype=np.float64),
                   np.asarray(fy(X, Y), dtype=np.float64))

    @classmethod
    def constant(cls, grid: Grid, wx: float, wy: float) -> "VectorField":
        shape = (grid.n, grid.n)
        return cls(grid, np.full(shape, float(wx)), np.full(shape, float(wy)))

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        shape = (grid.n, grid.n)
        return cls(grid, np.zeros(shape), np.zeros(shape))

    def component(self, axis: int) -> ScalarField:
        """One component as a scalar field (axis 0 = x, 1 = y)."""
        return ScalarField(self.grid, self.x if axis == 0 else self.y)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "VectorField") -> "VectorField":
        _check_same_grid(self.grid, other.grid)
        return VectorField(self.grid, self.x + other.x, self.y + other.y)

    def __sub__(self, other: "VectorField") -> "VectorField":
        _check_same_grid(self.grid, other.grid)
        return VectorField(self.grid, self.x - other.x, self.y - other.y)

    def __neg__(self) -> "VectorField":
        return VectorField(self.grid, -self.x, -self.y)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            _check_same_grid(self.grid, other.grid)
            return VectorField(self.grid, self.x * other.values, self.y * other.values)
        return VectorField(self.grid, self.x * float(other), self.y * float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ScalarField):
            _check_same_grid(self.grid, other.grid)
            return VectorField(self.grid, self.x / other.values, self.y / other.values)
        return VectorField(self.grid, self.x / float(other), self.y / float(other))

    def dot(self, other: "VectorField") -> ScalarField:
        _check_same_grid(self.grid, other.grid)
        return ScalarField(self.grid, self.x * other.x + self.y * other.y)

    def magnitude_squared(self) -> ScalarField:
        return ScalarField(self.grid, self.x * self.x + self.y * self.y)

    def max_abs(self) -> float:
        """Largest sample magnitude over both components."""
        return float(max(np.abs(self.x).max(), np.abs(self.y).max()))


Field = ScalarField | VectorField


def integrate(field: ScalarField) -> float:
    """Midpoint-rule integral of a scalar field over the periodic square.

    ``spacing**2 * sum(values)``; numpy's pairwise reduction over the
    C-contiguous sample array keeps the result deterministic run to run.
    """
    h = field.grid.spacing
    return float(h * h * field.values.sum())


def inner_product(a: Field, b: Field) -> float:
    """Discrete L2 inner product (integral of the pointwise product)."""
    if isinstance(a, ScalarField) != isinstance(b, ScalarField):
        raise TypeError("inner_product needs two fields of the same kind")
    _check_same_grid(a.grid, b.grid)
    if isinstance(a, ScalarField):
        return integrate(ScalarField(a.grid, a.values * b.values))
    return integrate(a.dot(b))


def l2_norm(field: Field) -> float:
    """Discrete L2 norm, sqrt of the field's inner product with itself."""
    if isinstance(field, ScalarField):
        sq = ScalarField(field.grid, field.values * field.values)
    else:
        sq = field.magnitude_squared()
    return float(np.sqrt(integrate(sq)))
