"""Uniform periodic grid and cell-sampled field containers.

Everything downstream (difference operators, flow models, diagnostics)
works on the three types defined here: ``Grid``, ``ScalarField`` and
``VectorField``.  A field is a thin, validated façade over one sample
array, ``values``: (n, n) for a scalar field, (2, n, n) for a vector
field, whose ``x`` and ``y`` are views of its two channels.  So a kernel
takes a field's array as it is, and its result is wrapped without a copy.
Fields are value types: construct them, then read them.  Arithmetic
returns new fields and every construction validates shape and finiteness
once, at the API boundary.  The marching loops step packed (3, n, n)
arrays instead and check finiteness once per step, on the new array.

Sampling convention: ``n x n`` cell centers, ``x_i = (i + 1/2) h`` with
``h = 2 pi / n``, axis 0 running along x and axis 1 along y.  The
quadrature behind ``integrate`` is the midpoint rule, which on this
lattice is spectrally accurate for smooth periodic integrands and exact
for trigonometric polynomials below the grid Nyquist.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partialmethod

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Uniform lattice of ``n`` cells per side on the periodic square of side 2 pi.

    The model is dimensionless, so the 2 pi torus is its only domain; the
    spacing is derived as ``2 pi / n`` and never stored.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError(f"grid needs at least 4 cells per side, got n={self.n}")

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n

    def coords(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return (np.arange(self.n) + 0.5) * self.spacing

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Full coordinate arrays (X, Y), axis 0 along x."""
        x = self.coords()
        return np.meshgrid(x, x, indexing="ij")


def make_grid(n: int) -> Grid:
    """Construct a periodic grid, rejecting degenerate sizes."""
    return Grid(int(n))


def _coerce(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite samples")
    return arr


def _check_same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise ValueError(f"grid mismatch: {a} vs {b}")


@dataclass(frozen=True)
class _Field:
    """One validated sample array on a grid, with pointwise arithmetic.

    An operand is a number or a field on the same grid; a scalar field
    broadcasts over the components of a vector field, and the result is
    the kind of field its samples' shape says.
    """

    grid: Grid
    values: np.ndarray
    _components = ()  # leading axes of ``values``, before the (n, n) lattice
    _what = "field"

    def __post_init__(self) -> None:
        shape = self._components + (self.grid.n, self.grid.n)
        object.__setattr__(self, "values", _coerce(self.values, shape, self._what))

    @classmethod
    def zeros(cls, grid: Grid):
        return cls(grid, np.zeros(cls._components + (grid.n, grid.n)))

    def max_abs(self) -> float:
        """Largest sample magnitude over every component."""
        return float(np.abs(self.values).max())

    def _operand(self, other):
        if isinstance(other, _Field):
            _check_same_grid(self.grid, other.grid)
            return other.values
        return float(other)

    def _pointwise(self, ufunc, *other):
        values = ufunc(self.values, *map(self._operand, other))
        return (VectorField if values.ndim == 3 else ScalarField)(self.grid, values)

    __add__ = partialmethod(_pointwise, np.add)
    __sub__ = partialmethod(_pointwise, np.subtract)
    __neg__ = partialmethod(_pointwise, np.negative)
    __mul__ = __rmul__ = partialmethod(_pointwise, np.multiply)
    __truediv__ = partialmethod(_pointwise, np.divide)


@dataclass(frozen=True)
class ScalarField(_Field):
    """Real scalar samples at the cell centers of a grid: ``values`` is (n, n)."""

    _what = "scalar field"

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        X, Y = grid.mesh()
        return cls(grid, np.asarray(fn(X, Y), dtype=np.float64))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full((grid.n, grid.n), float(value)))


@dataclass(frozen=True)
class VectorField(_Field):
    """Planar vector samples at the cell centers: ``values`` is (2, n, n), x then y."""

    _components = (2,)
    _what = "vector field"

    @property
    def x(self) -> np.ndarray:
        return self.values[0]

    @property
    def y(self) -> np.ndarray:
        return self.values[1]

    @classmethod
    def from_function(cls, grid: Grid, fx, fy) -> "VectorField":
        X, Y = grid.mesh()
        return cls(grid, np.array([fx(X, Y), fy(X, Y)], dtype=np.float64))

    @classmethod
    def constant(cls, grid: Grid, wx: float, wy: float) -> "VectorField":
        return cls(grid, np.full((2, grid.n, grid.n), [[[float(wx)]], [[float(wy)]]]))

    def component(self, axis: int) -> ScalarField:
        """One component as a scalar field (axis 0 = x, 1 = y)."""
        return ScalarField(self.grid, self.values[axis])

    def dot(self, other: "VectorField") -> ScalarField:
        _check_same_grid(self.grid, other.grid)
        return ScalarField(self.grid, self.x * other.x + self.y * other.y)

    def magnitude_squared(self) -> ScalarField:
        return self.dot(self)


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
    if type(a) is not type(b):
        raise TypeError("inner_product needs two fields of the same kind")
    _check_same_grid(a.grid, b.grid)
    prod = a.values * b.values
    return integrate(ScalarField(a.grid, prod[0] + prod[1] if prod.ndim == 3 else prod))


def l2_norm(field: Field) -> float:
    """Discrete L2 norm, sqrt of the field's inner product with itself."""
    return float(np.sqrt(inner_product(field, field)))
