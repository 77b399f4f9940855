"""Second-order central difference operators on the periodic grid.

The stencils are slice kernels over the last two axes of any array (x,
then y), so one call serves every channel of a packed ``(c, n, n)``
state.  Along x they wrap with edge slices; along y each shift is one
pass over the flattened array, after which the two wrap columns are
written exactly; one multiply by 0.5/h or 1/h^2, not a division, scales
the result.  They write into ``out`` when given, which the y kernels
require C-contiguous (``ValueError`` otherwise).
The field functions are thin façades over them: each passes a field's
sample array, (n, n) or (2, n, n), to the kernels as it is and wraps
the result.  The first-derivative operator is antisymmetric under the
discrete inner product, which gives summation by parts exactly (up to
round-off):

    integrate(s * divergence(v)) + inner_product(gradient(s), v) == 0

``laplacian`` is the compact 5-point stencil.  Note that it is *not* the
composition divergence(gradient(.)); that composition is the wide
stencil used by the pressure projection in :mod:`qins.models`.
"""

from __future__ import annotations

import numpy as np

from .fields import ScalarField, VectorField


def _neighbours(ufunc, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = ufunc(a[i+1], a[i-1]) along axis -2, periodic."""
    ufunc(a[..., 2:, :], a[..., :-2, :], out=out[..., 1:-1, :])
    ufunc(a[..., 1:2, :], a[..., -1:, :], out=out[..., :1, :])
    ufunc(a[..., :1, :], a[..., -2:-1, :], out=out[..., -1:, :])
    return out


def _ddx(a: np.ndarray, h: float, out=None) -> np.ndarray:
    out = _neighbours(np.subtract, a, np.empty_like(a) if out is None else out)
    out *= 0.5 / h
    return out


def _flat(a: np.ndarray, out) -> tuple:
    """``a`` made C-contiguous, ``out`` (new if None), and the 1-D views of both."""
    a = np.ascontiguousarray(a)
    out = np.empty_like(a) if out is None else out
    if not out.flags.c_contiguous:  # its reshape would be a copy, losing the writes
        raise ValueError("out must be C-contiguous")
    return a, out, a.reshape(-1), out.reshape(-1)


def _ddy(a: np.ndarray, h: float, out=None) -> np.ndarray:
    """(a[j+1] - a[j-1]) * (0.5/h): one pass over the flat array, then the wrap columns."""
    a, out, af, of = _flat(a, out)
    np.subtract(af[2:], af[:-2], out=of[1:-1])
    np.subtract(a[..., 1], a[..., -1], out=out[..., 0])
    np.subtract(a[..., 0], a[..., -2], out=out[..., -1])
    out *= 0.5 / h
    return out


def _lap(a: np.ndarray, h: float, out=None, tmp=None) -> np.ndarray:
    """((((a[i+1] + a[i-1]) + a[j+1]) + a[j-1]) - 4a) * (1/h^2); ``tmp`` holds 4a.

    Each y term is a flat pass; its wrap column is summed beforehand in
    ``tmp`` and written back after it.
    """
    a, out, af, of = _flat(a, out)
    _neighbours(np.add, a, out)
    tmp = np.empty_like(a) if tmp is None else tmp
    edge = np.add(out[..., -1], a[..., 0], out=tmp[..., 0])
    of[:-1] += af[1:]
    out[..., -1] = edge
    edge = np.add(out[..., 0], a[..., -1], out=tmp[..., 0])
    of[1:] += af[:-1]
    out[..., 0] = edge
    out -= np.multiply(a, 4.0, out=tmp)
    out *= 1.0 / (h * h)
    return out


def stencil_symbols(n: int, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fourier symbols of the stencils on the ``rfft2`` half plane of an n grid.

    With theta = 2 pi m / n on each axis (x is axis -2, the full one),
    ``_ddx`` and ``_ddy`` (scaled by 0.5/h) multiply a mode by i sin(theta_x)
    / h and i sin(theta_y) / h, and ``_lap`` (scaled by 1/h^2) by (2 cos
    theta_x + 2 cos theta_y - 4) / h^2.  Returns ``(sin theta_x, sin
    theta_y, lap)`` shaped (n, 1), (1, n//2 + 1) and (n, n//2 + 1).  Where
    2m = 0 (mod n) a sine is exactly 0, as the stencil's action is there.
    """
    theta_x = 2.0 * np.pi * np.fft.fftfreq(n)[:, None]
    theta_y = 2.0 * np.pi * np.fft.rfftfreq(n)[None, :]
    lap = (2.0 * np.cos(theta_x) + 2.0 * np.cos(theta_y) - 4.0) / (h * h)
    null = 2 * np.arange(n) % n == 0
    return (np.where(null[:, None], 0.0, np.sin(theta_x)),
            np.where(null[None, :n // 2 + 1], 0.0, np.sin(theta_y)), lap)


def _convection(v: np.ndarray, h: float, out=None, dx=None, dy=None, work=None):
    """(v . grad) v of packed (2, n, n) v; dx, dy = _ddx(v), _ddy(v); work 3 of v's shape."""
    # one block if missing: separate (2, n, n) temporaries page-fault afresh at n = 128
    t, s, u = np.empty((3,) + v.shape) if work is None else work
    out = np.multiply(_ddx(v, h, s) if dx is None else dx, v[0], out=out)
    out += np.multiply(_ddy(v, h, u) if dy is None else dy, v[1], out=t)
    return out


def _grad(a: np.ndarray, h: float) -> np.ndarray:
    """(_ddx(a), _ddy(a)) of an (n, n) array, written into one (2, n, n) array."""
    out = np.empty((2,) + a.shape)
    _ddx(a, h, out[0])
    _ddy(a, h, out[1])
    return out


def gradient(s: ScalarField) -> VectorField:
    """Central-difference gradient of a scalar field."""
    return VectorField(s.grid, _grad(s.values, s.grid.spacing))


def divergence(v: VectorField) -> ScalarField:
    """Central-difference divergence of a vector field."""
    h = v.grid.spacing
    return ScalarField(v.grid, _ddx(v.x, h) + _ddy(v.y, h))


def laplacian(field):
    """Compact 5-point Laplacian of a scalar or vector field."""
    return type(field)(field.grid, _lap(field.values, field.grid.spacing))


def convection(v: VectorField) -> VectorField:
    """Self-convection (v . grad) v in advective form, v_j d_j v_i."""
    return VectorField(v.grid, _convection(v.values, v.grid.spacing))


def grad_div(v: VectorField) -> VectorField:
    """Gradient of the divergence, as the composition of the two stencils."""
    return gradient(divergence(v))


def strain_frobenius_sq(v: VectorField) -> ScalarField:
    """Squared Frobenius norm of the velocity gradient, |grad v|^2."""
    dx, dy = _ddx(v.values, v.grid.spacing) ** 2, _ddy(v.values, v.grid.spacing) ** 2
    return ScalarField(v.grid, dx[0] + dy[0] + dx[1] + dy[1])


def directional_derivative(w: tuple[float, float], s) -> "ScalarField | VectorField":
    """(w . grad) of a field for a constant direction w."""
    h = s.grid.spacing
    return type(s)(s.grid, float(w[0]) * _ddx(s.values, h) + float(w[1]) * _ddy(s.values, h))
