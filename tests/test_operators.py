"""Difference operators: trig-mode exactness, order, summation by parts.

Central differences on single trig modes are exact up to a known factor
(sin(kh)/(kh) per derivative), which gives frozen oracles that hold to
round-off; genuine second-order convergence is then measured on a
smooth periodic function that is not a trig polynomial.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qins.fields import ScalarField, VectorField, integrate, inner_product, l2_norm, make_grid
from qins.operators import (
    _ddx,
    _ddy,
    _lap,
    convection,
    directional_derivative,
    divergence,
    grad_div,
    gradient,
    laplacian,
    strain_frobenius_sq,
)


def _noise_scalar(grid, seed=0):
    rng = np.random.default_rng(seed)
    return ScalarField(grid, rng.standard_normal((grid.n, grid.n)))


def _noise_vector(grid, seed=1):
    rng = np.random.default_rng(seed)
    return VectorField(grid, rng.standard_normal((2, grid.n, grid.n)))


def test_gradient_exact_on_single_mode():
    g = make_grid(32)
    h = g.spacing
    s = ScalarField.from_function(g, lambda X, Y: np.sin(X))
    grad = gradient(s)
    X, _ = g.mesh()
    np.testing.assert_allclose(grad.x, np.sin(h) / h * np.cos(X), atol=1e-13)
    np.testing.assert_allclose(grad.y, 0.0, atol=1e-13)


def test_divergence_exact_on_single_modes():
    g = make_grid(32)
    h = g.spacing
    v = VectorField.from_function(g, lambda X, Y: np.sin(X), lambda X, Y: np.sin(Y))
    X, Y = g.mesh()
    np.testing.assert_allclose(
        divergence(v).values, np.sin(h) / h * (np.cos(X) + np.cos(Y)), atol=1e-13
    )


def test_laplacian_exact_on_single_mode():
    # the 5-point stencil scales a unit mode by -4 sin^2(h/2) / h^2
    g = make_grid(32)
    h = g.spacing
    s = ScalarField.from_function(g, lambda X, Y: np.sin(X))
    factor = -4.0 * np.sin(h / 2.0) ** 2 / h**2
    np.testing.assert_allclose(laplacian(s).values, factor * s.values, atol=1e-13)


def test_gradient_second_order_on_smooth_data():
    def err(n: int) -> float:
        g = make_grid(n)
        s = ScalarField.from_function(g, lambda X, Y: np.exp(np.sin(X)) * np.cos(Y))
        exact = VectorField.from_function(
            g,
            lambda X, Y: np.cos(X) * np.exp(np.sin(X)) * np.cos(Y),
            lambda X, Y: -np.exp(np.sin(X)) * np.sin(Y),
        )
        return l2_norm(gradient(s) - exact)

    order = np.log2(err(32) / err(64))
    assert 1.8 < order < 2.2


def test_laplacian_second_order_on_smooth_data():
    def err(n: int) -> float:
        g = make_grid(n)
        s = ScalarField.from_function(g, lambda X, Y: np.exp(np.sin(X)) * np.cos(Y))
        exact = ScalarField.from_function(
            g,
            lambda X, Y: (np.cos(X) ** 2 - np.sin(X) - 1.0)
            * np.exp(np.sin(X))
            * np.cos(Y),
        )
        return l2_norm(laplacian(s) - exact)

    order = np.log2(err(32) / err(64))
    assert 1.8 < order < 2.2


def test_vector_laplacian_applies_componentwise():
    g = make_grid(16)
    v = _noise_vector(g)
    lap = laplacian(v)
    np.testing.assert_array_equal(lap.x, laplacian(v.component(0)).values)
    np.testing.assert_array_equal(lap.y, laplacian(v.component(1)).values)


def test_summation_by_parts_holds_for_rough_data():
    # the periodic central difference is exactly skew-adjoint under the
    # uniform inner product, so the identity needs no smoothness at all
    g = make_grid(24)
    s = _noise_scalar(g)
    v = _noise_vector(g)
    lhs = inner_product(s, divergence(v))
    rhs = inner_product(gradient(s), v)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs + rhs) / scale < 1e-12


def test_convection_is_quadratically_homogeneous():
    g = make_grid(16)
    v = _noise_vector(g, seed=3)
    c1 = convection(v)
    c3 = convection(3.0 * v)
    np.testing.assert_allclose(c3.x, 9.0 * c1.x, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(c3.y, 9.0 * c1.y, rtol=1e-12, atol=1e-12)


def test_grad_div_is_the_operator_composition():
    g = make_grid(16)
    v = _noise_vector(g, seed=5)
    composed = gradient(divergence(v))
    gd = grad_div(v)
    np.testing.assert_array_equal(gd.x, composed.x)
    np.testing.assert_array_equal(gd.y, composed.y)


def test_directional_derivative_matches_gradient_contraction():
    g = make_grid(16)
    s = _noise_scalar(g, seed=6)
    w = (2.0, -0.5)
    grad = gradient(s)
    expected = w[0] * grad.x + w[1] * grad.y
    np.testing.assert_allclose(directional_derivative(w, s).values, expected, atol=1e-14)


def test_directional_derivative_on_vector_fields():
    g = make_grid(16)
    v = _noise_vector(g, seed=7)
    w = (1.0, 2.0)
    dv = directional_derivative(w, v)
    np.testing.assert_allclose(
        dv.x, directional_derivative(w, v.component(0)).values, atol=1e-14
    )
    np.testing.assert_allclose(
        dv.y, directional_derivative(w, v.component(1)).values, atol=1e-14
    )


def test_strain_frobenius_sq_on_single_mode():
    g = make_grid(32)
    h = g.spacing
    v = VectorField.from_function(g, lambda X, Y: np.sin(X), lambda X, Y: 0.0 * X)
    X, _ = g.mesh()
    expected = (np.sin(h) / h * np.cos(X)) ** 2
    np.testing.assert_allclose(strain_frobenius_sq(v).values, expected, atol=1e-13)


# -- slice kernels against the np.roll stencils --------------------------------

# The np.roll forms the slice kernels replaced, applied over the last two
# axes; the kernels must reproduce them bit for bit.  Both scale by the
# reciprocal, 0.5/h (which is 1/(2h) exactly) or 1/h^2.


def _roll_diff(a, axis):
    return np.roll(a, -1, axis=axis) - np.roll(a, 1, axis=axis)


def _roll_ddx(a, h):
    return _roll_diff(a, -2) * (0.5 / h)


def _roll_ddy(a, h):
    return _roll_diff(a, -1) * (0.5 / h)


def _roll_lap_sum(a):
    return (
        np.roll(a, -1, axis=-2) + np.roll(a, 1, axis=-2)
        + np.roll(a, -1, axis=-1) + np.roll(a, 1, axis=-1)
        - 4.0 * a
    )


def _roll_lap(a, h):
    return _roll_lap_sum(a) * (1.0 / (h * h))


_STENCIL_DRAWS = given(
    n=st.integers(4, 40),
    lead=st.lists(st.integers(1, 3), min_size=0, max_size=2),
    h=st.floats(1e-3, 10.0),
    scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e150]),
    seed=st.integers(0, 2**32 - 1),
)


def _stencil_sources(n, lead, scale, seed):
    """Contiguous, a transposed view, a strided stack, one channel of a packed (3, n, n)."""
    rng = np.random.default_rng(seed)
    a = scale * rng.standard_normal((*lead, n, n))
    stack = scale * rng.standard_normal((6, n, n))
    return a, a.swapaxes(-1, -2), stack[::2], stack[:3][1]


@settings(max_examples=60, deadline=None)
@_STENCIL_DRAWS
@example(n=4, lead=[], h=1.0, scale=1.0, seed=0)
@example(n=5, lead=[3], h=0.1, scale=1e8, seed=1)
def test_slice_kernels_equal_the_roll_stencils_bitwise(n, lead, h, scale, seed):
    for src in _stencil_sources(n, lead, scale, seed):
        for kernel, oracle in ((_ddx, _roll_ddx), (_ddy, _roll_ddy), (_lap, _roll_lap)):
            expected = oracle(src, h).tobytes()
            assert kernel(src, h).tobytes() == expected
            out = np.full(src.shape, np.nan)
            assert kernel(src, h, out) is out
            assert out.tobytes() == expected


@settings(max_examples=60, deadline=None)
@_STENCIL_DRAWS
def test_reciprocal_scaling_is_within_4_eps_of_dividing(n, lead, h, scale, seed):
    # the kernels once divided each sample by 2h or h^2; the reciprocal moves the last bits only
    for src in _stencil_sources(n, lead, scale, seed):
        for kernel, divided in (
            (_ddx, _roll_diff(src, -2) / (2.0 * h)),
            (_ddy, _roll_diff(src, -1) / (2.0 * h)),
            (_lap, _roll_lap_sum(src) / (h * h)),
        ):
            err = np.abs(kernel(src, h) - divided)
            assert (err <= 4.0 * np.finfo(float).eps * np.abs(divided)).all()


@pytest.mark.parametrize("kernel", [_ddy, _lap])
@pytest.mark.parametrize("view", ["transposed", "strided"])
def test_y_kernels_refuse_a_non_contiguous_out(kernel, view):
    # writing through reshape would land in a copy, so the kernel must refuse
    a = np.random.default_rng(0).standard_normal((3, 8, 8))
    out = np.zeros((3, 8, 8)).swapaxes(-1, -2) if view == "transposed" else np.zeros((6, 8, 8))[::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        kernel(a, 0.5, out)
    assert not out.any()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 40), seed=st.integers(0, 2**32 - 1))
def test_summation_by_parts_on_random_grids(n, seed):
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    s = ScalarField(g, rng.standard_normal((n, n)))
    v = VectorField(g, rng.standard_normal((2, n, n)))
    assert abs(integrate(s * divergence(v)) + inner_product(gradient(s), v)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 40), w=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       seed=st.integers(0, 2**32 - 1))
def test_operator_facades_are_the_componentwise_kernels_bitwise(n, w, seed):
    # the façades run the kernels once over a (2, n, n) array; per component they must agree
    g, rng = make_grid(n), np.random.default_rng(seed)
    h, (a, vx, vy) = g.spacing, rng.standard_normal((3, n, n))
    s, v = ScalarField(g, a), VectorField(g, np.array([vx, vy]))

    def same(field, *components):
        want = np.array(components) if len(components) > 1 else components[0]
        return field.values.tobytes() == want.tobytes()

    def d(c):  # (w . grad) of one component
        return w[0] * _ddx(c, h) + w[1] * _ddy(c, h)

    advective = [_ddx(c, h) * vx + _ddy(c, h) * vy for c in (vx, vy)]
    assert same(gradient(s), _ddx(a, h), _ddy(a, h))
    assert same(laplacian(s), _lap(a, h)) and same(laplacian(v), _lap(vx, h), _lap(vy, h))
    assert same(convection(v), *advective)
    div = _ddx(vx, h) + _ddy(vy, h)
    assert same(divergence(v), div) and same(grad_div(v), _ddx(div, h), _ddy(div, h))
    assert same(strain_frobenius_sq(v),
                _ddx(vx, h) ** 2 + _ddy(vx, h) ** 2 + _ddx(vy, h) ** 2 + _ddy(vy, h) ** 2)
    assert same(directional_derivative(w, s), d(a))
    assert same(directional_derivative(w, v), d(vx), d(vy))
