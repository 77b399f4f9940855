"""Grid and field containers: construction, arithmetic, discrete integrals."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qins.fields import (
    Grid,
    ScalarField,
    VectorField,
    inner_product,
    integrate,
    l2_norm,
    make_grid,
)
from qins.models import State, pack_state, unpack_state

TWO_PI = 2.0 * np.pi


def test_grid_spacing_and_cell_centers():
    g = make_grid(8)
    assert g.spacing == pytest.approx(TWO_PI / 8)
    x = g.coords()
    assert x[0] == pytest.approx(0.5 * g.spacing)
    assert x[-1] == pytest.approx(TWO_PI - 0.5 * g.spacing)
    X, Y = g.mesh()
    # axis 0 runs along x
    assert np.allclose(X[:, 0], x)
    assert np.allclose(Y[0, :], x)


def test_grid_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        make_grid(3)


@pytest.mark.parametrize("n", [8.7, 8.0, "8", True])
def test_grid_refuses_a_size_that_is_not_an_integer(n):
    # Grid(8.7) once built 9 cell centres and then refused every field;
    # make_grid truncated 8.7 and "8" to 8
    for build in (Grid, make_grid):
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {n!r}")):
            build(n)


def test_grid_stores_a_numpy_integer_size_as_an_int():
    # the snapshot header writes n with json, which refuses a numpy integer
    for g in (Grid(np.int64(8)), make_grid(np.int32(8))):
        assert g.n == 8 and type(g.n) is int
        assert json.loads(json.dumps({"n": g.n})) == {"n": 8}


def test_scalar_field_validates_shape_and_finiteness():
    g = make_grid(8)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((8, 4)))
    bad = np.zeros((8, 8))
    bad[2, 3] = np.nan
    with pytest.raises(ValueError):
        ScalarField(g, bad)


def test_vector_field_validates_both_components():
    g = make_grid(8)
    for shape in ((8, 8), (3, 8, 8), (2, 8, 4)):
        with pytest.raises(ValueError, match="must have shape"):
            VectorField(g, np.zeros(shape))
    for component in (0, 1):
        bad = np.zeros((2, 8, 8))
        bad[component, 5, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            VectorField(g, bad)
    with pytest.raises(TypeError):  # no constructor takes the components apart
        VectorField(g, np.zeros((8, 8)), np.zeros((8, 8)))


def test_field_arithmetic_pointwise():
    g = make_grid(8)
    a = ScalarField.constant(g, 3.0)
    b = ScalarField.constant(g, 2.0)
    assert np.allclose((a + b).values, 5.0)
    assert np.allclose((a - b).values, 1.0)
    assert np.allclose((-a).values, -3.0)
    assert np.allclose((a * b).values, 6.0)
    assert np.allclose((a * 2.0).values, 6.0)
    assert np.allclose((2.0 * a).values, 6.0)
    assert np.allclose((a / b).values, 1.5)
    assert np.allclose((a / 2.0).values, 1.5)


def test_scalar_times_vector_scales_both_components():
    g = make_grid(8)
    s = ScalarField.constant(g, 2.0)
    v = VectorField.constant(g, 1.0, -3.0)
    sv = s * v
    assert isinstance(sv, VectorField)
    assert np.allclose(sv.x, 2.0)
    assert np.allclose(sv.y, -6.0)
    vs = v * s
    assert np.allclose(vs.x, sv.x)


def test_vector_dot_and_magnitude():
    g = make_grid(8)
    v = VectorField.constant(g, 3.0, 4.0)
    w = VectorField.constant(g, 1.0, 2.0)
    assert np.allclose(v.dot(w).values, 11.0)
    assert np.allclose(v.magnitude_squared().values, 25.0)
    assert v.max_abs() == pytest.approx(4.0)


def test_mixed_grid_arithmetic_is_rejected():
    a = ScalarField.zeros(make_grid(8))
    b = ScalarField.zeros(make_grid(16))
    with pytest.raises(ValueError):
        a + b


def test_inner_product_requires_matching_kinds():
    g = make_grid(8)
    with pytest.raises(TypeError):
        inner_product(ScalarField.zeros(g), VectorField.zeros(g))


def test_integrate_trig_polynomial_exactly():
    # the midpoint rule on this lattice integrates trig polynomials below
    # the Nyquist mode exactly: integral of sin^2 x over the square is 2 pi^2
    g = make_grid(64)
    s = ScalarField.from_function(g, lambda X, Y: np.sin(X) ** 2)
    assert integrate(s) == pytest.approx(2.0 * np.pi**2, abs=1e-10)


def test_l2_norm_of_single_mode():
    # frozen value: sqrt(2 pi^2)
    g = make_grid(64)
    s = ScalarField.from_function(g, lambda X, Y: np.sin(X))
    assert l2_norm(s) == pytest.approx(4.442882938158366, abs=1e-12)
    assert inner_product(s, s) == pytest.approx(l2_norm(s) ** 2, rel=1e-13)


def test_quadrature_is_spectrally_accurate_on_smooth_data():
    """exp(sin x) is periodic and analytic but not a trig polynomial.

    The midpoint error there must collapse much faster than any fixed
    power of the spacing.  Reference: the 1-D integral is 2 pi I0(1)
    with I0 the modified Bessel function, summed here from its series.
    """
    i0 = sum(0.25**k / math.factorial(k) ** 2 for k in range(25))
    exact = (TWO_PI * i0) * TWO_PI

    def err(n: int) -> float:
        s = ScalarField.from_function(make_grid(n), lambda X, Y: np.exp(np.sin(X)))
        return abs(integrate(s) - exact)

    e8, e16 = err(8), err(16)
    assert e8 < 1e-4
    assert e16 < e8 / 50.0


def test_l2_norm_of_vector_field():
    g = make_grid(64)
    v = VectorField.from_function(g, lambda X, Y: np.sin(X), lambda X, Y: np.sin(X))
    # two identical components: sqrt(2) times the scalar norm
    assert l2_norm(v) == pytest.approx(np.sqrt(2.0) * 4.442882938158366, rel=1e-12)


def _same(field, *components):
    """The field's samples equal these component arrays bit for bit."""
    want = np.array(components) if len(components) > 1 else components[0]
    return field.values.shape == want.shape and field.values.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 40), c=st.floats(-1e3, 1e3).filter(lambda c: abs(c) > 1e-3),
       seed=st.integers(0, 2**32 - 1))
def test_field_arithmetic_is_the_componentwise_formula_bitwise(n, c, seed):
    g, rng = make_grid(n), np.random.default_rng(seed)
    a, b, ux, uy, vx, vy = rng.standard_normal((6, n, n))
    b += np.where(b < 0.0, -0.5, 0.5)  # a divisor away from zero
    s, t = ScalarField(g, a), ScalarField(g, b)
    u, v = VectorField(g, np.array([ux, uy])), VectorField(g, np.array([vx, vy]))
    assert _same(s + t, a + b) and _same(s - t, a - b) and _same(-s, -a)
    assert _same(s * t, a * b) and _same(s / t, a / b) and _same(c * s, a * c)
    assert _same(u + v, ux + vx, uy + vy) and _same(u - v, ux - vx, uy - vy)
    assert _same(-u, -ux, -uy) and _same(u * c, ux * c, uy * c) and _same(c * u, c * ux, c * uy)
    assert _same(u / c, ux / c, uy / c)
    assert _same(s * u, a * ux, a * uy) and _same(u * s, ux * a, uy * a)
    assert _same(u / t, ux / b, uy / b)
    assert isinstance(s * u, VectorField) and isinstance(u / t, VectorField)
    assert _same(u.dot(v), ux * vx + uy * vy) and _same(u.magnitude_squared(), ux * ux + uy * uy)
    assert u.max_abs() == max(np.abs(ux).max(), np.abs(uy).max())
    h2 = g.spacing * g.spacing
    assert inner_product(u, v) == float(h2 * (ux * vx + uy * vy).sum())
    assert inner_product(s, t) == float(h2 * (a * b).sum())
    assert l2_norm(u) == float(np.sqrt(h2 * (ux * ux + uy * uy).sum()))
    assert l2_norm(s) == float(np.sqrt(h2 * (a * a).sum()))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 40), seed=st.integers(0, 2**32 - 1))
def test_fields_are_views_of_their_sample_arrays(n, seed):
    g, rng = make_grid(n), np.random.default_rng(seed)
    samples = rng.standard_normal((2, n, n))
    v = VectorField(g, samples)
    assert v.values is samples
    assert v.x.base is samples and v.y.base is samples
    assert _same(v.component(0), samples[0]) and _same(v.component(1), samples[1])
    y = pack_state(State(v, ScalarField(g, rng.standard_normal((n, n))), 0.25))
    state = unpack_state(y, g, 0.25)
    assert np.shares_memory(state.v.values, y) and np.shares_memory(state.p.values, y)
    y[0, 1, 2], y[1, 2, 3], y[2, 3, 1] = 7.0, 8.0, 9.0
    assert (state.v.x[1, 2], state.v.y[2, 3], state.p.values[3, 1]) == (7.0, 8.0, 9.0)
