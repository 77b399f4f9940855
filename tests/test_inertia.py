"""Inertial force prescriptions and the referential-rate identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qins.fields import ScalarField, VectorField, l2_norm, make_grid
from qins.inertia import (
    KinematicSample,
    inertial_force_standard,
    inertial_force_star,
    jacobian_from_density,
    kappa_r_star_rate_identity_residual,
    kinetic_density_spatial,
    kinetic_density_star,
    material_derivative_v,
)
from qins.operators import convection, divergence


def _sample(n, rho_fn=None):
    g = make_grid(n)
    v = VectorField.from_function(
        g,
        lambda X, Y: np.sin(X) * np.cos(Y),
        lambda X, Y: np.cos(X) * np.sin(Y),
    )
    dv_dt = VectorField.from_function(
        g, lambda X, Y: 0.3 * np.cos(X), lambda X, Y: -0.1 * np.sin(Y)
    )
    if rho_fn is None:
        rho_fn = lambda X, Y: 1.5 + 0.3 * np.sin(X) * np.sin(Y)
    rho = ScalarField.from_function(g, rho_fn)
    return KinematicSample(v=v, dv_dt_partial=dv_dt, rho=rho)


def test_sample_validation():
    g, g2 = make_grid(8), make_grid(16)
    v = VectorField.zeros(g)
    with pytest.raises(ValueError):
        KinematicSample(v=v, dv_dt_partial=VectorField.zeros(g2), rho=ScalarField.constant(g, 1.0))
    with pytest.raises(ValueError):
        KinematicSample(v=v, dv_dt_partial=v, rho=ScalarField.constant(g, -1.0))
    # the reference density is 1, not a field of the sample
    with pytest.raises(TypeError):
        KinematicSample(v=v, dv_dt_partial=v, rho=ScalarField.constant(g, 1.0), rho_star=1.0)


def test_material_derivative_composition():
    s = _sample(16)
    mdv = material_derivative_v(s)
    expected = s.dv_dt_partial + convection(s.v)
    np.testing.assert_array_equal(mdv.x, expected.x)
    np.testing.assert_array_equal(mdv.y, expected.y)


def test_force_difference_at_reference_density():
    # with rho identically 1 the two prescriptions differ by exactly
    # -(1/2)(div v) v; away from rho = 1 this closed form does not apply
    s = _sample(32, rho_fn=lambda X, Y: 1.0 + 0.0 * X)
    diff = inertial_force_star(s) - inertial_force_standard(s)
    closed = (-0.5 * divergence(s.v)) * s.v
    np.testing.assert_allclose(diff.x, closed.x, atol=1e-13)
    np.testing.assert_allclose(diff.y, closed.y, atol=1e-13)


def test_force_difference_away_from_reference_density_deviates():
    s = _sample(32)  # rho varies around 1.5
    diff = inertial_force_star(s) - inertial_force_standard(s)
    closed = (-0.5 * divergence(s.v)) * s.v
    gap = float(np.abs(diff.x - closed.x).max())
    assert gap > 1e-3


def test_jacobian_times_spatial_density_is_referential_density():
    s = _sample(32)
    j = jacobian_from_density(s.rho)
    lhs = j * kinetic_density_spatial(s)
    rhs = kinetic_density_star(s)
    np.testing.assert_allclose(lhs.values, rhs.values, rtol=1e-14, atol=1e-16)


def test_jacobian_validation():
    g = make_grid(8)
    for bad in (0.0, -1.0):  # one sample at or below zero
        rho = ScalarField.constant(g, 1.0)
        rho.values[3, 5] = bad
        with pytest.raises(ValueError, match="density must be positive"):
            jacobian_from_density(rho)
    # the reference density is 1, not an argument
    with pytest.raises(TypeError):
        jacobian_from_density(ScalarField.constant(g, 1.0), 1.0)


def test_rate_identity_with_discrete_mass_balance_is_round_off():
    s = _sample(32)
    rho_rate = ScalarField(s.rho.grid, -s.rho.values * divergence(s.v).values)
    assert kappa_r_star_rate_identity_residual(s, rho_rate) < 1e-12


def test_rate_identity_with_analytic_rate_refines_second_order():
    # the only discrete gap is the divergence stencil, so an analytic
    # density rate leaves an O(h^2) residual
    def residual(n: int) -> float:
        s = _sample(n)
        X, Y = s.v.grid.mesh()
        analytic_div = 2.0 * np.cos(X) * np.cos(Y)
        rho_rate = ScalarField(s.rho.grid, -s.rho.values * analytic_div)
        return kappa_r_star_rate_identity_residual(s, rho_rate)

    order = np.log2(residual(32) / residual(64))
    assert 1.7 < order < 2.3


def test_rate_identity_rejects_mismatched_grids():
    s = _sample(16)
    with pytest.raises(ValueError):
        kappa_r_star_rate_identity_residual(s, ScalarField.zeros(make_grid(8)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 32), seed=st.integers(0, 2**32 - 1))
def test_inertia_identities_on_random_fields(n, seed):
    # grid-scale velocity, acceleration and positive density: the identities
    # are algebraic on the grid, so each holds to round-off of its terms
    g, rng = make_grid(n), np.random.default_rng(seed)
    v = VectorField(g, rng.standard_normal((2, n, n)))
    dv_dt = VectorField(g, rng.standard_normal((2, n, n)))
    rho = ScalarField(g, rng.uniform(0.2, 5.0, (n, n)))
    eps = np.finfo(float).eps

    at_ref = KinematicSample(v=v, dv_dt_partial=dv_dt, rho=ScalarField.constant(g, 1.0))
    diff = inertial_force_star(at_ref) - inertial_force_standard(at_ref)
    closed = (-0.5 * divergence(v)) * v
    scale = material_derivative_v(at_ref).max_abs() + closed.max_abs()
    assert (diff - closed).max_abs() <= 8 * eps * scale

    s = KinematicSample(v=v, dv_dt_partial=dv_dt, rho=rho)
    j_kinetic = jacobian_from_density(rho) * kinetic_density_spatial(s)
    np.testing.assert_allclose(j_kinetic.values, kinetic_density_star(s).values, rtol=8 * eps)

    j = jacobian_from_density(rho)
    rate_scale = l2_norm(j * material_derivative_v(s).dot(v)) + l2_norm(
        j * (divergence(v) * v.magnitude_squared())
    )
    residual = kappa_r_star_rate_identity_residual(s, -1.0 * (rho * divergence(v)))
    assert residual <= 16 * eps * rate_scale
