"""Model right-hand sides, the pressure solve, time stepping, scaling."""

import numpy as np
import pytest

from qins.fields import ScalarField, VectorField, l2_norm, make_grid
from qins.models import (
    ForcingSpec,
    ModelConfig,
    SimulationBlowupError,
    State,
    compressible_rhs,
    consistent_pressure,
    dimensional_time,
    dimensionless_bulk_modulus,
    eos,
    eos_inverse,
    galilean_alt_force,
    incompressible_step,
    nondimensional_time,
    nondimensionalize,
    project_divergence_free,
    redimensionalize,
    simulate,
    solve_pressure_poisson,
    stable_dt,
    step_rk4,
    temam_extra_force,
    temam_rhs,
)
from qins.operators import divergence, grad_div, gradient, laplacian


TEMAM = ModelConfig(model="temam", re=100.0, k=100.0)


def _taylor_green(grid):
    v = VectorField.from_function(
        grid, lambda X, Y: np.sin(X) * np.cos(Y), lambda X, Y: -np.cos(X) * np.sin(Y)
    )
    p = ScalarField.from_function(grid, lambda X, Y: 0.25 * (np.cos(2 * X) + np.cos(2 * Y)))
    return State(v, p, 0.0)


def _smooth_state(grid, amp=0.3):
    v = VectorField.from_function(
        grid,
        lambda X, Y: np.sin(X) * np.cos(Y) + amp * np.cos(X) * np.sin(Y),
        lambda X, Y: -np.cos(X) * np.sin(Y) + amp * np.sin(X) * np.cos(Y),
    )
    p = ScalarField.from_function(grid, lambda X, Y: 0.1 * np.cos(X) * np.cos(Y))
    return State(v, p, 0.0)


# -- configuration -------------------------------------------------------------


def test_model_config_rejects_unknown_names():
    with pytest.raises(ValueError):
        ModelConfig(model="boussinesq", re=100.0)
    with pytest.raises(ValueError):
        ModelConfig(model="temam", re=100.0, k=100.0, extra_force="magic")
    with pytest.raises(ValueError):
        ModelConfig(model="temam", re=100.0, k=100.0, convection="upwind")


def test_bulk_modulus_required_by_compressible_models():
    with pytest.raises(ValueError):
        ModelConfig(model="temam", re=100.0)
    with pytest.raises(ValueError):
        ModelConfig(model="compressible", re=100.0, k=-1.0)
    # the incompressible model carries no modulus
    ModelConfig(model="incompressible", re=100.0)


def test_dimensional_group_cross_check():
    # re = rho* L V / mu must hold when mu is supplied
    ModelConfig(model="incompressible", re=50.0, rho_star=2.0, l_char=5.0, v_char=5.0, mu=1.0)
    with pytest.raises(ValueError):
        ModelConfig(model="incompressible", re=50.0, rho_star=2.0, l_char=5.0, v_char=5.0, mu=2.0)
    derived = ModelConfig(model="incompressible", re=50.0, rho_star=2.0, l_char=5.0, v_char=5.0)
    assert derived.mu == pytest.approx(1.0)


def test_k_dimensional_property():
    cfg = ModelConfig(model="temam", re=100.0, k=2.0, rho_star=2.0, v_char=3.0)
    assert cfg.k_dimensional == pytest.approx(36.0)
    assert dimensionless_bulk_modulus(cfg.k_dimensional, cfg) == pytest.approx(cfg.k)


# -- forcing -------------------------------------------------------------------


def test_forcing_catalog():
    g = make_grid(16)
    assert l2_norm(ForcingSpec.zero().evaluate(g, 0.0)) == 0.0

    trig = ForcingSpec.trig(0.5, kx=2, ky=1).evaluate(g, 0.0)
    X, Y = g.mesh()
    np.testing.assert_allclose(trig.x, 0.5 * np.sin(2 * X) * np.cos(Y), atol=1e-15)

    table = VectorField.constant(g, 1.0, 2.0)
    out = ForcingSpec.from_field(table).evaluate(g, 3.0)
    np.testing.assert_array_equal(out.x, table.x)
    with pytest.raises(ValueError):
        ForcingSpec.from_field(table).evaluate(make_grid(8), 0.0)

    fn = ForcingSpec.from_callable(lambda X, Y, t: (0.0 * X + t, np.sin(X)))
    out = fn.evaluate(g, 2.0)
    np.testing.assert_allclose(out.x, 2.0)


# -- equation of state ---------------------------------------------------------


def test_eos_round_trip():
    g = make_grid(8)
    cfg = ModelConfig(model="temam", re=100.0, k=2.0, rho_star=2.0, v_char=3.0, p_star=5.0)
    rho = ScalarField.constant(g, 2.2)
    p = eos(rho, cfg)
    # k_dim = 36: p = 36 (2.2/2 - 1) + 5
    np.testing.assert_allclose(p.values, 8.6, rtol=1e-14)
    back = eos_inverse(p, cfg)
    np.testing.assert_allclose(back.values, rho.values, rtol=1e-14)


def test_eos_rejects_non_positive_density():
    g = make_grid(8)
    with pytest.raises(ValueError):
        eos(ScalarField.constant(g, -0.5), TEMAM)
    # pressure far below -K implies vacuum
    with pytest.raises(ValueError):
        eos_inverse(ScalarField.constant(g, -2.0 * TEMAM.k_dimensional), TEMAM)


# -- right-hand sides ----------------------------------------------------------


def test_extra_force_closed_form_on_single_mode():
    g = make_grid(32)
    h = g.spacing
    v = VectorField.from_function(g, lambda X, Y: np.sin(X), lambda X, Y: 0.0 * X)
    f = temam_extra_force(v)
    X, _ = g.mesh()
    expected = -0.5 * (np.sin(h) / h) * np.cos(X) * np.sin(X)
    np.testing.assert_allclose(f.x, expected, atol=1e-14)
    np.testing.assert_allclose(f.y, 0.0, atol=1e-14)


def test_rhs_extra_force_toggle_is_exactly_the_closed_form():
    g = make_grid(16)
    state = _smooth_state(g)
    forcing = ForcingSpec.zero()
    on, dp_on = temam_rhs(state, forcing, TEMAM)
    off, dp_off = temam_rhs(state, forcing, ModelConfig(model="temam", re=100.0, k=100.0, extra_force="none"))
    extra = temam_extra_force(state.v)
    np.testing.assert_allclose((on - off).x, extra.x, atol=1e-14)
    np.testing.assert_allclose((on - off).y, extra.y, atol=1e-14)
    np.testing.assert_array_equal(dp_on.values, dp_off.values)


def test_pressure_rate_is_minus_k_times_divergence():
    g = make_grid(16)
    state = _smooth_state(g)
    _, dp = temam_rhs(state, ForcingSpec.zero(), TEMAM)
    np.testing.assert_allclose(dp.values, -TEMAM.k * divergence(state.v).values, atol=1e-12)


def test_material_pressure_transport_adds_advection():
    g = make_grid(16)
    state = _smooth_state(g)
    partial = ModelConfig(model="temam", re=100.0, k=100.0, pressure_transport="partial")
    material = ModelConfig(model="temam", re=100.0, k=100.0, pressure_transport="material")
    _, dp_partial = temam_rhs(state, ForcingSpec.zero(), partial)
    _, dp_material = temam_rhs(state, ForcingSpec.zero(), material)
    advected = state.v.dot(gradient(state.p))
    np.testing.assert_allclose(
        dp_material.values, dp_partial.values - advected.values, atol=1e-12
    )


def test_compressible_reduces_to_temam_at_reference_density():
    # with p = 0 the reconstructed density is 1 and the only difference
    # from the extra-force-free quasi-incompressible momentum equation is
    # the dilatational viscosity term
    g = make_grid(16)
    v = _smooth_state(g).v
    state = State(v, ScalarField.zeros(g), 0.0)
    forcing = ForcingSpec.zero()
    comp = ModelConfig(model="compressible", re=100.0, k=100.0, zeta_over_mu=0.0)
    plain = ModelConfig(model="temam", re=100.0, k=100.0, extra_force="none")
    dv_c, dp_c = compressible_rhs(state, forcing, comp)
    dv_t, dp_t = temam_rhs(state, forcing, plain)
    extra = (1.0 / (3.0 * comp.re)) * grad_div(v)
    np.testing.assert_allclose(dv_c.x, (dv_t + extra).x, atol=1e-13)
    np.testing.assert_allclose(dv_c.y, (dv_t + extra).y, atol=1e-13)
    np.testing.assert_allclose(dp_c.values, dp_t.values, atol=1e-11)


def test_compressible_rejects_vacuum_pressure():
    g = make_grid(8)
    state = State(VectorField.zeros(g), ScalarField.constant(g, -200.0), 0.0)
    with pytest.raises(ValueError):
        compressible_rhs(state, ForcingSpec.zero(), ModelConfig(model="compressible", re=100.0, k=100.0))


def test_rhs_model_guards():
    g = make_grid(8)
    state = State.rest(g)
    with pytest.raises(ValueError):
        temam_rhs(state, ForcingSpec.zero(), ModelConfig(model="compressible", re=10.0, k=1.0))
    with pytest.raises(ValueError):
        compressible_rhs(state, ForcingSpec.zero(), TEMAM)
    with pytest.raises(ValueError):
        incompressible_step(state, ForcingSpec.zero(), TEMAM, 0.01)


def test_galilean_alt_force_scales_inversely_with_k():
    g = make_grid(16)
    state = _smooth_state(g)
    dv_dt = VectorField.zeros(g)
    f100 = galilean_alt_force(state, dv_dt, ModelConfig(model="temam", re=100.0, k=100.0))
    f200 = galilean_alt_force(state, dv_dt, ModelConfig(model="temam", re=100.0, k=200.0))
    np.testing.assert_allclose(f100.x, 2.0 * f200.x, rtol=1e-13, atol=1e-16)
    with pytest.raises(ValueError):
        galilean_alt_force(state, dv_dt, ModelConfig(model="incompressible", re=100.0))


# -- pressure solve and projection ---------------------------------------------


def test_poisson_solve_inverts_manufactured_field():
    # odd and even n: only even grids carry the checkerboard null modes
    for n in (15, 32):
        g = make_grid(n)
        p_true = ScalarField.from_function(g, lambda X, Y: np.cos(X) + 0.5 * np.cos(2 * Y))
        rhs = divergence(gradient(p_true)).values
        p = solve_pressure_poisson(rhs, g.spacing)
        np.testing.assert_allclose(p, p_true.values, atol=1e-12)
        np.testing.assert_allclose(
            divergence(gradient(ScalarField(g, p))).values, rhs, atol=1e-12
        )


def test_poisson_solve_of_zero_is_zero():
    g = make_grid(16)
    out = solve_pressure_poisson(np.zeros((16, 16)), g.spacing)
    assert not out.any()


def test_projection_removes_the_gradient_part():
    g = make_grid(32)
    solenoidal = _taylor_green(g).v
    phi = ScalarField.from_function(g, lambda X, Y: 0.3 * np.sin(X) * np.sin(Y))
    dirty = solenoidal + gradient(phi)
    clean, potential = project_divergence_free(dirty)
    assert l2_norm(divergence(clean)) < 1e-12
    np.testing.assert_allclose(clean.x, solenoidal.x, atol=1e-12)
    np.testing.assert_allclose(potential.values, phi.values - phi.values.mean(), atol=1e-12)


def test_projection_leaves_solenoidal_fields_alone():
    g = make_grid(32)
    v = _taylor_green(g).v  # discretely divergence-free to round-off
    clean, _ = project_divergence_free(v)
    np.testing.assert_allclose(clean.x, v.x, atol=1e-12)
    np.testing.assert_allclose(clean.y, v.y, atol=1e-12)


def test_consistent_pressure_recovers_the_vortex_pressure():
    """For the decaying vortex the momentum balance pins the pressure.

    The discrete convection of the vortex is exactly a discrete gradient,
    so the solve returns the classical quarter-cosine pressure scaled by
    1/cos(h): second-order close to the continuum value, and equal to
    the closed form to round-off.
    """
    g = make_grid(64)
    state = _taylor_green(g)
    p = consistent_pressure(state.v, ForcingSpec.zero(), TEMAM)
    closed = state.p.values / np.cos(g.spacing)
    np.testing.assert_allclose(p.values, closed, atol=1e-12)
    np.testing.assert_allclose(p.values, state.p.values, atol=5e-3)


def test_incompressible_step_keeps_divergence_at_round_off():
    g = make_grid(32)
    state = _smooth_state(g)  # compressive content on purpose
    cfg = ModelConfig(model="incompressible", re=100.0)
    out = incompressible_step(state, ForcingSpec.zero(), cfg, dt=1e-3)
    assert l2_norm(divergence(out.v)) < 1e-12
    assert out.time == pytest.approx(1e-3)


# -- time stepping -------------------------------------------------------------


def test_stable_dt_takes_the_tightest_bound():
    g = make_grid(16)
    state = State(VectorField.constant(g, 2.0, 0.0), ScalarField.zeros(g), 0.0)
    cfg = ModelConfig(model="temam", re=100.0, k=400.0)
    h = g.spacing
    expected = 0.4 * min(h / 2.0, cfg.re * h * h / 4.0, h / 20.0)
    assert stable_dt(state, cfg) == pytest.approx(expected, rel=1e-12)
    # at rest, no advective bound
    rest = State.rest(g)
    expected_rest = 0.4 * min(cfg.re * h * h / 4.0, h / 20.0)
    assert stable_dt(rest, cfg) == pytest.approx(expected_rest, rel=1e-12)


def test_rk4_local_error_is_fifth_order():
    # dp/dt = -p from p = 1: one step against exp(-dt); halving dt must
    # shrink the one-step error by about 2^5
    g = make_grid(8)
    cfg = TEMAM

    def decay(state, forcing, _cfg):
        return VectorField.zeros(state.grid), -1.0 * state.p

    def one_step_err(dt: float) -> float:
        state = State(VectorField.zeros(g), ScalarField.constant(g, 1.0), 0.0)
        out = step_rk4(decay, state, ForcingSpec.zero(), cfg, dt)
        return abs(float(out.p.values[0, 0]) - np.exp(-dt))

    ratio = one_step_err(0.2) / one_step_err(0.1)
    assert 25.0 < ratio < 40.0


def test_simulate_trims_dt_to_land_on_t_final():
    g = make_grid(16)
    state = _taylor_green(g)
    seen = []
    final, stored, dt_used = simulate(
        state, TEMAM, ForcingSpec.zero(), 0.05, dt=0.03,
        store_every=2, observer=lambda s: seen.append(s.time),
    )
    # ceil(0.05 / 0.03) = 2 steps of 0.025
    assert dt_used == pytest.approx(0.025)
    assert final.time == pytest.approx(0.05, abs=1e-12)
    assert len(seen) == 3  # initial state plus both steps
    assert [s.time for s in stored] == pytest.approx([0.0, 0.05])


def test_simulate_store_every_includes_endpoints():
    g = make_grid(16)
    state = _taylor_green(g)
    _, stored, dt_used = simulate(state, TEMAM, ForcingSpec.zero(), 0.05, dt=0.0125, store_every=1)
    assert len(stored) == 5
    times = np.array([s.time for s in stored])
    np.testing.assert_allclose(np.diff(times), dt_used, rtol=1e-12)


def test_simulate_rejects_empty_span():
    g = make_grid(16)
    with pytest.raises(ValueError):
        simulate(State.rest(g), TEMAM, ForcingSpec.zero(), 0.0)


def test_out_of_stability_step_raises_blowup():
    g = make_grid(16)
    state = _taylor_green(g)
    with pytest.raises(SimulationBlowupError):
        simulate(state, TEMAM, ForcingSpec.zero(), 100.0, dt=10.0)


def test_out_of_stability_projection_step_raises_blowup():
    g = make_grid(16)
    rng = np.random.default_rng(0)
    state = State(VectorField(g, rng.standard_normal((16, 16)), rng.standard_normal((16, 16))),
                  ScalarField.zeros(g), 0.0)
    cfg = ModelConfig(model="incompressible", re=100.0)
    with pytest.raises(SimulationBlowupError, match="advective bound"):
        simulate(state, cfg, ForcingSpec.zero(), 50.0, dt=0.5)


def test_galilean_alt_runs_stably_with_the_lagged_acceleration():
    g = make_grid(16)
    state = _smooth_state(g)
    cfg = ModelConfig(model="temam", re=100.0, k=100.0, extra_force="galilean_alt")
    final, _, _ = simulate(state, cfg, ForcingSpec.zero(), 0.05)
    assert np.isfinite(final.v.x).all()


# -- scaling -------------------------------------------------------------------


def test_nondimensionalize_round_trip():
    cfg = ModelConfig(
        model="temam", re=50.0, k=2.0, rho_star=2.0, p_star=5.0, v_char=3.0, l_char=0.5
    )
    g = make_grid(16, period=2.0 * np.pi)
    v_dim = VectorField.from_function(g, lambda X, Y: 3.0 * np.sin(X), lambda X, Y: np.cos(Y))
    p_dim = ScalarField.from_function(g, lambda X, Y: 5.0 + 18.0 * np.cos(X))
    f_dim = VectorField.constant(g, 0.5, -0.25)

    v, p, f = nondimensionalize(v_dim, p_dim, f_dim, cfg)
    assert v.grid.period == pytest.approx(g.period / cfg.l_char)
    # p = (p_dim - p*) / (rho* V^2)
    np.testing.assert_allclose(p.values, np.cos(g.mesh()[0]), atol=1e-13)

    v2, p2, f2 = redimensionalize(v, p, f, cfg)
    assert v2.grid.period == pytest.approx(g.period)
    np.testing.assert_allclose(v2.x, v_dim.x, rtol=1e-14)
    np.testing.assert_allclose(p2.values, p_dim.values, rtol=1e-14)
    np.testing.assert_allclose(f2.y, f_dim.y, rtol=1e-14)

    t = nondimensional_time(4.0, cfg)
    assert dimensional_time(t, cfg) == pytest.approx(4.0)
