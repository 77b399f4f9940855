"""Model right-hand sides, the pressure solve, time stepping."""

import itertools
import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcing_cases import field, from_mesh, trig
from qins import models
from qins.diagnostics import divergence_norm, energy_audit
from qins.fields import ScalarField, VectorField, integrate, l2_norm, make_grid
from qins.models import (
    ETDRK4,
    ForcingSpec,
    ModelConfig,
    SimulationBlowupError,
    State,
    consistent_pressure,
    etd_coefficients,
    galilean_alt_force,
    incompressible_step,
    march,
    pack_state,
    project_divergence_free,
    simulate,
    solve_pressure_poisson,
    stable_dt,
    step_rk4,
    temam_extra_force,
    temam_rhs,
    unpack_state,
)
from qins.harness.experiments import simulate_with_density
from qins.harness.initial_conditions import random_smooth_state
from qins.operators import convection, divergence, grad_div, gradient, laplacian, stencil_symbols


TEMAM = ModelConfig(model="temam", re=100.0, k=100.0)


def _taylor_green(grid):
    v = VectorField.from_function(
        grid, lambda X, Y: np.sin(X) * np.cos(Y), lambda X, Y: -np.cos(X) * np.sin(Y)
    )
    p = ScalarField.from_function(grid, lambda X, Y: 0.25 * (np.cos(2 * X) + np.cos(2 * Y)))
    return State(v, p, 0.0)


def _rates(rhs, state, forcing, cfg):
    """(dv, dp) of a packed right-hand side, as fields."""
    g = state.grid
    y = rhs(pack_state(state), forcing.sampler(g, state.time)(state.time), cfg, g.spacing)
    rates = unpack_state(y, g)
    return rates.v, rates.p


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


def test_bulk_modulus_required_by_compressible_models():
    with pytest.raises(ValueError):
        ModelConfig(model="temam", re=100.0)
    with pytest.raises(ValueError):
        ModelConfig(model="compressible", re=100.0, k=-1.0)
    # the incompressible model carries no modulus
    ModelConfig(model="incompressible", re=100.0)


@pytest.mark.parametrize("zeta", [np.nan, np.inf, -1.0])
def test_model_config_rejects_a_bulk_viscosity_ratio_that_is_negative_or_not_finite(zeta):
    # NaN < 0 is False, so only a range check rejects NaN
    with pytest.raises(ValueError, match="zeta_over_mu must be >= 0 and finite"):
        ModelConfig(model="compressible", re=100.0, k=100.0, zeta_over_mu=zeta)


# -- forcing -------------------------------------------------------------------


def test_forcing_catalog():
    g = make_grid(16)
    zero = ForcingSpec.zero().sampler(g, 0.0)
    assert zero(0.0) == 0.0 and isinstance(zero(2.0), float)  # added as the scalar

    steady = trig(g, 0.5, kx=2, ky=1)
    X, Y = g.mesh()
    np.testing.assert_allclose(steady.sampler(g, 0.0)(3.0)[0], 0.5 * np.sin(2 * X) * np.cos(Y),
                               atol=1e-15)

    table = np.stack([np.full((16, 16), 1.0), np.full((16, 16), 2.0)])
    assert ForcingSpec(lambda t: table).sampler(g, 3.0)(5.0) is table  # the callable itself
    with pytest.raises(ValueError, match=r"shape \(2, 16, 16\), the grid needs \(2, 8, 8\)"):
        ForcingSpec(lambda t: table).sampler(make_grid(8), 0.0)

    moving = from_mesh(g, lambda X, Y, t: (0.0 * X + t, np.sin(X))).sampler(g, 0.0)
    np.testing.assert_allclose(moving(2.0)[0], 2.0)
    np.testing.assert_allclose(moving(2.0)[1], np.sin(X))


# -- right-hand sides ----------------------------------------------------------


def _reference_temam_force(v):
    """-(1/2)(div v) v as the field-level formula was first written."""
    return (-0.5 * divergence(v)) * v


def _reference_galilean_alt_force(state, rate, cfg):
    """-(p/K)(dv/dt + (v.grad)v) as the field-level formula was first written, dv/dt = ``rate``."""
    return ((-1.0 / cfg.k) * state.p) * (rate + convection(state.v))


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
    on, dp_on = _rates(temam_rhs, state, forcing, TEMAM)
    off, dp_off = _rates(temam_rhs, state, forcing, ModelConfig(model="temam", re=100.0, k=100.0, extra_force="none"))
    extra = _reference_temam_force(state.v)
    np.testing.assert_allclose((on - off).x, extra.x, atol=1e-14)
    np.testing.assert_allclose((on - off).y, extra.y, atol=1e-14)
    np.testing.assert_array_equal(dp_on.values, dp_off.values)


def test_pressure_rate_is_minus_k_times_divergence():
    g = make_grid(16)
    state = _smooth_state(g)
    _, dp = _rates(temam_rhs, state, ForcingSpec.zero(), TEMAM)
    np.testing.assert_allclose(dp.values, -TEMAM.k * divergence(state.v).values, atol=1e-12)


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
    dv_c, dp_c = _rates(temam_rhs, state, forcing, comp)
    dv_t, dp_t = _rates(temam_rhs, state, forcing, plain)
    extra = (1.0 / (3.0 * comp.re)) * grad_div(v)
    np.testing.assert_allclose(dv_c.x, (dv_t + extra).x, atol=1e-13)
    np.testing.assert_allclose(dv_c.y, (dv_t + extra).y, atol=1e-13)
    np.testing.assert_allclose(dp_c.values, dp_t.values, atol=1e-11)


def test_compressible_rejects_vacuum_pressure():
    g = make_grid(8)
    state = State(VectorField.zeros(g), ScalarField.constant(g, -200.0), 0.0)
    with pytest.raises(ValueError):
        _rates(temam_rhs, state, ForcingSpec.zero(), ModelConfig(model="compressible", re=100.0, k=100.0))


def test_rhs_model_guards():
    g = make_grid(8)
    state = State.rest(g)
    with pytest.raises(ValueError, match="temam_rhs called with model 'incompressible'"):
        _rates(temam_rhs, state, ForcingSpec.zero(), ModelConfig(model="incompressible", re=10.0))
    with pytest.raises(ValueError):
        incompressible_step(pack_state(state), 0.0, TEMAM, g.spacing, 0.01)


def test_galilean_alt_force_scales_inversely_with_k():
    # the force is -(p/K)(-grad p + lap v / Re + f) / (1 + p/K): once its density
    # is factored out, K times it does not depend on K
    g = make_grid(16)
    state = _smooth_state(g)
    f = trig(g, 0.7, kx=1, ky=2).fn(0.0)
    f100 = galilean_alt_force(state, ModelConfig(model="temam", re=100.0, k=100.0), f)
    f200 = galilean_alt_force(state, ModelConfig(model="temam", re=100.0, k=200.0), f)
    scaled = [(k * (1.0 + state.p.values / k)) * force.values
              for k, force in ((100.0, f100), (200.0, f200))]
    np.testing.assert_allclose(*scaled, rtol=1e-13, atol=1e-16)
    with pytest.raises(ValueError):
        galilean_alt_force(state, ModelConfig(model="incompressible", re=100.0))


def test_field_level_forces_are_the_first_written_formulas_bitwise():
    # both go through temam_rhs's packed kernel now; the references do not
    g = make_grid(17)
    state = _smooth_state(g)
    f = np.random.default_rng(4).standard_normal((2, 17, 17))
    cfg = ModelConfig(model="temam", re=100.0, k=300.0, extra_force="galilean_alt")
    rate = VectorField(g, temam_rhs(pack_state(state), f, cfg, g.spacing)[:2])
    for got, want in ((temam_extra_force(state.v), _reference_temam_force(state.v)),
                      (galilean_alt_force(state, cfg, f),
                       _reference_galilean_alt_force(state, rate, cfg))):
        assert _same_bits(got.x, want.x) and _same_bits(got.y, want.y)


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


@pytest.mark.parametrize("shape", [(16, 17), (16, 20), (16,), (2, 16, 16)])
def test_poisson_solve_rejects_a_right_hand_side_that_is_not_n_by_n(shape):
    # (16, 17) used to return a solution built with the n = 16 y-symbol
    with pytest.raises(ValueError, match=r"must be \(n, n\), got " + re.escape(str(shape))):
        solve_pressure_poisson(np.ones(shape), make_grid(16).spacing)


def _reference_poisson(rhs, h):
    """The pressure solve as first written: symbol rebuilt per call, boolean-mask zeroing."""
    n = rhs.shape[0]
    sin_x, sin_y, _ = stencil_symbols(n, h)
    sym = -(sin_x**2 + sin_y**2) / (h * h)
    null = (2 * np.arange(n) % n == 0)[:, None] & (2 * np.arange(n // 2 + 1) % n == 0)[None, :]
    sym[null] = 1.0
    p_hat = np.fft.rfft2(rhs) / sym
    p_hat[null] = 0.0
    return np.fft.irfft2(p_hat, s=rhs.shape)


@settings(max_examples=40, deadline=None)
@given(grids=st.lists(st.tuples(st.integers(4, 64), st.sampled_from([1.0, 0.5])),
                      min_size=2, max_size=5, unique=True),
       seed=st.integers(0, 2**32 - 1))
def test_cached_poisson_solve_is_bitwise_the_rebuilt_one(grids, seed):
    # each grid twice, others in between, so a cache entry keyed on the
    # wrong (n, h) would serve a later solve
    rng = np.random.default_rng(seed)
    for n, scale in grids + grids[::-1]:
        h = make_grid(n).spacing * scale
        rhs = rng.standard_normal((n, n))
        want = _reference_poisson(rhs, h)
        assert _same_bits(solve_pressure_poisson(rhs, h), want)
        out = np.full((n, n), np.nan)
        assert solve_pressure_poisson(rhs, h, out=out) is out
        assert _same_bits(out, want)
        with pytest.raises(ValueError, match="read-only"):
            models._poisson_inverse(n, h)[0] = 2.0


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


def _random_velocity(n, seed):
    rng = np.random.default_rng(seed)
    return VectorField(make_grid(n), rng.standard_normal((2, n, n)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 64), seed=st.integers(0, 2**32 - 1))
def test_poisson_solve_stencil_residual_is_round_off_on_random_grids(n, seed):
    v = _random_velocity(n, seed)  # a divergence lies in the stencil's range
    rhs = divergence(v).values
    p = ScalarField(v.grid, solve_pressure_poisson(rhs, v.grid.spacing))
    residual = divergence(gradient(p)).values - rhs
    assert np.abs(residual).max() < 1e-12 * np.abs(rhs).max()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 40), seed=st.integers(0, 2**32 - 1))
def test_projection_is_idempotent_on_random_grids(n, seed):
    v = _random_velocity(n, seed)
    clean, _ = project_divergence_free(v)
    assert np.abs(divergence(clean).values).max() < 1e-12 * v.max_abs() / v.grid.spacing
    again, _ = project_divergence_free(clean)
    np.testing.assert_allclose(again.x, clean.x, rtol=0.0, atol=1e-12 * v.max_abs())
    np.testing.assert_allclose(again.y, clean.y, rtol=0.0, atol=1e-12 * v.max_abs())


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
    y0 = pack_state(state)
    y = incompressible_step(y0, 0.0, cfg, g.spacing, dt=1e-3)
    assert l2_norm(divergence(unpack_state(y, g).v)) < 1e-12
    assert np.abs(y[2].mean()) < 1e-15  # the projection multiplier, at mean zero
    assert _same_bits(y0, pack_state(state))  # the input is left alone


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

    def decay(y, t, out):
        np.multiply(y, -1.0, out=out)

    def one_step_err(dt: float) -> float:
        p = step_rk4(decay, np.ones((1, g.n, g.n)), 0.0, dt)
        return abs(float(p[0, 0, 0]) - np.exp(-dt))

    ratio = one_step_err(0.2) / one_step_err(0.1)
    assert 25.0 < ratio < 40.0


@settings(max_examples=40, deadline=None)
@given(
    shape=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    dt=st.floats(1e-6, 1.0),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_rk4_combines_the_stages_as_written(shape, dt, scale, seed):
    rng = np.random.default_rng(seed)
    y = scale * rng.standard_normal(shape)
    c = rng.standard_normal(shape)

    def rates(ys, t, out):
        np.multiply(np.sin(ys), ys, out=out)
        out += c * np.cos(t)

    def rate(ys, t):
        out = np.empty_like(ys)
        rates(ys, t, out)
        return out

    t = 0.3
    k1 = rate(y, t)
    k2 = rate(y + k1 * (0.5 * dt), t + 0.5 * dt)
    k3 = rate(y + k2 * (0.5 * dt), t + 0.5 * dt)
    k4 = rate(y + k3 * dt, t + dt)
    expected = (y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).tobytes()
    work = np.empty((5,) + y.shape)
    assert step_rk4(rates, y, t, dt, work).tobytes() == expected
    assert step_rk4(rates, y, t, dt, work).tobytes() == expected
    assert step_rk4(rates, y, t, dt).tobytes() == expected


def test_simulate_trims_dt_to_land_on_t_final():
    g = make_grid(16)
    state = _taylor_green(g)
    seen = []
    final, stored, dt_used = simulate(
        state, TEMAM, ForcingSpec.zero(), 0.05, dt=0.03, observer=lambda s: seen.append(s.time),
    )
    # ceil(0.05 / 0.03) = 2 steps of 0.025
    assert dt_used == pytest.approx(0.025)
    assert final.time == pytest.approx(0.05, abs=1e-12)
    assert seen == pytest.approx([0.0, 0.025, 0.05])  # initial state plus both steps
    assert stored == []


def test_march_yields_the_initial_state_and_every_step():
    g = make_grid(16)
    state = _taylor_green(g)
    steps, dt_used, states = march(state, TEMAM, ForcingSpec.zero(), 0.05, dt=0.0125)
    stored = list(states)
    assert steps == 4 and len(stored) == 5
    times = np.array([s.time for s in stored])
    np.testing.assert_allclose(np.diff(times), dt_used, rtol=1e-12)
    final, _, _ = simulate(state, TEMAM, ForcingSpec.zero(), 0.05, dt=0.0125)
    assert final.time == stored[-1].time
    assert all(_same_bits(a, b) for a, b in zip(_arrays(final), _arrays(stored[-1])))


@pytest.mark.parametrize("model, dt", [
    (TEMAM, 0.01),  # RK4
    (TEMAM, 0.045),  # ETDRK4, past the acoustic bound h / sqrt(k)
    (ModelConfig(model="incompressible", re=100.0), 0.01),
    (ModelConfig(model="compressible", re=100.0, k=100.0), 0.01),
    ("density", 0.01),
], ids=["rk4", "etdrk4", "projection", "compressible", "density"])
def test_a_run_ends_on_t_final_though_its_summed_times_drift(model, dt):
    g = make_grid(16)
    if model == "density":
        steps, dt_used, samples = simulate_with_density(_taylor_green(g), TEMAM,
                                                        ForcingSpec.zero(), 0.3, 0.4, dt)
        times = [s.time for s, _ in samples]
    else:
        steps, dt_used, states = march(_taylor_green(g), model, ForcingSpec.zero(), 0.3, dt)
        times = [s.time for s in states]
    summed = list(itertools.accumulate([0.0] + [dt_used] * steps))
    assert summed[-1] != 0.3  # the sum drifts off t_final
    assert times[:-1] == summed[:-1] and times[-1] == 0.3


def test_simulate_rejects_empty_span():
    g = make_grid(16)
    with pytest.raises(ValueError):
        simulate(State.rest(g), TEMAM, ForcingSpec.zero(), 0.0)


@pytest.mark.parametrize("step", [
    {"dt": -0.01}, {"dt": 0.0}, {"dt": np.inf}, {"dt": np.nan}, {"cfl": -0.4}, {"cfl": 0.0},
])
def test_simulate_rejects_a_step_that_is_not_positive_and_finite(step):
    # each once took one step of 0.05 or failed with a ZeroDivisionError or a NaN conversion
    with pytest.raises(ValueError, match="time step must be positive and finite"):
        simulate(_taylor_green(make_grid(16)), TEMAM, ForcingSpec.zero(), 0.05, **step)


def test_out_of_stability_step_raises_blowup():
    g = make_grid(16)
    state = _taylor_green(g)
    with pytest.raises(SimulationBlowupError):
        simulate(state, TEMAM, ForcingSpec.zero(), 100.0, dt=10.0)


def test_out_of_stability_projection_step_raises_blowup():
    g = make_grid(16)
    rng = np.random.default_rng(0)
    state = State(VectorField(g, rng.standard_normal((2, 16, 16))),
                  ScalarField.zeros(g), 0.0)
    cfg = ModelConfig(model="incompressible", re=100.0)
    with pytest.raises(SimulationBlowupError, match="advective bound"):
        simulate(state, cfg, ForcingSpec.zero(), 50.0, dt=0.5)


def test_projection_default_step_holds_a_high_re_run():
    # at stable_dt alone (0.101) this run blows up near t = 6.18; refined
    # like h^2 it decays, and its energy never rises
    g = make_grid(32)
    raw = random_smooth_state(g, seed=2, modes=8, amplitude=1.0)
    state = State(project_divergence_free(raw.v)[0], raw.p, raw.time)
    cfg = ModelConfig(model="incompressible", re=1000.0)
    steps, dt, states = march(state, cfg, ForcingSpec.zero(), 8.0)
    assert dt == 8.0 / steps and steps == 519
    assert dt <= 0.4 * g.spacing**2 < stable_dt(state, cfg)
    energy = [0.5 * integrate(s.v.magnitude_squared()) for s in states]
    assert len(energy) == steps + 1
    assert (np.diff(energy) < 0.0).all()


# Messages of runs at 20x the acoustic bound.  A stage of the compressible
# row's first step drives the density 1 + p/K to zero, and its message leads
# with that cause.  The temam row takes the ETD path, whose advective guard
# refuses the very first step.
BLOWUP_MESSAGES = (
    (ModelConfig(model="temam", re=100.0, k=100.0),
     "step past the advective bound at t=0 with dt=7.854e-01; |v|_inf=9.734e-01, "
     "advective bound 4.034e-01, diffusive bound 3.855e+00, acoustic bound 3.927e-02"),
    (ModelConfig(model="compressible", re=100.0, k=100.0, zeta_over_mu=0.5),
     "reconstructed density 1 + p/K reached zero at t=0 with dt=7.854e-01; |v|_inf=9.734e-01, "
     "advective bound 4.034e-01, diffusive bound 3.855e+00, acoustic bound 3.927e-02"),
)


@pytest.mark.parametrize("cfg, message", BLOWUP_MESSAGES)
def test_blowup_message_names_the_failing_step_and_every_bound(cfg, message):
    g = make_grid(16)
    dt = 20.0 * g.spacing / np.sqrt(cfg.k)
    with pytest.raises(SimulationBlowupError) as info:
        simulate(_smooth_state(g), cfg, ForcingSpec.zero(), 1000 * dt, dt=dt)
    assert str(info.value) == message


def test_steppers_refuse_samples_whose_cubes_could_overflow_a_sum():
    # 192 samples: a cubic sum over them stays finite below
    # (largest float / 192^2)^(1/3), about 1.7e101, though squares go to 9.7e152
    y = np.zeros((3, 8, 8))
    for sample, ok in ((1e101, True), (1e102, False), (1e152, False), (np.inf, False)):
        def rates(ys, t, out):
            out.fill(sample)

        if ok:
            step_rk4(rates, y, 0.0, 1.0)  # every sample of the new array is the rate
        else:
            with pytest.raises(ValueError, match="RK4 step produced non-finite or overflowing"):
                step_rk4(rates, y, 0.0, 1.0)


@pytest.mark.parametrize("cfg, dt", [  # RK4, RK4, and ETDRK4 past the acoustic bound
    (ModelConfig(model="compressible", re=100.0, k=100.0), None),
    (ModelConfig(model="temam", re=100.0, k=100.0, extra_force="galilean_alt"), 0.01),
    (ModelConfig(model="temam", re=100.0, k=100.0, extra_force="galilean_alt"), None),
])
def test_a_run_from_vacuum_names_the_density_as_its_cause(cfg, dt):
    g = make_grid(8)
    state = State(VectorField.zeros(g), ScalarField.constant(g, -200.0), 0.0)
    with pytest.raises(SimulationBlowupError) as info:
        simulate(state, cfg, ForcingSpec.zero(), 0.1, dt=dt)
    assert str(info.value).startswith("reconstructed density 1 + p/K reached zero at t=0 with dt=")
    assert "acoustic bound" in str(info.value)


# -- the galilean_alt force: rho_hat (dv/dt + conv) = -grad p + lap v / Re + f ------


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 32), log_k=st.floats(0.0, 6.0), seed=st.integers(0, 2**32 - 1))
def test_galilean_alt_rate_satisfies_the_force_s_own_definition(n, log_k, seed):
    # rate_v = rate_none_v - (p/K)(rate_v + conv) on rough random states with 1 + p/K in
    # (0.1, 4), elementwise to round-off of the terms of rho_hat (rate_v + conv)
    k, g, rng = 10.0**log_k, make_grid(n), np.random.default_rng(seed)
    y = rng.standard_normal((3, n, n))
    y[2] = k * rng.uniform(-0.9, 3.0, (n, n))
    f = rng.standard_normal((2, n, n))
    cfg = ModelConfig(model="temam", re=100.0, k=k, extra_force="galilean_alt")
    rate = temam_rhs(y, f, cfg, g.spacing)
    rate_none = temam_rhs(y, f, replace(cfg, extra_force="none"), g.spacing)
    v, p = VectorField(g, y[:2]), ScalarField(g, y[2])
    conv = convection(v).values
    force = (y[2] / -k) * (rate[:2] + conv)
    terms = (np.abs(laplacian(v).values) / cfg.re + np.abs(gradient(p).values) + np.abs(f)
             + np.abs(conv))
    residual = np.abs(rate[:2] - (rate_none[:2] + force))
    assert (residual <= 32 * np.finfo(float).eps * terms / (1.0 + y[2] / k)).all()  # 8 seen
    assert _same_bits(rate[2], rate_none[2])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 32), log_k=st.floats(0.0, 6.0), zeta=st.floats(0.0, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_compressible_rate_is_the_conservative_formula_to_round_off(n, log_k, zeta, seed):
    # the kernel solves the galilean_alt balance plus c grad div v; the conservative form
    # (-rho_hat conv - grad p + lap v / Re + c grad div v + f) / rho_hat it replaced, on rough
    # random states with 1 + p/K in (0.1, 4), elementwise to round-off of its terms
    k, g, rng = 10.0**log_k, make_grid(n), np.random.default_rng(seed)
    y = rng.standard_normal((3, n, n))
    y[2] = k * rng.uniform(-0.9, 3.0, (n, n))
    f = rng.standard_normal((2, n, n))
    cfg = ModelConfig(model="compressible", re=100.0, k=k, zeta_over_mu=zeta)
    rate = temam_rhs(y, f, cfg, g.spacing)
    v, p = VectorField(g, y[:2]), ScalarField(g, y[2])
    rho, c = 1.0 + y[2] / k, (zeta + 1.0 / 3.0) / cfg.re
    terms = [-rho * convection(v).values, -gradient(p).values, laplacian(v).values / cfg.re,
             c * grad_div(v).values, f]
    residual = np.abs(rate[:2] - sum(terms) / rho)
    assert (residual <= 32 * np.finfo(float).eps * sum(map(np.abs, terms)) / rho).all()
    # the pressure rate -K div(rho_hat v) keeps the old flux's operations
    assert _same_bits(rate[2], (-k * divergence(VectorField(g, rho * y[:2]))).values)


def test_galilean_alt_rk4_runs_are_fourth_order_in_time():
    g = make_grid(32)
    cfg = ModelConfig(model="temam", re=100.0, k=100.0, extra_force="galilean_alt")
    state0 = _smooth_state(g)

    def final(dt):
        assert dt <= g.spacing / np.sqrt(cfg.k)  # RK4, not ETDRK4
        return pack_state(simulate(state0, cfg, ForcingSpec.zero(), 0.2, dt=dt)[0])

    ref = final(0.0025 / 8.0)
    errors = [np.abs(final(dt) - ref).max() for dt in (0.01, 0.005, 0.0025)]
    assert (np.log2(errors[:-1]) - np.log2(errors[1:])).min() > 3.8


def test_galilean_alt_etd_runs_converge_to_an_rk4_reference():
    # raw data at K = 1e4: ETD steps 5 to 1 times the acoustic bound against RK4 at a
    # tenth of it, whose own error is about 6e-7
    g = make_grid(16)
    cfg = ModelConfig(model="temam", re=100.0, k=1e4, extra_force="galilean_alt")
    state0 = _smooth_state(g)

    def final(dt):
        return pack_state(simulate(state0, cfg, ForcingSpec.zero(), 0.2, dt=dt)[0])

    ref = final(0.000125)
    errors = np.array([np.abs(final(dt) - ref).max() for dt in (0.02, 0.01, 0.005)])
    assert (errors[:-1] >= 2.0 * errors[1:]).all()


def test_galilean_alt_runs_stably_with_the_lagged_acceleration():
    # the name predates the closed-form force: the acceleration it once lagged
    # by a step is now solved within each right-hand side
    g = make_grid(16)
    state = _smooth_state(g)
    cfg = ModelConfig(model="temam", re=100.0, k=100.0, extra_force="galilean_alt")
    final, _, _ = simulate(state, cfg, ForcingSpec.zero(), 0.05)
    assert all(np.isfinite(a).all() for a in _arrays(final))


def test_galilean_alt_reuses_the_first_stage_as_its_lag(monkeypatch):
    # the name predates the closed-form force: the force's acceleration is
    # solved within each right-hand side, so a step costs exactly the four
    # of the integrator and no extra evaluation
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return temam_rhs(*args, **kwargs)

    monkeypatch.setattr(models, "temam_rhs", counted)
    g = make_grid(16)
    cfg = ModelConfig(model="temam", re=100.0, k=100.0, extra_force="galilean_alt")
    final, _, dt_used = simulate(_smooth_state(g), cfg, ForcingSpec.zero(), 0.05, dt=0.01)
    assert len(calls) == 4 * round(0.05 / dt_used)
    assert all(np.isfinite(a).all() for a in _arrays(final))


def test_forcing_on_the_wrong_grid_is_an_input_error_not_a_blowup():
    # the forcing is sampled once before the first step, so input errors
    # surface as ValueError there and never reach the blow-up guard
    table = trig(make_grid(16), 0.7)  # another grid's table
    wrong_shape = ForcingSpec(lambda t: np.zeros((2, 3, 3)))
    state = _smooth_state(make_grid(8))
    for cfg in (TEMAM, ModelConfig(model="compressible", re=100.0, k=100.0),
                ModelConfig(model="incompressible", re=100.0)):
        for forcing, shape in ((table, r"\(2, 16, 16\)"), (wrong_shape, r"\(2, 3, 3\)")):
            seen = []
            with pytest.raises(ValueError, match=shape + r", the grid needs \(2, 8, 8\)"):
                simulate(state, cfg, forcing, 0.05, observer=seen.append)
            assert not seen


@settings(max_examples=12, deadline=None)
@given(n=st.integers(5, 20), t0=st.floats(0.0, 10.0))
def test_no_force_and_a_zero_table_give_the_same_runs_bitwise(n, t0):
    # no force is the scalar 0.0, which every path adds like a zero array
    g = make_grid(n)
    state0 = replace(_smooth_state(g), time=t0)
    zeros = ForcingSpec(lambda t: np.zeros((2, n, n)))
    runs = (  # RK4, ETDRK4 past the acoustic bound, projection steps
        (TEMAM, stable_dt(state0, TEMAM) / 4.0),
        (ModelConfig(model="temam", re=100.0, k=1e5), None),
        (ModelConfig(model="compressible", re=100.0, k=100.0), None),
        (ModelConfig(model="incompressible", re=100.0), None),
    )
    for cfg, dt in runs:
        stored = list(march(state0, cfg, ForcingSpec.zero(), t0 + 0.2, dt=dt)[2])
        again = list(march(state0, cfg, zeros, t0 + 0.2, dt=dt)[2])
        assert len(stored) == len(again) >= 2
        for a, b in zip(stored, again):
            assert a.time == b.time
            assert all(_same_bits(x, y) for x, y in zip(_arrays(a), _arrays(b)))
        if len(stored) >= 3:
            rows = [np.array([astuple(r) for r in energy_audit(stored, f, cfg)])
                    for f in (ForcingSpec.zero(), zeros)]
            assert _same_bits(*rows)


@pytest.mark.parametrize("n", [8, 9])
def test_rate_kernels_skip_no_force_with_the_bits_of_a_zero_force(n):
    # the scalar 0.0 is not added; a rest state of +0.0 pins the sign of the reordered sums' zeros
    g, zeros = make_grid(n), np.zeros((2, n, n))
    temam_cfgs = [c for c in ORACLE_CONFIGS if c.model == "temam"]
    for state in (_smooth_state(g), random_smooth_state(g, n, 3, 0.5), State.rest(g)):
        y = pack_state(state)
        for cfg, linear in ((c, linear) for c in temam_cfgs for linear in (True, False)):
            want = temam_rhs(y, zeros, cfg, g.spacing, _linear=linear)
            assert _same_bits(temam_rhs(y, 0.0, cfg, g.spacing, _linear=linear), want)
            assert state.v.max_abs() > 0.0 or not np.signbit(want[:2]).any()
        cfg = ModelConfig(model="incompressible", re=100.0)
        want = models._momentum_source(y[:2], zeros, cfg, g.spacing)
        assert _same_bits(models._momentum_source(y[:2], 0.0, cfg, g.spacing), want)
        assert state.v.max_abs() > 0.0 or not np.signbit(want).any()


# -- packed core against a field-level oracle ------------------------------------


def _field_rates(state, f, cfg):
    """The right-hand sides written with the public field operators."""
    v, p = state.v, state.p
    rho = ScalarField(state.grid, 1.0 + p.values / cfg.k)
    if cfg.model == "compressible":  # the galilean_alt balance plus the dilatational viscosity
        rate = ((1.0 / cfg.re) * laplacian(v) - gradient(p)
                + ((cfg.zeta_over_mu + 1.0 / 3.0) / cfg.re) * grad_div(v) + f)
        return rate / rho - convection(v), (-cfg.k) * divergence(rho * v)
    if cfg.extra_force == "galilean_alt":  # rho (dv/dt + conv) = -grad p + lap v / Re + f
        dv = ((1.0 / cfg.re) * laplacian(v) - gradient(p) + f) / rho - convection(v)
        return dv, (-cfg.k) * divergence(v)
    dv = -convection(v) - gradient(p) + (1.0 / cfg.re) * laplacian(v) + f
    if cfg.extra_force == "temam":
        dv = dv + _reference_temam_force(v)
    return dv, (-cfg.k) * divergence(v)


def _field_chorin(state, f, cfg, dt):
    """The Chorin projection step over fields: predictor, pressure solve, correction."""
    v, g = state.v, state.grid
    v_star = v + dt * (-convection(v) + (1.0 / cfg.re) * laplacian(v) + f)
    p = ScalarField(g, _reference_poisson(divergence(v_star).values / dt, g.spacing))
    return State(v_star - dt * gradient(p), p, state.time + dt)


def _field_rk4(rates, y, t, dt):
    """Classical RK4 over a tuple of fields, stage by stage."""

    def shifted(k, frac):
        return tuple(a + (frac * dt) * b for a, b in zip(y, k))

    k1 = rates(y, t)
    k2 = rates(shifted(k1, 0.5), t + 0.5 * dt)
    k3 = rates(shifted(k2, 0.5), t + 0.5 * dt)
    k4 = rates(shifted(k3, 1.0), t + dt)
    return tuple(
        a + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    )


def _same_bits(a, b):
    return a.tobytes() == b.tobytes()


def _arrays(item):
    if isinstance(item, State):
        return [item.v.x, item.v.y, item.p.values]
    return [item.values]


def _share_no_memory(items):
    arrays = [_arrays(item) for item in items]
    return not any(
        np.shares_memory(a, b)
        for i, first in enumerate(arrays) for second in arrays[i + 1:]
        for a in first for b in second
    )


ORACLE_CONFIGS = (
    ModelConfig(model="temam", re=100.0, k=100.0, extra_force="temam"),
    ModelConfig(model="temam", re=100.0, k=100.0, extra_force="none"),
    ModelConfig(model="temam", re=100.0, k=100.0, extra_force="galilean_alt"),
    ModelConfig(model="compressible", re=100.0, k=100.0, zeta_over_mu=0.5),
)
# the compressible row keeps the id it had while the skew-convection rows stood before it
ORACLE_IDS = ("cfg0", "cfg1", "cfg2", "cfg5")


@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=ORACLE_IDS)
def test_simulate_matches_the_field_level_rk4_bitwise(cfg, n):
    g = make_grid(n)
    forcing = trig(g, 0.7, kx=1, ky=2)
    state0 = _smooth_state(g)
    # stable_dt keeps the temam rows on RK4, which the oracle writes out
    _, dt, states = march(state0, cfg, forcing, 0.06, dt=stable_dt(state0, cfg))
    stored = list(states)
    assert len(stored) > 3

    def rates(y, t):
        return _field_rates(State(y[0], y[1], t), field(forcing, g, t), cfg)

    expected = [state0]
    for _ in stored[1:]:
        s = expected[-1]
        v, p = _field_rk4(rates, (s.v, s.p), s.time, dt)
        expected.append(State(v, p, s.time + dt))
    for got, want in zip(stored, expected):
        assert got.time == want.time
        assert all(_same_bits(a, b) for a, b in zip(_arrays(got), _arrays(want)))
    assert _share_no_memory(stored)


def _pulsing(g):
    """A force that varies in time, so the stage times count."""
    return from_mesh(g, lambda X, Y, t: (np.cos(20 * t) * np.sin(X) * np.cos(2 * Y),
                                         np.sin(20 * t) * np.cos(Y)))


ORACLE_FORCINGS = {"trig": lambda g: trig(g, 0.7, kx=1, ky=2), "callable": _pulsing}


@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("forcing", sorted(ORACLE_FORCINGS))
def test_incompressible_simulate_matches_the_field_level_chorin_step_bitwise(forcing, n):
    g = make_grid(n)
    cfg = ModelConfig(model="incompressible", re=100.0)
    forcing = ORACLE_FORCINGS[forcing](g)
    state0 = _smooth_state(g)
    _, dt, states = march(state0, cfg, forcing, 0.2, dt=stable_dt(state0, cfg) / 4.0)
    stored = list(states)
    assert len(stored) > 3

    expected = [state0]
    for _ in stored[1:]:
        s = expected[-1]
        expected.append(_field_chorin(s, field(forcing, g, s.time), cfg, dt))
    expected[-1] = replace(expected[-1], time=0.2)  # the run ends on t_final, not on the sum
    for got, want in zip(stored, expected):
        assert got.time == want.time
        assert all(_same_bits(a, b) for a, b in zip(_arrays(got), _arrays(want)))
    assert _share_no_memory(stored)


@pytest.mark.parametrize("extra_force", ["temam", "galilean_alt"])
def test_density_run_matches_the_field_level_rk4_bitwise(extra_force):
    g = make_grid(17)
    cfg = ModelConfig(model="temam", re=100.0, k=100.0, extra_force=extra_force)
    forcing = trig(g, 0.7, kx=1, ky=2)
    _, dt, samples = simulate_with_density(_smooth_state(g), cfg, forcing, 0.06, 0.4)
    states, densities = zip(*samples)

    def rates(y, t):
        v, p, rho = y
        dv, dp = _field_rates(State(v, p, t), field(forcing, g, t), cfg)
        return dv, dp, -divergence(rho * v)

    s, rho = states[0], ScalarField.constant(g, 1.0)
    for got, got_rho in zip(states, densities):
        assert got.time == s.time
        assert all(_same_bits(a, b) for a, b in zip(_arrays(got), _arrays(s)))
        assert _same_bits(got_rho.values, rho.values)
        v, p, rho = _field_rk4(rates, (s.v, s.p, rho), s.time, dt)
        s = State(v, p, s.time + dt)
    assert _share_no_memory([*states, *densities])


# -- ETDRK4 past the acoustic bound -------------------------------------------------


def _expm(a):
    """Matrix exponential: Taylor series after scaling by 2^-s, then s squarings."""
    s = max(0, int(np.ceil(np.log2(np.abs(a).sum(axis=1).max()))) + 1)
    x, term = a / 2.0**s, np.eye(len(a), dtype=complex)
    out = term
    for k in range(1, 30):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _reference_functions(lin, dt):
    """E, E_1/2, Q, f1, 2 f2, f3 of the 3x3 matrix lin dt, from augmented exponentials.

    The top block row of exp([[A, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I], 0])
    is (e^A, phi_1(A), phi_2(A), phi_3(A)).
    """
    eye = np.eye(3)
    w = np.zeros((12, 12), complex)
    w[:3, :3] = lin * dt
    for j in range(3):
        w[3 * j:3 * j + 3, 3 * j + 3:3 * j + 6] = eye
    e, p1, p2, p3 = np.split(_expm(w)[:3], 4, axis=1)
    half = np.zeros((6, 6), complex)
    half[:3, :3], half[:3, 3:] = 0.5 * lin * dt, eye
    e_half, q1 = np.split(_expm(half)[:3], 2, axis=1)
    return [e, e_half, 0.5 * dt * q1, dt * (p1 - 3 * p2 + 4 * p3), 2 * dt * (p2 - 2 * p3),
            dt * (4 * p3 - p2)]


def _critical_k(n, re, dt):
    """The K at which mode (1, 0) of an n grid is critically damped: delta = 0."""
    h = 2 * np.pi / n
    c = 0.5 * dt / re * (2 * np.cos(2 * np.pi / n) - 2) / h**2
    return c * c / (np.sin(2 * np.pi / n) / h * dt) ** 2


# (n, re, k, dt): oscillatory modes with |delta| up to ~30, critical damping
# (delta -> 0) and both sides of the switch to the contour mean at |delta| =
# 1/4, and overdamped modes whose slow eigenvalue is near zero
COEFFICIENT_CASES = (
    (8, 100.0, 1e5, 0.05),
    (9, 100.0, 1e4, 0.05),
    *((8, 1.0, _critical_k(8, 1.0, 2.0) * f, 2.0) for f in (1.0, 1 + 1e-9, 0.93, 1.07, 1.5)),
    (8, 0.01, 1.0, 0.1),
)


@pytest.mark.parametrize("n, re, k, dt", COEFFICIENT_CASES)
def test_etd_coefficients_match_a_matrix_exponential_on_every_mode(n, re, k, dt):
    # every mode of a small grid: the constant mode and, on even n, the
    # checkerboard modes with sigma = 0 are among them
    h = 2 * np.pi / n
    sin_x, sin_y, lap = symbols = stencil_symbols(n, h)
    coef = etd_coefficients(ModelConfig(model="temam", re=re, k=k), symbols, h, dt)
    for i in range(n):
        for j in range(n // 2 + 1):
            sx, sy, nu_lap = sin_x[i, 0] / h, sin_y[0, j] / h, lap[i, j] / re
            lin = np.array([[nu_lap, 0, -1j * sx], [0, nu_lap, -1j * sy],
                            [-1j * k * sx, -1j * k * sy, 0]])
            for (a, m, g, d), want in zip(coef[:, :, i, j], _reference_functions(lin, dt)):
                got = np.array([[a + m * sx * sx, m * sx * sy, -1j * g * sx],
                                [m * sx * sy, a + m * sy * sy, -1j * g * sy],
                                [-1j * k * g * sx, -1j * k * g * sy, d]])
                assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def _two_evaluation_coefficients(cfg, n, h, dt):
    """etd_coefficients as first written: g0 and g1 from f at both c + delta and c - delta.

    Complex arithmetic throughout, in blocks of rows, with the same
    contour mean where |delta| < 1/4.
    """
    sin_x, sin_y, lap = stencil_symbols(n, h)
    sigma2 = (sin_x**2 + sin_y**2) / (h * h)
    c = (0.5 * dt / cfg.re) * lap
    delta2 = c * c - cfg.k * dt * dt * sigma2
    coef = np.zeros((6, 4) + lap.shape)
    half = n // 2 + 1
    block = max(1, 512 // lap.shape[1])
    for i in range(0, half, block):
        rows = slice(i, min(i + block, half))
        c_, d2, s2, out = c[rows], delta2[rows], sigma2[rows], coef[:, :, rows]
        out[:, 0] = models._etd_functions(2.0 * c_ + 0j, dt).real
        g1, g0 = out[:, 2], out[:, 3]
        near = np.abs(d2) < 1.0 / 16.0
        far = ~near
        delta = np.sqrt(d2[far] + 0j)
        for sign in (1.0, -1.0):
            values = models._etd_functions(c_[far] + sign * delta, dt)
            g0[:, far] += 0.5 * values.real
            g1[:, far] += (values * (0.5 * sign / delta)).real
        r = models._CONTOUR
        w = r / (r * r - d2[near][:, None])
        values = models._etd_functions(c_[near][:, None] + r, dt)
        g0[:, near] = (values * w * r).mean(axis=-1).real
        g1[:, near] = (values * w).mean(axis=-1).real
        np.divide(g0 + c_ * g1 - out[:, 0], s2, out=out[:, 1], where=s2 > 0.0)
        g0 -= c_ * g1
        g1 *= dt
    coef[:, :, half:] = coef[:, :, n - half:0:-1]
    return coef


@pytest.mark.parametrize("n, re, k, dt", COEFFICIENT_CASES + (
    (64, 100.0, 1e5, 0.04), (64, 100.0, 1e2, 0.04), (64, 100.0, 1e5, 1e-3), (64, 1.0, 1e3, 0.5)))
def test_etd_coefficients_match_the_two_evaluation_build(n, re, k, dt):
    # compared as what each coefficient adds to a mode, a, m sigma^2, g sigma
    # and d, relative to the largest of them for the same function.  On even
    # grids sin(pi) is 1.2e-16, not 0, so at the checkerboard modes m is a
    # round-off difference over sigma^2 ~ 1e-32 in both builds.
    h = 2 * np.pi / n
    cfg = ModelConfig(model="temam", re=re, k=k)
    sin_x, sin_y, _ = symbols = stencil_symbols(n, h)
    sigma2 = (sin_x**2 + sin_y**2) / (h * h)
    one = np.ones_like(sigma2)
    weight = np.stack([one, sigma2, np.sqrt(sigma2), one])
    got = etd_coefficients(cfg, symbols, h, dt) * weight
    want = _two_evaluation_coefficients(cfg, n, h, dt) * weight
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max()


def _nonlinear_by_subtraction(y, f, cfg, h):
    """N as the full rate less L, in Fourier space: rfft2(temam_rhs(y)) - L y_hat, y_hat."""
    sin_x, sin_y, lap = stencil_symbols(y.shape[-1], h)
    sx, sy, nu_lap = sin_x / h, sin_y / h, lap / cfg.re
    z = np.fft.rfft2(y)
    out = np.fft.rfft2(temam_rhs(y, f, cfg, h))
    out[0] += (1j * sx) * z[2] - nu_lap * z[0]
    out[1] += (1j * sy) * z[2] - nu_lap * z[1]
    out[2] += (1j * cfg.k) * (sx * z[0] + sy * z[1])
    return out, z


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("cfg", [c for c in ORACLE_CONFIGS if c.model == "temam"])
@settings(max_examples=15, deadline=None)
@given(half=st.integers(2, 20), log_k=st.floats(1.0, 6.0), t=st.floats(0.0, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_direct_nonlinear_part_equals_the_rate_less_its_linear_part(cfg, parity, half, log_k, t,
                                                                    seed):
    # the stepper's N is temam_rhs without its linear lines; the cancelling
    # terms of the subtraction are of size K |s| |y_hat|, hence the scale
    n, cfg = 2 * half + parity, replace(cfg, k=10.0**log_k)
    g, rng = make_grid(n), np.random.default_rng(seed)
    y = pack_state(random_smooth_state(g, seed=seed, modes=3, amplitude=0.5))
    # random_smooth_state's pressure is zero; |p| <= 5 keeps 1 + p/K >= 1/2
    y[2] = random_smooth_state(g, seed=seed + 1, modes=3, amplitude=rng.uniform(0.05, 5.0)).v.x
    X, Y = g.mesh()
    f = np.stack([np.cos(3 * t) * np.sin(X), np.sin(t) * np.cos(2 * Y)])
    direct = temam_rhs(y, f, cfg, g.spacing, _linear=False)
    want, y_hat = _nonlinear_by_subtraction(y, f, cfg, g.spacing)
    assert np.abs(np.fft.rfft2(direct) - want).max() <= 1e-13 * cfg.k * np.abs(y_hat).max()
    assert not direct[2].any()  # what lets the stepper transform N's velocity alone
    if cfg.extra_force != "galilean_alt":
        # and what lets it transform the stage's velocity alone: N does not read the pressure
        y[2] = rng.standard_normal((n, n))
        assert _same_bits(temam_rhs(y, f, cfg, g.spacing, _linear=False), direct)


def _etd_run(state0, cfg, forcing, steps, dt):
    """Packed (vx, vy, p) after ``steps`` ETDRK4 steps, whatever the size of dt."""
    g, h = state0.grid, state0.grid.spacing
    etd, force = ETDRK4(cfg, g.n, h, dt), forcing.sampler(g, state0.time)

    def nonlinear(y, t, out):
        return temam_rhs(y, force(t), cfg, h, out, _linear=False)

    y, t = pack_state(state0), state0.time
    for _ in range(steps):
        y = etd.step(nonlinear, y, t)
        t += dt
    return y


@pytest.mark.parametrize("cfg", [c for c in ORACLE_CONFIGS if c.model == "temam"])
def test_etd_agrees_with_rk4_at_a_sound_resolved_step(cfg):
    # RK4's own time error at stable_dt / 8 is about 2e-9 here.  The force
    # varies in time, so the stage times count.
    g = make_grid(16)
    forcing = _pulsing(g)
    state0 = _smooth_state(g)
    dt = stable_dt(state0, cfg) / 8.0
    steps = round(0.1 / dt)
    etd = _etd_run(state0, cfg, forcing, steps, dt)
    rk4 = pack_state(simulate(state0, cfg, forcing, steps * dt, dt=dt)[0])
    assert np.abs(etd[:2] - rk4[:2]).max() < 1e-8
    assert np.abs(etd[2] - rk4[2]).max() < 1e-7


@settings(max_examples=25, deadline=None)
@given(n=st.integers(8, 24), log_k=st.floats(1.0, 4.5), seed=st.integers(0, 2**32 - 1),
       extra_force=st.sampled_from(("temam", "none")))
def test_etd_is_within_rk4s_own_time_error_on_random_grids(n, log_k, seed, extra_force):
    # ETD treats the stiff part exactly, so at a step RK4 resolves it is off
    # RK4 by at most RK4's own error, estimated against RK4 at half the step
    cfg = ModelConfig(model="temam", re=100.0, k=10.0**log_k, extra_force=extra_force)
    state0 = random_smooth_state(make_grid(n), seed=seed, modes=3, amplitude=0.3)
    forcing = trig(state0.grid, 0.7, kx=1, ky=2)
    dt = stable_dt(state0, cfg) / 8.0
    etd = _etd_run(state0, cfg, forcing, 16, dt)[:2]
    rk4, rk4_half = (pack_state(simulate(state0, cfg, forcing, 16 * dt, dt=d)[0])[:2]
                     for d in (dt, dt / 2.0))
    assert np.abs(etd - rk4).max() <= 2.0 * np.abs(rk4_half - rk4).max() + 1e-13


@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_an_etd_run_passes_the_relaxed_stiff_checks(n, seed, monkeypatch):
    # the relaxed-stiff benchmark workload and its checks on a small grid:
    # K = 1e5 from a state prepared on the slow manifold, default step
    cfg, zero = ModelConfig(model="temam", re=100.0, k=1e5), ForcingSpec.zero()
    g = make_grid(n)
    v0, _ = project_divergence_free(random_smooth_state(g, seed=seed, modes=4, amplitude=1.0).v)
    state0 = State(v0, consistent_pressure(v0, zero, cfg), 0.0)
    etd_steps, etd_step = [], ETDRK4.step

    def counted(self, *args):
        etd_steps.append(1)
        return etd_step(self, *args)

    monkeypatch.setattr(ETDRK4, "step", counted)
    final, _, dt = simulate(state0, cfg, zero, 1.0)
    assert dt > g.spacing / np.sqrt(cfg.k) and len(etd_steps) == round(1.0 / dt) > 3

    def energy(s):
        return 0.5 * integrate(s.v.magnitude_squared()) + integrate(s.p * s.p) / (2.0 * cfg.k)

    assert all(np.isfinite(a).all() for a in _arrays(final))
    assert energy(final) <= energy(state0)
    assert divergence_norm(final) / l2_norm(final.v) <= 1.0 / cfg.k


def test_a_step_up_to_the_acoustic_bound_is_still_bitwise_rk4(monkeypatch):
    g = make_grid(16)
    forcing = trig(g, 0.7, kx=1, ky=2)
    state0 = _smooth_state(g)
    cfg = ModelConfig(model="temam", re=100.0, k=100.0, extra_force="galilean_alt")
    h, acoustic = g.spacing, g.spacing / np.sqrt(cfg.k)
    final, _, dt = simulate(state0, cfg, forcing, 4 * acoustic, dt=acoustic)
    assert dt == acoustic

    force = forcing.sampler(g, 0.0)
    y = pack_state(state0)
    for i in range(4):
        y = step_rk4(lambda ys, t, out: temam_rhs(ys, force(t), cfg, h, out), y, i * dt, dt)
    assert all(_same_bits(a, b) for a, b in zip(_arrays(final), y))

    # one ulp past the bound, the same run takes ETD steps
    etd_steps, etd_step = [], ETDRK4.step

    def counted(self, *args):
        etd_steps.append(1)
        return etd_step(self, *args)

    monkeypatch.setattr(ETDRK4, "step", counted)
    above = np.nextafter(acoustic, np.inf)
    simulate(state0, cfg, forcing, 4 * above, dt=above)
    assert len(etd_steps) == 4


def test_etd_run_names_the_advective_bound_before_any_sample_is_non_finite():
    # from rest, a uniform force A accelerates the mean flow only, so the
    # step from t = i dt starts at |v| = A i dt; with dt = 0.1 > h / sqrt(K)
    # and A = 10 the first step past h / |v| is the one from t = 0.4
    g = make_grid(16)
    push = from_mesh(g, lambda X, Y, t: (10.0 + 0.0 * X, 0.0 * X))
    seen = []
    with pytest.raises(SimulationBlowupError, match="advective bound") as info:
        simulate(State.rest(g), TEMAM, push, 2.0, dt=0.1, observer=seen.append)
    assert str(info.value).startswith("step past the advective bound at t=0.4 with dt=1.000e-01")
    assert [round(s.time, 12) for s in seen] == [0.0, 0.1, 0.2, 0.3, 0.4]
    assert all(np.isfinite(_arrays(s)).all() for s in seen)
