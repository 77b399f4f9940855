"""Energy audits, frame changes, interpolation, and particle transport."""

import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forcing_cases import field, trig
from qins import diagnostics
from qins.diagnostics import (
    GalileanReport,
    ParticleSet,
    _gather,
    _interp_taps,
    divergence_norm,
    energy_audit,
    galilean_invariance_report,
    transport_check,
)
from qins.fields import TWO_PI, ScalarField, VectorField, l2_norm, make_grid
from qins.harness.config import ExperimentConfig, InitialConditionSpec
from qins.harness.experiments import run_free_run, run_transport_check, simulate_with_density
from qins.harness.initial_conditions import random_smooth_state, taylor_green_state
from qins.models import (
    ForcingSpec,
    ModelConfig,
    State,
    march,
    pack_state,
    stable_dt,
    temam_extra_force,
    temam_rhs,
    unpack_state,
)
from qins.operators import convection, directional_derivative, divergence

TEMAM = ModelConfig(model="temam", re=100.0, k=100.0)


def _taylor_green_with_pulse(grid, amp=0.3, time=0.0):
    v = VectorField.from_function(
        grid,
        lambda X, Y: np.sin(X) * np.cos(Y) + amp * np.cos(X) * np.sin(Y),
        lambda X, Y: -np.cos(X) * np.sin(Y) + amp * np.sin(X) * np.cos(Y),
    )
    p = ScalarField.from_function(grid, lambda X, Y: 0.25 * (np.cos(2 * X) + np.cos(2 * Y)))
    return State(v, p, time)


# -- energy audit ----------------------------------------------------------------


def test_divergence_norm_matches_operator_norm():
    state = _taylor_green_with_pulse(make_grid(16))
    assert divergence_norm(state) == pytest.approx(l2_norm(divergence(state.v)), rel=1e-14)


def test_energy_audit_covers_the_interior_samples():
    g = make_grid(16)
    state = _taylor_green_with_pulse(g, amp=0.1)
    # sound-resolved RK4 steps: the ETD default step would give a single step
    dt = stable_dt(state, TEMAM)
    stored = list(march(state, TEMAM, ForcingSpec.zero(), 0.05, dt=dt)[2])
    rows = energy_audit(stored, ForcingSpec.zero(), TEMAM)
    assert len(rows) == len(stored) - 2
    assert rows[0].time == pytest.approx(stored[1].time)
    assert all(r.e_kin > 0.0 and r.e_press >= 0.0 for r in rows)


def test_energy_audit_matches_a_hand_computation():
    # three crafted states pin the bookkeeping: centered time derivative
    # of total energy, injection and dissipation at the interior sample.
    # how small the residual gets on real runs is an acceptance criterion,
    # not a unit property.
    g = make_grid(8)
    base = _taylor_green_with_pulse(g, amp=0.2)
    forcing = trig(g, 0.3)
    dt = 0.1
    scales = (1.0, 0.9, 0.8)
    states = [
        State(a * base.v, (a * a) * base.p, time=i * dt) for i, a in enumerate(scales)
    ]
    rows = energy_audit(states, forcing, TEMAM)
    assert len(rows) == 1
    row = rows[0]

    from qins.fields import integrate
    from qins.operators import strain_frobenius_sq

    def total(s):
        return 0.5 * integrate(s.v.magnitude_squared()) + integrate(s.p * s.p) / (
            2.0 * TEMAM.k
        )

    mid = states[1]
    assert row.e_kin == pytest.approx(0.5 * integrate(mid.v.magnitude_squared()), rel=1e-13)
    assert row.dissipation == pytest.approx(
        integrate(strain_frobenius_sq(mid.v)) / TEMAM.re, rel=1e-13
    )
    assert row.injection == pytest.approx(
        integrate(field(forcing, g, mid.time).dot(mid.v)), rel=1e-13
    )
    assert row.defect_predicted == pytest.approx(
        0.5 * integrate(divergence(mid.v) * mid.v.magnitude_squared()), rel=1e-12
    )
    expected_residual = (total(states[2]) - total(states[0])) / (2.0 * dt) - row.injection + row.dissipation
    assert row.residual == pytest.approx(expected_residual, rel=1e-12)


def test_incompressible_audit_stores_no_pressure_energy_whatever_its_k():
    # the projection's pressure is a multiplier; the model ignores k, and so must the audit
    plain = ModelConfig(model="incompressible", re=100.0)
    states = list(march(taylor_green_state(make_grid(16)), plain, ForcingSpec.zero(), 0.2)[2])
    audits = [energy_audit(states, ForcingSpec.zero(), replace(plain, k=k)) for k in (None, 100.0)]
    assert [astuple(r) for r in audits[1]] == [astuple(r) for r in audits[0]]
    assert all(r.e_press == 0.0 for r in audits[0])


def test_energy_audit_names_a_term_that_is_not_finite():
    # finite samples whose |v|^2 overflows: the kinetic energy is the first bad term
    g = make_grid(8)
    states = [State(VectorField.constant(g, 1e200, 0.0), ScalarField.zeros(g), time=t)
              for t in (0.0, 0.1, 0.2)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"term e_kin is not finite at t=0\b"):
            energy_audit(states, ForcingSpec.zero(), TEMAM)


def test_energy_audit_needs_three_samples():
    g = make_grid(8)
    states = [State.rest(g, time=0.0), State.rest(g, time=0.1)]
    with pytest.raises(ValueError):
        energy_audit(states, ForcingSpec.zero(), TEMAM)


def test_energy_audit_rejects_nonuniform_sampling():
    g = make_grid(8)
    states = [State.rest(g, time=t) for t in (0.0, 0.01, 0.03)]
    with pytest.raises(ValueError):
        energy_audit(states, ForcingSpec.zero(), TEMAM)


def test_energy_audit_errors_hold_for_a_generator():
    g = make_grid(8)
    with pytest.raises(ValueError, match="three samples"):
        energy_audit((State.rest(g, time=t) for t in (0.0, 0.1)), ForcingSpec.zero(), TEMAM)
    with pytest.raises(ValueError, match="uniformly spaced"):
        energy_audit((State.rest(g, time=t) for t in (0.0, 0.01, 0.03)),
                     ForcingSpec.zero(), TEMAM)


# -- frame changes ----------------------------------------------------------------


def test_invariance_report_on_grid():
    """The standard inertial term cancels to round-off under the discrete chain rule.

    The extra-force gap equals its closed form -(1/2)(div v) w because
    div(v + w) = div v for constant w.
    """
    g = make_grid(32)
    state = _taylor_green_with_pulse(g, time=4.0 * g.spacing)
    rep = galilean_invariance_report(state, (1.0, 0.0), TEMAM)
    assert isinstance(rep, GalileanReport)
    assert rep.standard_gap < 1e-10
    assert rep.temam_gap == pytest.approx(rep.temam_gap_closed_form, rel=1e-12)
    # the closed form itself: |w| half the divergence norm
    assert rep.temam_gap_closed_form == pytest.approx(
        0.5 * l2_norm(divergence(state.v)), rel=1e-12
    )


def _shifted_grid_gaps(state, w, cells):
    """The two frame gaps with the moving frame's samples rolled by whole cells and back.

    This is the frame change done literally: the moving frame's samples
    sit ``cells`` = w t / h cells downstream.  The stencils are
    translation-invariant, so the rolls change no bit.
    """
    g = state.grid

    def roll(f, sign):
        return VectorField(g, np.roll(f.values, tuple(sign * c for c in cells), axis=(-2, -1)))

    v = state.v
    dv_dt = unpack_state(temam_rhs(pack_state(state), 0.0, TEMAM, g.spacing), g).v
    v_there = roll(v, 1) + VectorField.constant(g, *w)
    inertial_there = roll(dv_dt - directional_derivative(w, v), 1) + convection(v_there)
    standard = l2_norm(roll(inertial_there, -1) - (dv_dt + convection(v)))
    temam = l2_norm(roll(temam_extra_force(v_there), -1) - temam_extra_force(v))
    return standard, temam


def test_invariance_report_equals_the_shifted_grid_comparison_bitwise():
    # at a time that moves the frame by whole cells, (4, 2) here
    g = make_grid(32)
    w = (1.0, 0.5)
    state = replace(random_smooth_state(g, seed=3, modes=4, amplitude=0.5), time=4.0 * g.spacing)
    rep = galilean_invariance_report(state, w, TEMAM)
    assert (rep.standard_gap, rep.temam_gap) == _shifted_grid_gaps(state, w, (4, 2))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 32), seed=st.integers(0, 2**32 - 1),
       amplitude=st.floats(0.1, 10.0), w=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
       time=st.floats(0.0, 100.0))
def test_invariance_report_holds_for_any_state_boost_and_time(n, seed, amplitude, w, time):
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    v = VectorField(g, amplitude * rng.standard_normal((2, n, n)))  # not solenoidal
    state = State(v, ScalarField(g, rng.standard_normal((n, n))), time)
    rep = galilean_invariance_report(state, w, TEMAM)

    v_moving = v + VectorField.constant(g, *w)
    inertial_scale = (l2_norm(convection(v_moving)) + l2_norm(convection(v))
                      + l2_norm(directional_derivative(w, v)))
    assert rep.standard_gap <= 1e-13 * inertial_scale
    force_scale = l2_norm(temam_extra_force(v_moving)) + l2_norm(temam_extra_force(v))
    assert abs(rep.temam_gap - rep.temam_gap_closed_form) <= 1e-13 * force_scale
    # no shift, no interpolation: the state's time plays no part
    assert astuple(galilean_invariance_report(replace(state, time=0.0), w, TEMAM)) == astuple(rep)


def test_invariance_report_requires_temam_model():
    state = _taylor_green_with_pulse(make_grid(16))
    with pytest.raises(ValueError):
        galilean_invariance_report(state, (1.0, 0.0), ModelConfig(model="incompressible", re=100.0))


# -- interpolation ----------------------------------------------------------------


def _interp(values, px, py, g):
    """Catmull-Rom samples of one field at 1-D position arrays px, py."""
    return _gather(_interp_taps(px, py, g), values)[0]


def test_interpolation_reproduces_node_values():
    g = make_grid(16)
    rng = np.random.default_rng(0)
    values = rng.standard_normal((16, 16))
    X, Y = g.mesh()
    out = _interp(values, X.ravel(), Y.ravel(), g)
    np.testing.assert_allclose(out, values.ravel(), atol=1e-12)


def test_interpolation_is_third_order():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.0, 2.0 * np.pi, size=(200, 2))
    exact = np.sin(pts[:, 0]) * np.cos(pts[:, 1])

    def err(n: int) -> float:
        g = make_grid(n)
        X, Y = g.mesh()
        values = np.sin(X) * np.cos(Y)
        return float(np.abs(_interp(values, pts[:, 0], pts[:, 1], g) - exact).max())

    e16, e32 = err(16), err(32)
    assert e32 < 2e-3
    assert e16 / e32 > 5.0


def test_interpolation_wraps_periodically():
    g = make_grid(16)
    X, Y = g.mesh()
    values = np.sin(X) * np.cos(Y)
    inside = _interp(values, np.array([0.1]), np.array([0.2]), g)
    shifted = _interp(
        values, np.array([0.1 + 2.0 * np.pi]), np.array([0.2 - 2.0 * np.pi]), g
    )
    np.testing.assert_allclose(shifted, inside, atol=1e-12)


# The 16-tap loop that the shared taps replaced; the gather must
# reproduce it bit for bit.


def _loop_interp(values, px, py, grid):
    def cubic(f):
        f2 = f * f
        f3 = f2 * f
        return (
            0.5 * (-f3 + 2.0 * f2 - f),
            0.5 * (3.0 * f3 - 5.0 * f2 + 2.0),
            0.5 * (-3.0 * f3 + 4.0 * f2 + f),
            0.5 * (f3 - f2),
        )

    h = grid.spacing
    n = grid.n
    ux = px / h - 0.5
    uy = py / h - 0.5
    ix = np.floor(ux).astype(int)
    iy = np.floor(uy).astype(int)
    wx = cubic(ux - ix)
    wy = cubic(uy - iy)
    out = np.zeros_like(ux, dtype=np.float64)
    for a in range(4):
        rows = np.mod(ix - 1 + a, n)
        for b in range(4):
            cols = np.mod(iy - 1 + b, n)
            out += wx[a] * wy[b] * values[rows, cols]
    return out


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 40),
    m=st.integers(1, 300),
    channels=st.integers(1, 6),
    scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e150]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=8, m=1, channels=3, scale=1.0, seed=1)  # the one-particle loop
@example(n=8, m=2, channels=3, scale=1.0, seed=2)  # the smallest single reduction
def test_tap_gather_equals_the_16_tap_loop_bitwise(n, m, channels, scale, seed):
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    free = rng.uniform(-3.0 * TWO_PI, 3.0 * TWO_PI, (2, m))
    edges = rng.integers(-3 * n, 3 * n, (2, m)) * g.spacing
    # per coordinate: anywhere, on a node, or on a cell edge, in any period
    kind = rng.integers(0, 3, (2, m))
    px, py = np.where(kind == 0, free, np.where(kind == 1, edges + 0.5 * g.spacing, edges))
    fields = scale * rng.standard_normal((channels, n, n))
    gathered = _gather(_interp_taps(px, py, g), *fields)
    assert len(gathered) == channels
    for values, out in zip(fields, gathered):
        assert out.tobytes() == _loop_interp(values, px, py, g).tobytes()


# -- particle transport -------------------------------------------------------------


def test_particle_set_uniform_lattice():
    ps = ParticleSet.uniform(nx=8, ny=8, origin=(1.0, 1.0), extent=(2.0, 1.0))
    assert ps.positions.shape == (64, 2)
    assert ps.positions[:, 0].min() > 1.0 and ps.positions[:, 0].max() < 3.0
    assert ps.positions[:, 1].min() > 1.0 and ps.positions[:, 1].max() < 2.0
    assert ps.weights.sum() == pytest.approx(2.0)  # the rectangle area
    assert ParticleSet.uniform(nx=4, ny=4).weights.sum() == pytest.approx(4.0 * np.pi**2)


def test_particle_set_validation():
    with pytest.raises(ValueError):
        ParticleSet(np.zeros((4, 3)), np.ones(4))
    with pytest.raises(ValueError):
        ParticleSet(np.zeros((4, 2)), np.ones(3))


@pytest.mark.parametrize("name", ["positions", "weights"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_particle_set_rejects_non_finite_values(name, bad):
    arrays = {"positions": np.ones((4, 2)), "weights": np.ones(4)}
    arrays[name][-1] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ParticleSet(**arrays)


def _rigid_translation_trajectory(grid, speed, dt, samples):
    v = VectorField.constant(grid, speed, 0.0)
    p = ScalarField.zeros(grid)
    return [State(v, p, time=k * dt) for k in range(samples)]


def _at_unit_density(states):
    ones = ScalarField.constant(states[0].grid, 1.0)
    return zip(states, [ones] * len(states))


def test_transport_identity_is_exact_for_rigid_translation():
    # constant velocity: no divergence, no acceleration, every region
    # integral is conserved, so both sides of the identity vanish
    g = make_grid(16)
    traj = _rigid_translation_trajectory(g, speed=0.8, dt=0.01, samples=5)
    ps = ParticleSet.uniform(nx=4, ny=4, origin=(1.0, 1.0), extent=(1.0, 1.0))
    rep = transport_check(_at_unit_density(traj), ps)
    assert len(rep.times) == 1
    assert rep.gap < 1e-13
    assert rep.jacobian_route_gap < 1e-12
    assert not rep.under_resolved


def test_transport_check_flags_under_resolution():
    g = make_grid(16)
    # one RK4 macro step covers 5 * 0.1 = 0.5 > h, too far to trust
    traj = _rigid_translation_trajectory(g, speed=5.0, dt=0.05, samples=5)
    ps = ParticleSet.uniform(nx=4, ny=4)
    rep = transport_check(_at_unit_density(traj), ps)
    assert rep.under_resolved
    assert rep.jacobian_route_gap < 1e-12  # the interpolated unit density, at round-off


def test_transport_check_needs_five_samples():
    g = make_grid(16)
    traj = _rigid_translation_trajectory(g, speed=0.5, dt=0.01, samples=3)
    ps = ParticleSet.uniform(nx=4, ny=4)
    with pytest.raises(ValueError):
        transport_check(_at_unit_density(traj), ps)


def test_transport_check_drops_a_trailing_even_sample():
    g = make_grid(16)
    traj = _rigid_translation_trajectory(g, speed=0.8, dt=0.01, samples=6)
    ps = ParticleSet.uniform(nx=4, ny=4, origin=(1.0, 1.0), extent=(1.0, 1.0))
    rep = transport_check(_at_unit_density(traj), ps)
    # six samples truncate to five: one usable interior evaluation
    assert len(rep.times) == 1


def _pinned_transport_inputs():
    g = make_grid(16)
    _, _, samples = simulate_with_density(
        _taylor_green_with_pulse(g), TEMAM, ForcingSpec.zero(), 0.2, 0.4
    )
    samples = list(samples)
    q = TWO_PI / 4.0
    seeds = ParticleSet.uniform(nx=8, ny=8, origin=(q, q), extent=(2.0 * q, 2.0 * q))
    return samples, seeds


def test_transport_check_report_is_pinned_bitwise():
    samples, seeds = _pinned_transport_inputs()
    assert len(samples) == 14  # the trailing even sample is dropped
    rep = transport_check(samples, seeds)
    hexes = {
        "times": ["0x1.f81f81f81f820p-6", "0x1.f81f81f81f820p-5", "0x1.7a17a17a17a18p-4",
                  "0x1.f81f81f81f820p-4", "0x1.3b13b13b13b14p-3"],
        "lhs": ["-0x1.11fc3b143b32ap+1", "-0x1.64a73d32f082dp+1", "-0x1.9c3d59017a02dp+0",
                "0x1.28cedc05876a2p-1", "0x1.252a1f27cf698p+1"],
        "rhs": ["-0x1.303f0c1d2f73cp+1", "-0x1.8bed95afb220ap+1", "-0x1.c4b3a4f9e59f5p+0",
                "0x1.623e89574a9dep-1", "0x1.4e27b2c487cb2p+1"],
    }
    for name, expected in hexes.items():
        assert [float(x).hex() for x in getattr(rep, name)] == expected
    assert rep.gap.hex() == "0x1.47ec9ce5c30d0p-2"
    assert rep.jacobian_route_gap.hex() == "0x1.fe33e011cc000p-15"
    assert not rep.under_resolved


def test_transport_check_builds_taps_once_per_position_set(monkeypatch):
    samples, seeds = _pinned_transport_inputs()
    built = []
    real = diagnostics._interp_taps

    def counted(px, py, grid):
        built.append(np.size(px))
        return real(px, py, grid)

    monkeypatch.setattr(diagnostics, "_interp_taps", counted)
    transport_check(samples, seeds)
    # 13 usable samples: 7 even samples, and 6 RK4 steps whose first stage reuses one
    assert built == [seeds.positions.shape[0]] * (6 * 3 + 7)


def test_transport_check_errors_hold_for_a_generator():
    g = make_grid(16)
    ps = ParticleSet.uniform(nx=4, ny=4)
    traj = _rigid_translation_trajectory(g, speed=0.5, dt=0.01, samples=4)
    with pytest.raises(ValueError, match="five samples"):
        transport_check(iter(_at_unit_density(traj)), ps)
    v, p = traj[0].v, traj[0].p
    uneven = [State(v, p, time=t) for t in (0.0, 0.01, 0.02, 0.03, 0.05)]
    with pytest.raises(ValueError, match="uniformly spaced"):
        transport_check(_at_unit_density(uneven), ps)


def _report_bits(rep) -> tuple:
    arrays = tuple(getattr(rep, f).tobytes() for f in ("times", "lhs", "rhs"))
    return arrays + (rep.gap, rep.jacobian_route_gap, rep.under_resolved)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(6, 12), count=st.integers(5, 10), seed=st.integers(0, 2**16))
def test_audits_of_a_one_shot_generator_equal_those_of_a_list_bitwise(n, count, seed):
    g = make_grid(n)
    state0 = random_smooth_state(g, seed=seed, modes=2, amplitude=0.3)
    dt = 0.5 * stable_dt(state0, TEMAM)

    def run():  # a fresh one-shot generator of the same deterministic run
        return simulate_with_density(state0, TEMAM, ForcingSpec.zero(), (count - 1) * dt,
                                     0.4, dt=dt)[2]

    samples = list(run())
    assert len(samples) == count  # odd and even counts; an even one drops its last sample
    states = [s for s, _ in samples]
    forcing = trig(g, 0.3)
    rows = [astuple(r) for r in energy_audit(states, forcing, TEMAM)]
    _, _, marched = march(state0, TEMAM, ForcingSpec.zero(), (count - 1) * dt, dt=dt)
    streamed = [astuple(r) for r in energy_audit(marched, forcing, TEMAM)]
    assert [[x.hex() for x in r] for r in rows] == [[x.hex() for x in r] for r in streamed]
    q = TWO_PI / 4.0
    seeds = ParticleSet.uniform(nx=4, ny=4, origin=(q, q), extent=(2.0 * q, 2.0 * q))
    listed = transport_check(samples, seeds)
    assert len(listed.times) == (count - 1) // 2 - 1
    assert _report_bits(listed) == _report_bits(transport_check(run(), seeds))


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_audit_runs_hold_no_trajectory(tmp_path):
    """Doubling the run leaves the traced peak within two states (numpy buffers are traced)."""
    n, t_final = 32, 0.15
    state_bytes = 3 * n * n * 8
    ic = InitialConditionSpec(kind="random_smooth", seed=1, modes=3, amplitude=0.3)

    def free_run(t):
        cfg = ExperimentConfig(experiment="free_run", n=n, t_final=t, model=TEMAM,
                               initial_condition=ic)
        return lambda: run_free_run(cfg, out_dir=tmp_path / f"free_{t}", quiet=True)

    def transport(t):
        cfg = ExperimentConfig(experiment="transport_check", n=n, t_final=t, model=TEMAM,
                               initial_condition=ic, particles=8)
        return lambda: run_transport_check(cfg, out_dir=tmp_path / f"transport_{t}", quiet=True)

    for make in (free_run, transport):
        make(t_final)()  # warm caches and imports
        short, long = _traced_peak(make(t_final)), _traced_peak(make(2.0 * t_final))
        assert long - short < 2 * state_bytes, (make.__name__, short, long)
