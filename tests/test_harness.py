"""Configs, initial states, on-disk formats, experiment drivers, CLI."""

import json
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qins
from qins.diagnostics import EnergyBudgetRow
from qins.fields import ScalarField, VectorField, integrate, l2_norm, make_grid
from qins.harness.cli import main
from qins.harness.config import (
    ConfigError,
    ExperimentConfig,
    InitialConditionSpec,
    config_echo,
    config_from_dict,
    config_from_json,
)
from qins.harness import experiments
from qins.harness.experiments import (
    resolve_out_dir,
    run_experiment,
    run_k_sweep,
    simulate_with_density,
)
from qins.harness.initial_conditions import (
    compressive_pulse_state,
    initial_condition,
    random_smooth_state,
    taylor_green_exact,
    taylor_green_state,
)
from qins.harness.io import (
    BUDGET_COLUMNS,
    MANIFEST_NAME,
    append_state,
    read_snapshot,
    read_states,
    read_timeseries,
    sha256_file,
    write_manifest,
    write_snapshot,
    write_timeseries,
)
from qins.models import ModelConfig, State, pack_state
from qins.operators import divergence


# -- configuration ---------------------------------------------------------------


def test_config_defaults():
    cfg = config_from_dict({"experiment": "free_run"})
    assert cfg.n == 64
    assert cfg.model.model == "temam"
    assert cfg.initial_condition.kind == "taylor_green"


def test_config_rejects_unknown_keys_by_name():
    with pytest.raises(ConfigError, match="grid_size"):
        config_from_dict({"experiment": "free_run", "grid_size": 32})
    with pytest.raises(ConfigError, match="reynolds"):
        config_from_dict({"experiment": "free_run", "model": {"model": "temam", "reynolds": 10}})
    with pytest.raises(ConfigError, match="amp"):
        config_from_dict({"experiment": "free_run", "initial_condition": {"amp": 0.1}})


def test_config_rejects_the_removed_dimensional_keys(tmp_path):
    # pressure_transport and convection are not dimensional, but removed the same way
    for key in ("rho_star", "p_star", "v_char", "l_char", "mu", "pressure_transport",
                "convection"):
        model = {"model": "temam", "re": 100.0, "k": 100.0, key: 1.0}
        with pytest.raises(ConfigError, match=f"unknown key.*{key}"):
            config_from_dict({"experiment": "free_run", "model": model})
        cfg_path = _write_config(tmp_path, model=model)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / key), "--quiet"]) == 2


def test_config_rejects_a_top_level_seed():
    # the seed that matters lives in the initial condition
    with pytest.raises(ConfigError, match="unknown key.*seed"):
        config_from_dict({"experiment": "free_run", "seed": 0})
    cfg = config_from_dict({"experiment": "free_run", "initial_condition": {"seed": 3}})
    assert cfg.initial_condition.seed == 3


def test_config_initial_condition_shorthand():
    cfg = config_from_dict({"experiment": "free_run", "initial_condition": "random_smooth"})
    assert cfg.initial_condition.kind == "random_smooth"
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": "free_run", "initial_condition": "vortex_sheet"})


def test_config_validates_values():
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": "warmup"})
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": "k_sweep", "k_list": [100.0, 100.0]})
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": "free_run", "boost_w": [1.0]})
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": "free_run", "t_final": 0.0})
    with pytest.raises(ConfigError):
        InitialConditionSpec(kind="from_snapshot")


def test_config_integer_fields_take_any_integer_type_and_nothing_else():
    # the Python API sees the type error itself; the JSON readers make it a ConfigError
    cfg = ExperimentConfig(experiment="free_run", n=np.int64(16), particles=np.int32(4),
                           initial_condition=InitialConditionSpec(seed=np.uint8(3)))
    assert (cfg.n, cfg.particles, cfg.initial_condition.seed) == (16, 4, 3)
    for bad in ({"n": 16.0}, {"snapshot_every": True}, {"particles": "32"}):
        with pytest.raises(TypeError, match=f"{next(iter(bad))} must be an integer"):
            ExperimentConfig(experiment="free_run", **bad)
    with pytest.raises(TypeError, match="modes must be an integer"):
        InitialConditionSpec(modes=np.float64(2.0))


def test_config_from_json_and_echo_round_trip(tmp_path):
    raw = {
        "experiment": "k_sweep",
        "n": 32,
        "k_list": [10.0, 100.0],
        "model": {"model": "temam", "re": 50.0, "k": 10.0},
        "initial_condition": {"kind": "compressive_pulse", "amplitude": 0.2},
        "boost_w": [0.0, 1.0],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = config_from_json(path)
    assert cfg.k_list == (10.0, 100.0)
    # the manifest echo parses back to the identical config
    assert config_from_dict(config_echo(cfg)) == cfg

    path.write_text("{not json")
    with pytest.raises(ConfigError):
        config_from_json(path)


# -- initial conditions ------------------------------------------------------------


def test_taylor_green_energy_and_divergence():
    g = make_grid(64)
    state = taylor_green_state(g)
    # frozen value: the vortex kinetic energy is pi^2 on the 2 pi square
    assert 0.5 * integrate(state.v.magnitude_squared()) == pytest.approx(np.pi**2, abs=1e-12)
    assert l2_norm(divergence(state.v)) < 1e-13


def test_taylor_green_exact_decay():
    g = make_grid(32)
    re, t = 100.0, 0.7
    state = taylor_green_exact(g, t, re)
    base = taylor_green_state(g)
    decay = np.exp(-2.0 * t / re)
    np.testing.assert_allclose(state.v.x, decay * base.v.x, rtol=1e-14)
    np.testing.assert_allclose(state.p.values, decay**2 * base.p.values, rtol=1e-13)
    assert state.time == pytest.approx(t)


def test_compressive_pulse_divergence_closed_form():
    g = make_grid(64)
    h = g.spacing
    a = 0.1
    state = compressive_pulse_state(g, a)
    X, Y = g.mesh()
    # central differences turn the analytic -2a sin x sin y into the same
    # shape scaled by sin(h)/h
    expected = -2.0 * a * (np.sin(h) / h) * np.sin(X) * np.sin(Y)
    np.testing.assert_allclose(divergence(state.v).values, expected, atol=1e-14)
    assert l2_norm(divergence(state.v)) == pytest.approx(
        2.0 * a * np.pi * np.sin(h) / h, rel=1e-12
    )


def test_random_smooth_is_seed_deterministic_and_normalized():
    g = make_grid(32)
    a = random_smooth_state(g, seed=7, modes=2, amplitude=0.4)
    b = random_smooth_state(g, seed=7, modes=2, amplitude=0.4)
    c = random_smooth_state(g, seed=8, modes=2, amplitude=0.4)
    np.testing.assert_array_equal(a.v.x, b.v.x)
    assert np.abs(a.v.x - c.v.x).max() > 1e-6
    assert a.v.max_abs() == pytest.approx(0.4, rel=1e-12)


def _random_smooth_loop(grid, seed, modes, amplitude):
    """Reference for random_smooth_state: one pointwise cos/sin pair per mode.

    Draws (a, b) mode by mode in (kx, ky) order, all of vx before vy.  The
    sum is compensated (Kahan), since a plain float64 running sum over the
    2 m (m + 1) terms drifts by about sqrt(terms) eps, which at m = 64 is
    already 2e-14 of the peak.
    """
    rng = np.random.default_rng(seed)
    X, Y = grid.mesh()

    def component():
        out, carry = np.zeros_like(X), np.zeros_like(X)
        for kx in range(0, modes + 1):
            for ky in range(-modes, modes + 1):
                if kx == 0 and ky <= 0:
                    continue
                scale = 1.0 / (1.0 + kx * kx + ky * ky)
                a, b = rng.normal(0.0, scale, size=2)
                phase = kx * X + ky * Y
                term = a * np.cos(phase) + b * np.sin(phase) - carry
                total = out + term
                carry = (total - out) - term
                out = total
        return out

    vx, vy = component(), component()
    peak = max(np.abs(vx).max(), np.abs(vy).max())
    return vx * (amplitude / peak), vy * (amplitude / peak)


@settings(max_examples=8, deadline=None)
@given(
    data=st.data(),
    n=st.integers(4, 64),
    seed=st.integers(0, 2**32),
    amplitude=st.floats(0.01, 10.0),
)
def test_random_smooth_matches_the_pointwise_loop(data, n, seed, amplitude):
    # modes >= n/2 alias on the grid; the separable sum must alias as the loop does
    modes = data.draw(st.integers(1, n), label="modes")
    grid = make_grid(n)
    state = random_smooth_state(grid, seed=seed, modes=modes, amplitude=amplitude)
    vx, vy = _random_smooth_loop(grid, seed, modes, amplitude)
    np.testing.assert_allclose(state.v.x, vx, rtol=0, atol=1e-14 * amplitude)
    np.testing.assert_allclose(state.v.y, vy, rtol=0, atol=1e-14 * amplitude)


def test_taylor_green_pulse_is_the_sum_of_its_parts():
    g = make_grid(32)
    spec = InitialConditionSpec(kind="taylor_green_pulse", amplitude=0.2)
    state = initial_condition(spec, g)
    base = taylor_green_state(g)
    pulse = compressive_pulse_state(g, 0.2)
    np.testing.assert_array_equal(state.v.x, (base.v + pulse.v).x)
    np.testing.assert_array_equal(state.p.values, base.p.values)


def test_from_snapshot_initial_condition(tmp_path):
    g = make_grid(16)
    state = taylor_green_state(g)
    write_snapshot(state, tmp_path / "ic")
    spec = InitialConditionSpec(kind="from_snapshot", path=str(tmp_path / "ic"))
    back = initial_condition(spec, g)
    np.testing.assert_array_equal(back.v.x, state.v.x)
    with pytest.raises(ValueError):
        initial_condition(spec, make_grid(32))


# -- on-disk formats ----------------------------------------------------------------


def test_state_snapshot_detects_truncation(tmp_path):
    write_snapshot(taylor_green_state(make_grid(16)), tmp_path / "s")
    blob = (tmp_path / "s.state").read_bytes()
    (tmp_path / "s.state").write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="block has 767 samples, header promises 768"):
        read_snapshot(tmp_path / "s")


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(4, 32),
    exponent=st.integers(-300, 150),
    time=st.floats(0.0, 1e6),
    seed=st.integers(0, 2**32 - 1),
    transposed=st.booleans(),
)
def test_state_snapshot_round_trip_is_bitwise_on_random_samples(n, exponent, time, seed,
                                                                 transposed):
    g = make_grid(n)
    a = 10.0**exponent * np.random.default_rng(seed).standard_normal((3, n, n))
    if transposed:  # fields over strided views, not C-contiguous
        a = a.transpose(0, 2, 1)
    state = State(VectorField(g, a[:2]), ScalarField(g, a[2]), time)
    with tempfile.TemporaryDirectory() as tmp:
        write_snapshot(state, Path(tmp) / "s")
        back = read_snapshot(Path(tmp) / "s")
    for got, want in zip((back.v.x, back.v.y, back.p.values), a):
        assert got.tobytes() == want.tobytes()
    assert back.time == time


def test_state_snapshot_is_one_header_line_and_one_block(tmp_path):
    g = make_grid(16)
    state = replace(taylor_green_state(g), time=0.25)
    assert write_snapshot(state, tmp_path / "s") == [tmp_path / "s.state"]
    assert [p.name for p in tmp_path.iterdir()] == ["s.state"]
    head, block = (tmp_path / "s.state").read_bytes().split(b"\n", 1)
    assert json.loads(head) == {"n": 16, "period": 2.0 * np.pi, "time": 0.25}
    assert block == pack_state(state).astype("<f8").tobytes()
    back = read_snapshot(tmp_path / "s.state")  # the stem or the file
    np.testing.assert_array_equal(back.v.x, state.v.x)
    np.testing.assert_array_equal(back.p.values, state.p.values)
    assert back.time == state.time

    for garbled in (b"{not json", b"[16]", b'{"n": 16}'):
        (tmp_path / "s.state").write_bytes(garbled + b"\n" + block)
        with pytest.raises(ValueError, match="unreadable snapshot header"):
            read_snapshot(tmp_path / "s")


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 24), records=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_trajectory_round_trip_is_bitwise(n, records, seed):
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-300, 150, (records, 1, 1, 1))
    blocks = rng.standard_normal((records, 3, n, n)) * scales
    times = rng.uniform(0.0, 1e6, records)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.state"
        with path.open("wb") as f:
            for block, time in zip(blocks, times):
                append_state(f, State(VectorField(g, block[:2]), ScalarField(g, block[2]), time))
        back = list(read_states(path))
    assert len(back) == records
    for state, block, time in zip(back, blocks, times):
        assert pack_state(state).tobytes() == block.tobytes()
        assert state.time == time and state.grid == g


def test_trajectory_is_single_state_snapshots_back_to_back(tmp_path):
    g = make_grid(8)
    states = [replace(random_smooth_state(g, s, 2, 0.3), time=0.5 * s) for s in range(3)]
    with (tmp_path / "t.state").open("wb") as f:
        for state in states:
            append_state(f, state)
    singles = [write_snapshot(state, tmp_path / "s")[0].read_bytes() for state in states]
    assert (tmp_path / "t.state").read_bytes() == b"".join(singles)


def test_trajectory_names_a_truncated_last_record(tmp_path):
    g = make_grid(8)
    with (tmp_path / "t.state").open("wb") as f:
        for time in (0.0, 0.1, 0.2):
            append_state(f, replace(taylor_green_state(g), time=time))
    blob = (tmp_path / "t.state").read_bytes()
    (tmp_path / "t.state").write_bytes(blob[:-8])
    records = read_states(tmp_path / "t")
    assert [s.time for s in (next(records), next(records))] == [0.0, 0.1]
    with pytest.raises(ValueError, match="record 2: block has 191 samples, header promises 192"):
        next(records)


def test_read_snapshot_refuses_a_trajectory(tmp_path, capsys):
    g = make_grid(16)
    with (tmp_path / "ic.state").open("wb") as f:
        for time in (0.0, 0.01):
            append_state(f, replace(taylor_green_state(g), time=time))
    with pytest.raises(ValueError, match="several records"):
        read_snapshot(tmp_path / "ic")
    ic = {"kind": "from_snapshot", "path": str(tmp_path / "ic")}
    cfg_path = _write_config(tmp_path, initial_condition=ic)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "several records" in err


def test_timeseries_round_trip_preserves_float64(tmp_path):
    rows = [
        EnergyBudgetRow(1.0 / 3.0, 9.87, 1e-17, 0.25, -0.5, 2.0 / 7.0, -3.3e-12),
        EnergyBudgetRow(2.0 / 3.0, 9.86, 0.0, 0.25, 0.5, 0.0, 4.4e-15),
    ]
    path = write_timeseries(rows, tmp_path / "budget.csv")
    assert read_timeseries(path) == rows

    (tmp_path / "other.csv").write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_timeseries(tmp_path / "other.csv")


def test_manifest_checksums_the_files_it_is_given(tmp_path):
    (tmp_path / "a.txt").write_text("alpha")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.bin").write_bytes(b"\x00\x01")
    (tmp_path / "stale.txt").write_text("left by an earlier run")
    files = [tmp_path / "a.txt", tmp_path / "sub" / "b.bin"]
    write_manifest(tmp_path, {"experiment": "free_run"}, 1.25, files)
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    assert manifest["code_version"] == qins.__version__
    assert set(manifest["checksums"]) == {"a.txt", "sub/b.bin"}
    assert manifest["checksums"]["a.txt"] == sha256_file(tmp_path / "a.txt")
    assert (tmp_path / "stale.txt").exists()


def test_resolve_out_dir_precedence(tmp_path, monkeypatch):
    cfg = ExperimentConfig(experiment="free_run")
    monkeypatch.delenv("QINS_OUT", raising=False)
    assert resolve_out_dir(cfg, tmp_path / "x") == tmp_path / "x"
    assert str(resolve_out_dir(cfg)) == "qins_out/free_run"
    monkeypatch.setenv("QINS_OUT", str(tmp_path / "env_root"))
    assert resolve_out_dir(cfg) == tmp_path / "env_root" / "free_run"
    with_dir = ExperimentConfig(experiment="free_run", out_dir=str(tmp_path / "cfg_dir"))
    assert resolve_out_dir(with_dir) == tmp_path / "cfg_dir"


# -- drivers -------------------------------------------------------------------------


def _tiny_free_run_config(**overrides):
    base = dict(
        experiment="free_run",
        n=16,
        t_final=0.05,
        snapshot_every=2,
        model=ModelConfig(model="temam", re=100.0, k=100.0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_free_run_writes_a_complete_directory(tmp_path):
    cfg = _tiny_free_run_config()
    report = run_experiment(cfg, out_dir=tmp_path / "run", quiet=True)
    out = tmp_path / "run"
    assert report["steps"] >= 2
    assert report["t_final"] == pytest.approx(0.05, abs=1e-12)

    rows = read_timeseries(out / "budget.csv")
    assert len(rows) == report["steps"] - 1
    final = read_snapshot(out / "final")
    assert final.time == pytest.approx(0.05, abs=1e-12)
    # every second state before the last, the last being final.state only
    times = [s.time for s in read_states(out / "trajectory.state")]
    assert times == [i * report["dt"] for i in range(0, report["steps"], 2)]

    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["config"]["experiment"] == "free_run"
    for rel, digest in manifest["checksums"].items():
        assert sha256_file(out / rel) == digest
    listed = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert listed == set(manifest["checksums"]) | {MANIFEST_NAME}


def test_free_run_appends_every_stored_state_to_one_trajectory(tmp_path):
    cfg = _tiny_free_run_config(snapshot_every=1)
    report = run_experiment(cfg, out_dir=tmp_path / "run", quiet=True)
    out = tmp_path / "run"
    assert {p.name for p in out.iterdir()} == {
        "trajectory.state", "final.state", "budget.csv", "report.json", MANIFEST_NAME}
    state0 = initial_condition(cfg.initial_condition, make_grid(cfg.n))
    _, _, states = qins.march(state0, cfg.model, qins.ForcingSpec.zero(), cfg.t_final,
                              dt=qins.stable_dt(state0, cfg.model, cfg.cfl))
    # the trajectory holds each state before the last as its own snapshot would
    singles = b""
    for _, state in zip(range(report["steps"]), states):
        singles += write_snapshot(state, tmp_path / "single")[0].read_bytes()
    assert (out / "trajectory.state").read_bytes() == singles


def test_manifest_of_a_reused_directory_lists_only_this_run(tmp_path):
    cfg = _tiny_free_run_config(snapshot_every=5)
    run_experiment(cfg, out_dir=tmp_path / "fresh", quiet=True)
    run_experiment(replace(cfg, t_final=0.1), out_dir=tmp_path / "reused", quiet=True)
    run_experiment(cfg, out_dir=tmp_path / "reused", quiet=True)
    fresh, reused = (
        json.loads((tmp_path / d / MANIFEST_NAME).read_text())["checksums"]
        for d in ("fresh", "reused")
    )
    assert reused == fresh  # the longer run's trajectory was rewritten, not appended to
    run_experiment(replace(cfg, snapshot_every=0), out_dir=tmp_path / "reused", quiet=True)
    reused = json.loads((tmp_path / "reused" / MANIFEST_NAME).read_text())["checksums"]
    # the earlier run's trajectory stays on disk, uncertified
    assert set(reused) == set(fresh) - {"trajectory.state"}
    assert (tmp_path / "reused" / "trajectory.state").exists()


def test_free_run_is_deterministic(tmp_path):
    cfg = _tiny_free_run_config(snapshot_every=0)
    run_experiment(cfg, out_dir=tmp_path / "one", quiet=True)
    run_experiment(cfg, out_dir=tmp_path / "two", quiet=True)
    one = (tmp_path / "one" / "final.state").read_bytes()
    two = (tmp_path / "two" / "final.state").read_bytes()
    assert one == two
    assert (tmp_path / "one" / "budget.csv").read_bytes() == (
        tmp_path / "two" / "budget.csv"
    ).read_bytes()


def _assert_density_run_shares_the_trajectory_of_simulate(cfg):
    g = make_grid(16)
    state0 = random_smooth_state(g, seed=3, modes=2, amplitude=0.3)
    forcing = qins.ForcingSpec.zero()
    _, dt_used, samples = simulate_with_density(state0, cfg, forcing, 0.05, 0.4)
    states, densities = zip(*samples)
    dt = qins.stable_dt(state0, cfg, 0.4)  # the RK4 step simulate_with_density takes
    _, dt_plain, stored = qins.march(state0, cfg, forcing, 0.05, dt=dt)
    stored = list(stored)
    assert dt_used == dt_plain
    assert len(states) == len(stored) == len(densities)
    for a, b in zip(states, stored):
        assert a.time == b.time
        np.testing.assert_array_equal(a.v.x, b.v.x)
        np.testing.assert_array_equal(a.v.y, b.v.y)
        np.testing.assert_array_equal(a.p.values, b.p.values)


def test_density_run_shares_the_trajectory_of_simulate():
    _assert_density_run_shares_the_trajectory_of_simulate(
        ModelConfig(model="temam", re=100.0, k=100.0))


def test_galilean_alt_density_run_shares_the_trajectory_of_simulate():
    _assert_density_run_shares_the_trajectory_of_simulate(
        ModelConfig(model="temam", re=100.0, k=100.0, extra_force="galilean_alt"))


def test_density_run_names_a_blowup():
    state0 = taylor_green_state(make_grid(16))
    cfg = ModelConfig(model="temam", re=100.0, k=100.0)
    with pytest.raises(qins.SimulationBlowupError, match="acoustic bound"):
        list(simulate_with_density(state0, cfg, qins.ForcingSpec.zero(), 100.0, 0.4, dt=10.0)[2])


def test_k_sweep_report_structure(tmp_path):
    cfg = ExperimentConfig(
        experiment="k_sweep",
        n=16,
        t_final=0.06,
        k_list=(100.0, 1000.0),
        model=ModelConfig(model="temam", re=100.0, k=100.0),
        initial_condition=InitialConditionSpec(kind="taylor_green_pulse", amplitude=0.05),
    )
    report = run_k_sweep(cfg, out_dir=tmp_path, quiet=True)
    assert report["all_completed"]
    assert len(report["members"]) == 2
    prep = report["preparation"]
    assert prep["div_norm_prepared"] < 1e-8 < prep["div_norm_raw"]
    text = (tmp_path / "members.csv").read_text().splitlines()
    assert text[0] == "k,dt,steps,max_div_norm,terminal_velocity_diff"
    assert len(text) == 3


# -- command line ---------------------------------------------------------------------


def _write_config(tmp_path, **extra):
    raw = {"experiment": "free_run", "n": 16, "t_final": 0.05}
    raw.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_cli_run_and_inspect(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    assert (out / MANIFEST_NAME).exists()

    assert main(["inspect", str(out)]) == 0
    assert "checksums verified" in capsys.readouterr().out
    assert main(["inspect", str(out / "budget.csv")]) == 0
    for snapshot in ("final", "final.state"):
        assert main(["inspect", str(out / snapshot)]) == 0
        assert "state at t=" in capsys.readouterr().out
    assert main(["inspect", str(out / "report.json")]) == 0


def test_cli_inspect_summarizes_a_trajectory(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, snapshot_every=2)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    records = (report["steps"] + 1) // 2
    last = (records - 1) * 2 * report["dt"]
    capsys.readouterr()
    assert main(["inspect", str(out / "trajectory.state")]) == 0
    assert capsys.readouterr().out == (
        f"{out / 'trajectory.state'}: trajectory of {records} records, n=16, t in [0, {last:g}]\n")


def test_cli_inspect_catches_tampering(tmp_path):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    report = out / "report.json"
    report.write_text(report.read_text() + " ")
    assert main(["inspect", str(out)]) == 1


def test_cli_has_no_sweep_k_command(tmp_path, capsys):
    # `qins run` is the one way to run a config, a k_sweep one included
    cfg_path = _write_config(tmp_path, k_list=[100.0, 1000.0])
    with pytest.raises(SystemExit) as exc:
        main(["sweep-k", str(cfg_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'sweep-k'" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "free_run", "grid_size": 8}))
    assert main(["run", str(bad)]) == 2
    assert main(["inspect", str(tmp_path / "nothing_here")]) == 1
    assert main(["inspect", str(tmp_path)]) == 1  # directory without a manifest


def test_cli_inspect_reports_a_malformed_table_or_header(tmp_path, capsys):
    table = tmp_path / "bad.csv"
    table.write_text("a,b\n1,2\n")
    write_snapshot(taylor_green_state(make_grid(8)), tmp_path / "snap")
    block = (tmp_path / "snap.state").read_bytes().split(b"\n", 1)[1]
    (tmp_path / "snap.state").write_bytes(b"{not json\n" + block)
    for path in (table, tmp_path / "snap"):
        assert main(["inspect", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read {path}: ") and err.count("\n") == 1


def test_cli_inspect_reports_an_empty_table(tmp_path, capsys):
    (tmp_path / "budget.csv").write_text(",".join(BUDGET_COLUMNS) + "\n")
    (tmp_path / "transport.csv").write_text("")
    (tmp_path / "members.csv").write_text("\n")
    for name in ("budget.csv", "transport.csv", "members.csv"):
        path = tmp_path / name
        assert main(["inspect", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("experiment, extra", [
    ("taylor_green", {}),
    ("k_sweep", {"k_list": [100.0, 1000.0]}),
    ("energy_audit", {}),
    ("galilean", {"k_list": [100.0, 1000.0]}),
    ("transport_check", {"particles": 4}),
    ("free_run", {"snapshot_every": 2}),
])
def test_cli_inspects_every_file_a_driver_writes(tmp_path, experiment, extra):
    cfg_path = _write_config(tmp_path, experiment=experiment, **extra)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    assert main(["inspect", str(out)]) == 0
    listed = json.loads((out / MANIFEST_NAME).read_text())["checksums"]
    for rel in listed:
        assert main(["inspect", str(out / rel)]) == 0, rel
    # a table is known by its header, whatever the file is called
    for rel in filter(lambda rel: rel.endswith(".csv"), listed):
        renamed = tmp_path / "renamed.dat"
        renamed.write_bytes((out / rel).read_bytes())
        assert main(["inspect", str(renamed)]) == 0, rel


def test_a_snapshot_header_promising_more_than_the_file_holds_is_unreadable(tmp_path, capsys):
    # a block of 3 * 1048576^2 samples is never allocated: the bytes left are counted first
    write_snapshot(taylor_green_state(make_grid(16)), tmp_path / "ic")
    block = (tmp_path / "ic.state").read_bytes().split(b"\n", 1)[1]
    header = json.dumps({"n": 1048576, "period": 2.0 * np.pi, "time": 0.0}, sort_keys=True)
    (tmp_path / "ic.state").write_bytes(header.encode() + b"\n" + block)
    assert main(["inspect", str(tmp_path / "ic")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {tmp_path / 'ic'}: record 0: block has 768 samples")
    assert err.count("\n") == 1
    ic = {"kind": "from_snapshot", "path": str(tmp_path / "ic")}
    cfg_path = _write_config(tmp_path, initial_condition=ic)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and "record 0" in err


@pytest.mark.parametrize("key, bad", [("time", float("nan")), ("period", float("inf"))])
def test_a_snapshot_header_with_a_non_finite_time_or_period_is_unreadable(tmp_path, capsys,
                                                                          key, bad):
    write_snapshot(taylor_green_state(make_grid(16)), tmp_path / "ic")
    head, block = (tmp_path / "ic.state").read_bytes().split(b"\n", 1)
    header = {**json.loads(head), key: bad}
    (tmp_path / "ic.state").write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + block)
    assert main(["inspect", str(tmp_path / "ic")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {tmp_path / 'ic'}: record 0: unreadable snapshot header")
    ic = {"kind": "from_snapshot", "path": str(tmp_path / "ic")}
    cfg_path = _write_config(tmp_path, initial_condition=ic)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and "record 0" in err


def test_a_snapshot_header_with_a_period_other_than_2pi_is_unreadable(tmp_path, capsys):
    write_snapshot(taylor_green_state(make_grid(16)), tmp_path / "ic")
    head, block = (tmp_path / "ic.state").read_bytes().split(b"\n", 1)
    header = {**json.loads(head), "period": 1.0}
    (tmp_path / "ic.state").write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + block)
    with pytest.raises(ValueError, match="record 0: unreadable snapshot header"):
        read_snapshot(tmp_path / "ic")
    ic = {"kind": "from_snapshot", "path": str(tmp_path / "ic")}
    cfg_path = _write_config(tmp_path, initial_condition=ic)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and "record 0" in err


def test_cli_snapshot_on_the_wrong_grid_is_a_config_error(tmp_path):
    write_snapshot(taylor_green_state(make_grid(8)), tmp_path / "ic")
    ic = {"kind": "from_snapshot", "path": str(tmp_path / "ic")}
    cfg_path = _write_config(tmp_path, initial_condition=ic)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 2


def test_cli_corrupt_snapshot_is_a_config_error(tmp_path, capsys):
    write_snapshot(taylor_green_state(make_grid(16)), tmp_path / "ic")
    blob = (tmp_path / "ic.state").read_bytes()
    head, block = blob.split(b"\n", 1)
    ic = {"kind": "from_snapshot", "path": str(tmp_path / "ic")}
    cfg_path = _write_config(tmp_path, initial_condition=ic)
    for corrupt in (blob[:-8], b"{not json\n" + block):
        (tmp_path / "ic.state").write_bytes(corrupt)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(tmp_path / "ic") in err


def test_cli_bad_random_smooth_parameters_are_config_errors(tmp_path, capsys):
    for bad in ({"amplitude": float("nan")}, {"seed": -1}):
        ic = {"kind": "random_smooth", **bad}
        cfg_path = _write_config(tmp_path, initial_condition=ic)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert next(iter(bad)) in err


def test_cli_mistyped_config_values_are_config_errors(tmp_path, capsys):
    random_smooth = {"kind": "random_smooth"}
    cases = (
        ("k_list", {"experiment": "k_sweep", "k_list": 5}),
        ("k_list", {"experiment": "k_sweep", "k_list": ["a"]}),
        ("k_list", {"experiment": "k_sweep", "k_list": [True, 1000.0]}),
        ("boost_w", {"experiment": "galilean", "boost_w": ["a", 1]}),
        ("boost_w", {"experiment": "galilean", "boost_w": [float("inf"), 0]}),
        ("boost_w", {"experiment": "galilean", "boost_w": [float("nan"), 0]}),
        ("particles", {"experiment": "transport_check", "particles": 2.5}),
        ("snapshot_every", {"snapshot_every": 2.5}),
        ("n", {"n": 16.0}),
        ("seed", {"initial_condition": {**random_smooth, "seed": 1.5}}),
        ("modes", {"initial_condition": {**random_smooth, "modes": 2.0}}),
    )
    for key, bad in cases:
        cfg_path = _write_config(tmp_path, **bad)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert key in err


@pytest.mark.parametrize("key, bad", (
    ("t_final", {"t_final": float("inf")}),
    ("cfl", {"cfl": float("inf")}),
    ("k", {"model": {"model": "temam", "re": 100.0, "k": float("inf")}}),
))
def test_cli_non_finite_config_values_are_config_errors(tmp_path, capsys, key, bad):
    cfg_path = _write_config(tmp_path, n=8, **bad)  # json writes inf as Infinity
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"{key} must be positive and finite, got inf" in err


def test_cli_run_on_a_directory_or_a_missing_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and str(tmp_path) in err
    missing = tmp_path / "absent.json"
    assert main(["run", str(missing), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("missing file: ") and err.count("\n") == 1 and str(missing) in err


def test_cli_names_a_blowup_whose_samples_are_still_finite(tmp_path, capsys):
    # the velocity jumps to about 1e200 in one step: finite, but its energy overflows
    cfg_path = _write_config(tmp_path, n=8, t_final=500.0)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: RK4 step produced non-finite or overflowing samples at t=")
    assert err.count("\n") == 1
    assert "advective bound" in err and "acoustic bound" in err
    assert not (tmp_path / "out" / MANIFEST_NAME).exists()


@pytest.mark.parametrize("experiment", ["free_run", "energy_audit"])
def test_cli_names_an_overflowing_initial_state(tmp_path, capsys, experiment):
    ic = {"kind": "random_smooth", "amplitude": 1e150}
    cfg_path = _write_config(tmp_path, experiment=experiment, t_final=0.1, initial_condition=ic)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: initial state holds non-finite or overflowing "
                          "samples at t=0 ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out" / MANIFEST_NAME).exists()


def test_cli_config_that_is_not_utf8_text_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(b"\xff\xfe\x00bad")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and str(cfg_path) in err


def test_cli_names_the_blowup_of_an_unstable_free_run(tmp_path, capsys):
    # the budget's cubic term (div v)|v|^2 overflows while the energy is
    # still finite, so the stepper must refuse the state before the audit sees it
    ic = {"kind": "random_smooth", "seed": 2, "modes": 8, "amplitude": 1.0}
    # at cfl 2 the projection default, min(cfl h^2, stable_dt), is too long for Re 1000
    cfg_path = _write_config(tmp_path, n=32, t_final=8.0, cfl=2.0, initial_condition=ic,
                             model={"model": "incompressible", "re": 1000.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: projection step produced non-finite or overflowing "
                          "samples at t=")
    assert err.count("\n") == 1
    assert not (tmp_path / "out" / MANIFEST_NAME).exists()


def test_cli_incompressible_free_run_takes_the_projection_default_step(tmp_path):
    # the same run at the default cfl: min(cfl h^2, stable_dt) holds it to t_final
    ic = {"kind": "random_smooth", "seed": 2, "modes": 8, "amplitude": 1.0}
    cfg_path = _write_config(tmp_path, n=32, t_final=8.0, initial_condition=ic,
                             model={"model": "incompressible", "re": 1000.0})
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["steps"] == 519 and report["t_final"] == 8.0
    assert report["div_norm_final"] < 1e-12
    rows = read_timeseries(tmp_path / "out" / "budget.csv")
    assert all(b.e_kin <= a.e_kin for a, b in zip(rows, rows[1:]))


def test_cli_mistyped_initial_condition_value_is_a_config_error(tmp_path, capsys):
    ic = {"kind": "random_smooth", "modes": "4"}
    cfg_path = _write_config(tmp_path, initial_condition=ic)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad initial_condition: ") and err.count("\n") == 1


def test_cli_energy_audit_without_a_bulk_modulus_falls_back_to_k_100(tmp_path):
    # as the galilean and transport_check drivers do for the same model block
    cfg_path = _write_config(tmp_path, experiment="energy_audit",
                             model={"model": "incompressible", "re": 100.0})
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    assert (out / MANIFEST_NAME).exists()


def test_cli_empty_k_list_is_a_config_error_only_for_a_k_sweep(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, experiment="k_sweep", n=8, t_final=0.01, k_list=[])
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "sweep"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and "k_list" in err
    # a galilean run without alternative-force members still reports its frame gaps
    cfg_path = _write_config(tmp_path, experiment="galilean", n=8, t_final=0.01, k_list=[])
    out = tmp_path / "galilean"
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["alt_force"] == {"members": [], "slope": None}


@pytest.mark.parametrize("experiment, minimum", [("energy_audit", 2), ("transport_check", 4)])
def test_cli_audit_too_short_to_audit_is_a_config_error(tmp_path, capsys, experiment, minimum):
    # one step to t_final: the audits difference their samples in time
    cfg_path = _write_config(tmp_path, experiment=experiment, n=8, t_final=0.001)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {experiment} needs at least {minimum} time steps")
    assert err.count("\n") == 1


def test_cli_free_run_too_short_for_a_budget_skips_it(tmp_path):
    cfg_path = _write_config(tmp_path, n=8, t_final=0.001)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "report.json").read_text())["steps"] == 1
    assert not (out / "budget.csv").exists()


def test_cli_snapshot_at_or_past_t_final_is_a_config_error(tmp_path, capsys):
    state = taylor_green_state(make_grid(16))
    ic = {"kind": "from_snapshot", "path": str(tmp_path / "ic")}
    for time in (0.05, 0.5):  # t_final is 0.05
        write_snapshot(replace(state, time=time), tmp_path / "ic")
        cfg_path = _write_config(tmp_path, initial_condition=ic)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"t={time:g}" in err and "t_final=0.05" in err


def test_cli_k_sweep_starts_at_the_snapshot_time(tmp_path, capsys):
    state = random_smooth_state(make_grid(16), seed=5, modes=2, amplitude=0.3)
    ic = {"kind": "from_snapshot", "path": str(tmp_path / "ic")}
    sweep = {"experiment": "k_sweep", "k_list": [100.0, 1000.0], "initial_condition": ic}
    # a t_final before the snapshot's time is a config error, as for free_run
    write_snapshot(replace(state, time=0.5), tmp_path / "ic")
    cfg_path = _write_config(tmp_path, t_final=0.2, **sweep)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "early"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "t=0.5" in err and "t_final=0.2" in err

    # a later one marches the same span from the snapshot as a run from t = 0 does
    reports = {}
    for time in (0.0, 0.5):
        write_snapshot(replace(state, time=time), tmp_path / "ic")
        cfg_path = _write_config(tmp_path, t_final=time + 0.06, **sweep)
        out = tmp_path / f"from_{time}"
        assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
        reports[time] = json.loads((out / "report.json").read_text())
    zero, later = reports[0.0], reports[0.5]
    assert later["reference"]["steps"] == zero["reference"]["steps"]
    for a, b in zip(zero["members"], later["members"]):
        assert b["steps"] == a["steps"]
        for key in ("dt", "max_div_norm", "terminal_velocity_diff"):
            assert b[key] == pytest.approx(a[key], rel=1e-9)


def test_galilean_runs_start_at_the_snapshot_time(tmp_path, monkeypatch):
    # the gap run and every alt-force member march from the snapshot's time
    calls, simulate = [], experiments.simulate

    def spy(state, cfg, *args, **kwargs):
        calls.append((cfg.extra_force, state.time))
        return simulate(state, cfg, *args, **kwargs)

    monkeypatch.setattr(experiments, "simulate", spy)
    state = random_smooth_state(make_grid(16), seed=5, modes=2, amplitude=0.3)
    write_snapshot(replace(state, time=0.5), tmp_path / "ic")
    cfg = ExperimentConfig(
        experiment="galilean", n=16, t_final=0.6, k_list=(100.0, 1000.0),
        initial_condition=InitialConditionSpec(kind="from_snapshot", path=str(tmp_path / "ic")),
    )
    run_experiment(cfg, out_dir=tmp_path / "out", quiet=True)
    assert calls == [("temam", 0.5), ("galilean_alt", 0.5), ("galilean_alt", 0.5)]


def test_galilean_runs_end_at_t_final(tmp_path):
    # no rounding of the run length to whole cells of the boost displacement
    cfg = ExperimentConfig(experiment="galilean", n=16, t_final=0.6, k_list=())
    run_experiment(cfg, out_dir=tmp_path / "plain", quiet=True)
    assert read_snapshot(tmp_path / "plain" / "boost_source").time == pytest.approx(0.6, abs=1e-12)
    # so a snapshot shortly before t_final is a start like any other
    state = random_smooth_state(make_grid(16), seed=5, modes=2, amplitude=0.3)
    write_snapshot(replace(state, time=0.45), tmp_path / "ic")
    ic = {"kind": "from_snapshot", "path": str(tmp_path / "ic")}
    cfg_path = _write_config(tmp_path, experiment="galilean", t_final=0.5, k_list=[],
                             initial_condition=ic)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "snap"), "--quiet"]) == 0
    assert read_snapshot(tmp_path / "snap" / "boost_source").time == pytest.approx(0.5, abs=1e-12)
