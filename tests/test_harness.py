"""Configs, initial states, on-disk formats, experiment drivers, CLI."""

import json

import numpy as np
import pytest

import qins
from qins.diagnostics import EnergyBudgetRow
from qins.fields import integrate, l2_norm, make_grid
from qins.harness.cli import main
from qins.harness.config import (
    ConfigError,
    ExperimentConfig,
    InitialConditionSpec,
    config_echo,
    config_from_dict,
    config_from_json,
)
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
    MANIFEST_NAME,
    read_field_snapshot,
    read_snapshot,
    read_timeseries,
    sha256_file,
    write_field_snapshot,
    write_manifest,
    write_snapshot,
    write_timeseries,
)
from qins.models import ModelConfig, State
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


def test_field_snapshot_round_trip_is_bitwise(tmp_path):
    g = make_grid(16)
    rng = np.random.default_rng(0)
    from qins.fields import ScalarField, VectorField

    s = ScalarField(g, rng.standard_normal((16, 16)))
    write_field_snapshot(s, tmp_path / "phi", "phi", 1.5)
    back, header = read_field_snapshot(tmp_path / "phi")
    np.testing.assert_array_equal(back.values, s.values)
    assert header == {"n": 16, "period": g.period, "kind": "scalar", "time": 1.5, "name": "phi"}

    v = VectorField(g, rng.standard_normal((16, 16)), rng.standard_normal((16, 16)))
    write_field_snapshot(v, tmp_path / "vel", "velocity", 0.0)
    back_v, _ = read_field_snapshot(tmp_path / "vel.bin")  # either file name works
    np.testing.assert_array_equal(back_v.x, v.x)
    np.testing.assert_array_equal(back_v.y, v.y)


def test_field_snapshot_detects_truncation(tmp_path):
    g = make_grid(16)
    from qins.fields import ScalarField

    write_field_snapshot(ScalarField.zeros(g), tmp_path / "phi", "phi", 0.0)
    blob = (tmp_path / "phi.bin").read_bytes()
    (tmp_path / "phi.bin").write_bytes(blob[:-8])
    with pytest.raises(ValueError):
        read_field_snapshot(tmp_path / "phi")


def test_state_snapshot_round_trip_and_time_check(tmp_path):
    g = make_grid(16)
    state = taylor_green_state(g)
    write_snapshot(state, tmp_path / "s")
    back = read_snapshot(tmp_path / "s")
    np.testing.assert_array_equal(back.v.x, state.v.x)
    np.testing.assert_array_equal(back.p.values, state.p.values)
    assert back.time == state.time

    header = json.loads((tmp_path / "s.p.json").read_text())
    header["time"] = 99.0
    (tmp_path / "s.p.json").write_text(json.dumps(header))
    with pytest.raises(ValueError):
        read_snapshot(tmp_path / "s")


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


def test_manifest_checksums_every_file_but_itself(tmp_path):
    (tmp_path / "a.txt").write_text("alpha")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.bin").write_bytes(b"\x00\x01")
    write_manifest(tmp_path, {"experiment": "free_run"}, 1.25)
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    assert manifest["code_version"] == qins.__version__
    assert set(manifest["checksums"]) == {"a.txt", "sub/b.bin"}
    assert manifest["checksums"]["a.txt"] == sha256_file(tmp_path / "a.txt")


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
    assert (out / "snap_000000.v.bin").exists()

    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["config"]["experiment"] == "free_run"
    for rel, digest in manifest["checksums"].items():
        assert sha256_file(out / rel) == digest
    listed = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert listed == set(manifest["checksums"]) | {MANIFEST_NAME}


def test_free_run_is_deterministic(tmp_path):
    cfg = _tiny_free_run_config(snapshot_every=0)
    run_experiment(cfg, out_dir=tmp_path / "one", quiet=True)
    run_experiment(cfg, out_dir=tmp_path / "two", quiet=True)
    one = (tmp_path / "one" / "final.v.bin").read_bytes()
    two = (tmp_path / "two" / "final.v.bin").read_bytes()
    assert one == two
    assert (tmp_path / "one" / "budget.csv").read_bytes() == (
        tmp_path / "two" / "budget.csv"
    ).read_bytes()


def test_density_run_shares_the_trajectory_of_simulate():
    g = make_grid(16)
    state0 = random_smooth_state(g, seed=3, modes=2, amplitude=0.3)
    cfg = ModelConfig(model="temam", re=100.0, k=100.0)
    forcing = qins.ForcingSpec.zero()
    states, densities, dt_used = simulate_with_density(state0, cfg, forcing, 0.05, 0.4)
    _, stored, dt_plain = qins.simulate(state0, cfg, forcing, 0.05, cfl=0.4, store_every=1)
    assert dt_used == dt_plain
    assert len(states) == len(stored) == len(densities)
    for a, b in zip(states, stored):
        assert a.time == b.time
        np.testing.assert_array_equal(a.v.x, b.v.x)
        np.testing.assert_array_equal(a.v.y, b.v.y)
        np.testing.assert_array_equal(a.p.values, b.p.values)


def test_density_run_names_a_blowup():
    state0 = taylor_green_state(make_grid(16))
    cfg = ModelConfig(model="temam", re=100.0, k=100.0)
    with pytest.raises(qins.SimulationBlowupError, match="acoustic bound"):
        simulate_with_density(state0, cfg, qins.ForcingSpec.zero(), 100.0, 0.4, dt=10.0)


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
    assert main(["inspect", str(out / "final")]) == 0
    assert "state at t=" in capsys.readouterr().out
    assert main(["inspect", str(out / "report.json")]) == 0


def test_cli_inspect_catches_tampering(tmp_path):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    report = out / "report.json"
    report.write_text(report.read_text() + " ")
    assert main(["inspect", str(out)]) == 1


def test_cli_sweep_k_reuses_a_config(tmp_path):
    cfg_path = _write_config(tmp_path, k_list=[100.0, 1000.0])
    out = tmp_path / "sweep"
    assert main(["sweep-k", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "k_sweep"


def test_cli_exit_codes(tmp_path):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "free_run", "grid_size": 8}))
    assert main(["run", str(bad)]) == 2
    assert main(["inspect", str(tmp_path / "nothing_here")]) == 1
    assert main(["inspect", str(tmp_path)]) == 1  # directory without a manifest


def test_cli_snapshot_on_the_wrong_grid_is_a_config_error(tmp_path):
    write_snapshot(taylor_green_state(make_grid(8)), tmp_path / "ic")
    ic = {"kind": "from_snapshot", "path": str(tmp_path / "ic")}
    cfg_path = _write_config(tmp_path, initial_condition=ic)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
