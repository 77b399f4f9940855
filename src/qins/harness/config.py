"""Experiment configuration: strict JSON parsing into frozen dataclasses.

Unknown keys are rejected everywhere.  A silently ignored typo in a
sweep config wastes an afternoon, so misspellings fail loudly with the
offending key names in the message.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from pathlib import Path

from ..models import ModelConfig

EXPERIMENTS = (
    "taylor_green",
    "k_sweep",
    "energy_audit",
    "galilean",
    "transport_check",
    "free_run",
)

IC_KINDS = (
    "taylor_green",
    "compressive_pulse",
    "taylor_green_pulse",
    "random_smooth",
    "from_snapshot",
)


class ConfigError(ValueError):
    """Malformed experiment configuration."""


def _require_ints(spec, *names: str) -> None:
    """TypeError unless each field is an integer; the JSON readers turn it into ConfigError."""
    for name in names:
        value = getattr(spec, name)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class InitialConditionSpec:
    """Which initial state to build, with the knobs each kind accepts."""

    kind: str = "taylor_green"
    amplitude: float = 0.1
    seed: int = 0
    modes: int = 2
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in IC_KINDS:
            raise ConfigError(
                f"unknown initial condition {self.kind!r}, expected one of {IC_KINDS}"
            )
        if self.kind == "from_snapshot" and not self.path:
            raise ConfigError("from_snapshot needs a 'path'")
        _require_ints(self, "seed", "modes")
        if self.modes < 1:
            raise ConfigError(f"modes must be >= 1, got {self.modes}")
        if not math.isfinite(self.amplitude):
            raise ConfigError(f"amplitude must be finite, got {self.amplitude}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: which driver to run and every parameter it needs."""

    experiment: str
    n: int = 64
    t_final: float = 1.0
    cfl: float = 0.4
    out_dir: str | None = None
    model: ModelConfig = field(
        default_factory=lambda: ModelConfig(model="temam", re=100.0, k=100.0)
    )
    k_list: tuple[float, ...] = (1e2, 1e3, 1e4, 1e5)
    initial_condition: InitialConditionSpec = field(default_factory=InitialConditionSpec)
    snapshot_every: int = 0
    boost_w: tuple[float, float] = (1.0, 0.0)
    particles: int = 32

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}, expected one of {EXPERIMENTS}"
            )
        _require_ints(self, "n", "snapshot_every", "particles")
        if self.n < 4:
            raise ConfigError(f"n must be >= 4, got {self.n}")
        if not 0.0 < self.t_final < math.inf:
            raise ConfigError(f"t_final must be positive and finite, got {self.t_final}")
        if not 0.0 < self.cfl < math.inf:
            raise ConfigError(f"cfl must be positive and finite, got {self.cfl}")
        ks = self.k_list
        if not ks and self.experiment == "k_sweep":
            raise ConfigError("k_list must name at least one k for a k_sweep")
        if any(not 0.0 < k < math.inf for k in ks):
            raise ConfigError("k_list entries must be positive and finite")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ConfigError("k_list must be strictly increasing")
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be >= 0")
        if self.particles < 2:
            raise ConfigError("particles must be >= 2 per side")


def _reject_unknown(raw: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _model_from_dict(raw: dict) -> ModelConfig:
    allowed = {f.name for f in dataclass_fields(ModelConfig)}
    _reject_unknown(raw, allowed, "model")
    try:
        return ModelConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model config: {exc}") from exc


def _ic_from_value(raw) -> InitialConditionSpec:
    if isinstance(raw, str):
        return InitialConditionSpec(kind=raw)
    if not isinstance(raw, dict):
        raise ConfigError("initial_condition must be a string or an object")
    allowed = {f.name for f in dataclass_fields(InitialConditionSpec)}
    _reject_unknown(raw, allowed, "initial_condition")
    try:
        return InitialConditionSpec(**raw)
    except TypeError as exc:  # a value of the wrong type
        raise ConfigError(f"bad initial_condition: {exc}") from exc


def _numbers(raw, key: str, what: str, length: int | None = None) -> tuple[float, ...]:
    """A JSON list of numbers as floats; anything else (a string or a bool included) fails."""
    if not (isinstance(raw, (list, tuple)) and length in (None, len(raw)) and all(
            isinstance(x, numbers.Real) and not isinstance(x, bool) for x in raw)):
        raise ConfigError(f"{key} must be {what}, got {raw!r}")
    return tuple(float(x) for x in raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed JSON, rejecting unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigError("experiment config must be a JSON object")
    allowed = {f.name for f in dataclass_fields(ExperimentConfig)}
    _reject_unknown(raw, allowed, "experiment config")
    kwargs = dict(raw)
    if "model" in kwargs:
        kwargs["model"] = _model_from_dict(kwargs["model"])
    if "initial_condition" in kwargs:
        kwargs["initial_condition"] = _ic_from_value(kwargs["initial_condition"])
    if "k_list" in kwargs:
        kwargs["k_list"] = _numbers(kwargs["k_list"], "k_list", "a list of numbers")
    if "boost_w" in kwargs:
        kwargs["boost_w"] = _numbers(kwargs["boost_w"], "boost_w", "a pair [wx, wy]", 2)
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad experiment config: {exc}") from exc


def config_from_json(path: str | Path) -> ExperimentConfig:
    """Load and validate an experiment config file."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def config_echo(cfg: ExperimentConfig) -> dict:
    """JSON-serializable echo of a config, for manifests."""
    return asdict(cfg)
