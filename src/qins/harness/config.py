"""Experiment configuration: strict JSON parsing into frozen dataclasses.

One reader, ``_read``, builds every block and rejects unknown keys.  A
silently ignored typo in a sweep config wastes an afternoon, so
misspellings fail loudly with the offending key names in the message.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from pathlib import Path

from ..models import DEFAULT_CFL, ModelConfig

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
    """TypeError unless each field is an integer; the JSON reader turns it into ConfigError."""
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
    cfl: float = DEFAULT_CFL
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
        if len(self.boost_w) != 2 or not all(math.isfinite(w) for w in self.boost_w):
            raise ConfigError(f"boost_w must be a finite pair [wx, wy], got {list(self.boost_w)}")
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be >= 0")
        if self.particles < 2:
            raise ConfigError("particles must be >= 2 per side")


_BLOCKS = {"model": ModelConfig, "initial_condition": InitialConditionSpec}
_TYPES = {"str": str, "str | None": (str, type(None)), "float": numbers.Real,
          "float | None": (numbers.Real, type(None))}  # ints are left to _require_ints


def _read(cls, raw, where: str):
    """A ``cls`` from the JSON object ``raw``; every flaw is a ConfigError naming it.

    The experiment's ``model`` and ``initial_condition`` blocks are read the
    same way, and an initial condition may be just its kind.  A tuple field
    takes a JSON list of numbers, a number or string field one (or null if
    it may be None), and no field is a flag: ``true``/``false`` is refused.
    The constructor's TypeError or ValueError becomes ``bad <where>: ...``.
    """
    if cls is InitialConditionSpec and isinstance(raw, str):
        raw = {"kind": raw}
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    known = {f.name: f for f in dataclass_fields(cls)}
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        if cls is ExperimentConfig and key in _BLOCKS:
            value = _read(_BLOCKS[key], value, key)
        elif isinstance(known[key].default, tuple):
            if not (isinstance(value, (list, tuple)) and all(
                    isinstance(x, numbers.Real) and not isinstance(x, bool) for x in value)):
                raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
            value = tuple(float(x) for x in value)
        elif isinstance(value, bool) or not isinstance(value, _TYPES.get(known[key].type, object)):
            what = "a string" if "str" in known[key].type else "a number"
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed JSON, rejecting unknown keys."""
    return _read(ExperimentConfig, raw, "experiment config")


def config_from_json(path: str | Path) -> ExperimentConfig:
    """Load and validate an experiment config file."""
    if Path(path).is_dir():
        raise ConfigError(f"{path} is a directory, not a config file")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def config_echo(cfg: ExperimentConfig) -> dict:
    """JSON-serializable echo of a config, for manifests."""
    return asdict(cfg)
