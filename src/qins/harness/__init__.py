"""Experiment harness: configs, initial conditions, file formats, drivers, CLI.

The acceptance gate is imported from ``qins.harness.acceptance``; the package
itself does not load it.
"""

from .config import (
    ConfigError,
    ExperimentConfig,
    InitialConditionSpec,
    config_from_dict,
    config_from_json,
)
from .experiments import resolve_out_dir, run_experiment
from .initial_conditions import initial_condition
from .io import (
    read_snapshot,
    read_states,
    read_timeseries,
    write_manifest,
    write_snapshot,
    write_timeseries,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "InitialConditionSpec",
    "config_from_dict",
    "config_from_json",
    "initial_condition",
    "read_snapshot",
    "read_states",
    "read_timeseries",
    "resolve_out_dir",
    "run_experiment",
    "write_manifest",
    "write_snapshot",
    "write_timeseries",
]
