"""Experiment harness: config files, runner, CLI."""

from ..constraints.sat import random_formula
from ..constraints.sudoku import random_puzzle
from .configio import RunConfig, load_config, parse_config
from .runner import (
    RunResult,
    SampleRecord,
    ablate,
    build_instance,
    instance_rng,
    load_results,
    paired_feasibility,
    presets,
    render_summary_csv,
    run_experiment,
    sample_rng,
    search_config,
    summarize_records,
    write_results,
)

__all__ = [
    "RunConfig",
    "load_config",
    "parse_config",
    "random_formula",
    "random_puzzle",
    "RunResult",
    "SampleRecord",
    "ablate",
    "build_instance",
    "instance_rng",
    "load_results",
    "paired_feasibility",
    "presets",
    "render_summary_csv",
    "run_experiment",
    "sample_rng",
    "search_config",
    "summarize_records",
    "write_results",
]
