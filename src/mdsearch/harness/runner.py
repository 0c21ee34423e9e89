"""Experiment orchestration: instance streams, metrics, and persistence.

Seeds are derived per instance index from the master seed, independently of
the search configuration, so runs that differ only in search settings see
identical instances and identical base randomness (paired arms). Result
files are JSON lines: one header object, then one record per sample; wall
times stay out of the files so identical configurations produce identical
bytes.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ..constraints import sat, sudoku
from ..constraints.sat import random_formula
from ..constraints.sudoku import random_puzzle
from ..errors import ConfigError, ContractError, check_count
from ..diffusion import linear_schedule
from ..search import aggregate_violation, resolve_weights, sample
from ..tasks import Instance, build_denoiser, peptide_instance, sat_instance, sudoku_instance
from .configio import RunConfig, search_config

RESULT_FORMAT = "mdsearch-results"
_GEN_DOMAIN = 101
_SAMPLE_DOMAIN = 202


def _rng(seed: int, domain: int, index: int) -> np.random.Generator:
    words = [check_count(seed, "seed"), domain, check_count(index, "index")]
    return np.random.default_rng(np.random.SeedSequence(words))


def instance_rng(seed: int, index: int) -> np.random.Generator:
    return _rng(seed, _GEN_DOMAIN, index)


def sample_rng(seed: int, index: int) -> np.random.Generator:
    return _rng(seed, _SAMPLE_DOMAIN, index)


def presets() -> dict[str, RunConfig]:
    """Desk-scale defaults per task."""
    return {
        "sat": RunConfig(task="sat", steps=20, candidates=32, rounds=16,
                         epsilon=0.5, denoiser="noisy", num_samples=200,
                         sat_vars=7, sat_clauses=45),
        "sudoku": RunConfig(task="sudoku", steps=10, candidates=32, rounds=16,
                            epsilon=0.6, denoiser="noisy", num_samples=200,
                            sudoku_box=2, sudoku_blanks=8),
        "peptide": RunConfig(task="peptide", steps=16, candidates=32, rounds=32,
                             epsilon=0.0, denoiser="uniform", num_samples=500,
                             peptide_slots=50),
    }


def build_instance(cfg: RunConfig, index: int) -> Instance:
    """Generate the ``index``-th instance for a config (ignores placement)."""
    rng = instance_rng(cfg.seed, index)
    if cfg.task == "sat":
        formula = random_formula(cfg.sat_vars, cfg.sat_clauses, rng)
        return sat_instance(formula, name=f"sat-{cfg.seed}-{index:04d}")
    if cfg.task == "sudoku":
        board = random_puzzle(cfg.sudoku_box, cfg.sudoku_blanks, rng)
        return sudoku_instance(board, name=f"sudoku-{cfg.seed}-{index:04d}")
    return peptide_instance(slots=cfg.peptide_slots,
                            name=f"peptide-{cfg.seed}-{index:04d}")


def load_instances(cfg: RunConfig) -> list[Instance]:
    """Instances from ``cfg.instances``: a DIMACS file/directory or a
    Sudoku lines file, capped at ``num_samples``."""
    path = Path(cfg.instances)
    if cfg.task == "sat":
        if path.is_dir():
            files = sorted(path.glob("*.cnf"))
            if not files:
                raise ConfigError(f"no .cnf files under {path}")
        else:
            files = [path]
        out = [sat_instance(sat.load_dimacs(f), name=f.stem) for f in files]
    elif cfg.task == "sudoku":
        boards = sudoku.read_puzzles(path)
        out = [sudoku_instance(b, name=f"{path.stem}-{i:04d}")
               for i, b in enumerate(boards)]
    else:
        raise ConfigError("peptide generation is unconditional; drop --instances")
    return out[:cfg.num_samples]


@dataclass(frozen=True)
class SampleRecord:
    index: int
    instance: str
    feasible: bool
    violations: tuple[float, ...]
    total: float
    rounds: int
    value: str
    error: str | None = None


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    constraint_names: tuple[str, ...]
    records: tuple[SampleRecord, ...]
    wall_time: float


def run_experiment(cfg: RunConfig) -> RunResult:
    """Run every sample of a config; write result files when ``out`` is set.

    Weights that do not match the task's constraints fail the run before
    its first sample; other per-sample errors are recorded (with zeroed
    metrics) rather than aborting the whole run.
    """
    schedule = linear_schedule(cfg.steps)
    scfg = search_config(cfg)
    instances = load_instances(cfg) if cfg.instances else [
        build_instance(cfg, i) for i in range(cfg.num_samples)]
    if instances:
        try:
            resolve_weights(cfg.weights, instances[0].constraints)
        except ContractError as exc:
            raise ConfigError(f"weights: {exc}") from None
    names: tuple[str, ...] = ()
    records = []
    run_start = time.perf_counter()
    for i, instance in enumerate(instances):
        if not names:
            names = tuple(c.name for c in instance.constraints)
        try:
            denoiser = build_denoiser(instance, cfg.denoiser, cfg.epsilon)
            final, trace = sample(instance, denoiser, schedule, scfg,
                                  sample_rng(cfg.seed, i))
            report = aggregate_violation(final, instance.constraints, cfg.weights)
            records.append(SampleRecord(
                index=i,
                instance=instance.name,
                feasible=report.feasible,
                violations=report.values,
                total=report.total,
                rounds=sum(r.rounds for r in trace),
                value=instance.render(final),
            ))
        except Exception as exc:
            records.append(SampleRecord(
                index=i, instance=instance.name, feasible=False,
                violations=(), total=float("inf"), rounds=0, value="",
                error=str(exc)))
    result = RunResult(cfg, names, tuple(records),
                       time.perf_counter() - run_start)
    if cfg.out:
        write_results(result, cfg.out)
        write_summary_csv(render_summary_csv([result]),
                          Path(cfg.out).with_suffix(".summary.csv"))
    return result


def _record_payload(record: SampleRecord) -> dict:
    payload = asdict(record)
    payload["violations"] = list(record.violations)
    return payload


def write_results(result: RunResult, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    config_payload = asdict(result.config)
    config_payload["out"] = None  # the file's location is not part of its content
    header = {
        "format": RESULT_FORMAT,
        "version": 1,
        "task": result.config.task,
        "constraints": list(result.constraint_names),
        "config": config_payload,
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for record in result.records:
            handle.write(json.dumps(_record_payload(record), sort_keys=True) + "\n")


def load_results(path) -> RunResult:
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty result file")
    try:
        header, *rows = [json.loads(line) for line in lines]
    except json.JSONDecodeError:
        header = None
    if not isinstance(header, dict) or header.get("format") != RESULT_FORMAT:
        raise ConfigError(f"{path}: not a result file")
    raw_cfg = header.get("config")
    if not isinstance(raw_cfg, dict):
        raise ConfigError(f"{path}: malformed header: config is {raw_cfg!r}")
    raw_cfg.pop("schedule", None)  # older headers carry it; it only held "linear"
    try:
        if raw_cfg.get("weights") is not None:
            raw_cfg["weights"] = tuple(raw_cfg["weights"])
        config = RunConfig(**raw_cfg)
        constraint_names = tuple(header["constraints"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: malformed header: {exc!r}") from None
    records = []
    for number, row in enumerate(rows, start=1):
        try:
            records.append(SampleRecord(**{**row, "violations": tuple(row["violations"])}))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: malformed record {number}: {exc!r}") from None
    return RunResult(config, constraint_names, tuple(records), 0.0)


def summarize_records(result: RunResult) -> dict:
    """Aggregate metrics recomputable from the raw records alone."""
    records = result.records
    n = len(records)
    feasible = sum(1 for r in records if r.feasible)
    finite = [r for r in records if r.error is None]
    summary = {
        "task": result.config.task,
        "label": f"{result.config.placement} M={result.config.candidates} "
                 f"T={result.config.steps} eps={result.config.epsilon} "
                 f"den={result.config.denoiser}",
        "samples": n,
        "feasible": feasible,
        "feasibility": feasible / n if n else 0.0,
        "mean_violation": (sum(r.total for r in finite) / len(finite)
                           if finite else 0.0),
        "mean_rounds": (sum(r.rounds for r in finite) / len(finite)
                        if finite else 0.0),
        "errors": n - len(finite),
    }
    for k, name in enumerate(result.constraint_names):
        summary[f"ok_{name}"] = sum(
            1 for r in finite if len(r.violations) > k and r.violations[k] == 0)
    return summary


def render_summary_csv(results: list[RunResult]) -> str:
    """One CSV row per run, plus a feasibility delta against the first row."""
    if not results:
        raise ConfigError("nothing to summarize")
    tasks = {r.config.task for r in results}
    if len(tasks) != 1:
        raise ConfigError(f"cannot summarize mixed tasks {sorted(tasks)}")
    summaries = [summarize_records(r) for r in results]
    base = summaries[0]["feasibility"]
    columns = list(summaries[0].keys()) + ["delta_feasibility", "wall_s"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for summary, result in zip(summaries, results):
        summary = dict(summary)
        summary["delta_feasibility"] = summary["feasibility"] - base
        summary["wall_s"] = round(result.wall_time, 3)
        writer.writerow([_csv_cell(summary[c]) for c in columns])
    return out.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_summary_csv(text: str, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def paired_feasibility(a: RunResult, b: RunResult) -> np.ndarray:
    """Per-instance feasibility differences ``b - a`` for paired runs."""
    if len(a.records) != len(b.records):
        raise ConfigError("paired runs must have equal sample counts")
    return np.array([int(rb.feasible) - int(ra.feasible)
                     for ra, rb in zip(a.records, b.records)], dtype=np.float64)


def ablate(base: RunConfig, placements=None, candidate_counts=None,
           step_counts=None, epsilons=None, out_dir=None) -> list[RunResult]:
    """Sweep the requested axes as a cross product of paired runs.

    Every arm is built, and so checked, before the first one runs.
    """
    arms = []
    for placement, count, steps, eps in itertools.product(
            placements or [base.placement], candidate_counts or [base.candidates],
            step_counts or [base.steps], epsilons or [base.epsilon]):
        out = None
        if out_dir is not None:
            stem = f"{base.task}-{placement}-M{count}-T{steps}-eps{eps}"
            out = str(Path(out_dir) / f"{stem.replace('.', 'p')}.jsonl")
        arms.append(replace(base, placement=placement, candidates=count,
                            steps=steps, epsilon=eps, out=out))
    return [run_experiment(arm) for arm in arms]
