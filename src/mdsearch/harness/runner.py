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
from ..constraints.base import ViolationReport
from ..constraints.sat import random_formula
from ..constraints.sudoku import random_puzzle
from ..denoise import Denoiser
from ..errors import ConfigError, ContractError, check_count, read_text
from ..diffusion import linear_schedule
from ..search import SampleTrace, aggregate_violation, resolve_weights, sample
from ..tasks import Instance, build_denoiser, peptide_instance, sat_instance, sudoku_instance
from ..vocab import Vocab
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
    """Instances from ``cfg.instances``: a DIMACS file/directory or a Sudoku
    lines file, capped at ``num_samples``. A path with none is a ConfigError,
    and so (from the readers) is an unreadable one."""
    if cfg.task == "peptide":
        raise ConfigError("peptide generation is unconditional; drop --instances")
    path = Path(cfg.instances)
    if cfg.task == "sat":
        files = sorted(path.glob("*.cnf")) if path.is_dir() else [path]
        out = [sat_instance(sat.load_dimacs(f), name=f.stem) for f in files]
    else:
        out = [sudoku_instance(b, name=f"{path.stem}-{i:04d}")
               for i, b in enumerate(sudoku.read_puzzles(path))]
    if not out:
        raise ConfigError(f"no instances in {path}")
    return out[:cfg.num_samples]


def run_instances(cfg: RunConfig) -> tuple[list[Instance], dict[Vocab, Denoiser]]:
    """The run's instances, loaded or generated, at most ``num_samples``, and
    the denoisers its samples share: a ``table:`` file depends only on the
    alphabet, so it is loaded once per alphabet among the instances (one,
    but for a puzzle file that mixes box sizes). Other denoisers are built
    per sample (:func:`run_sample`), and the map is empty.

    An exact posterior for peptides, a ``table:`` file that does not load,
    and weights that do not fit their constraints are a :class:`ConfigError`.
    """
    if cfg.task == "peptide" and cfg.denoiser in ("exact", "noisy"):
        raise ConfigError(f"the {cfg.denoiser} denoiser needs an enumerable task, "
                          "and peptides have none")
    instances = load_instances(cfg) if cfg.instances else [
        build_instance(cfg, i) for i in range(cfg.num_samples)]
    tables = {}
    if cfg.denoiser.startswith("table:"):
        for instance in instances:
            if instance.vocab not in tables:
                tables[instance.vocab] = build_denoiser(instance, cfg.denoiser)
    if instances:
        try:
            resolve_weights(cfg.weights, instances[0].constraints)
        except ContractError as exc:
            raise ConfigError(f"weights: {exc}") from None
    return instances, tables


def run_sample(cfg: RunConfig, instance: Instance, index: int,
               tables: dict[Vocab, Denoiser]) -> tuple[np.ndarray, SampleTrace, ViolationReport]:
    """Sample ``index`` of a run on ``instance``, with the run's shared denoiser
    for its alphabet from :func:`run_instances`, else one built for it: the
    final sequence, its trace, and its violation report under ``cfg.weights``."""
    denoiser = tables.get(instance.vocab) or build_denoiser(instance, cfg.denoiser,
                                                            cfg.epsilon)
    final, trace = sample(instance, denoiser, linear_schedule(cfg.steps),
                          search_config(cfg), sample_rng(cfg.seed, index))
    return final, trace, aggregate_violation(final, instance.constraints, cfg.weights)


def make_output_directory(*paths) -> None:
    """Make the directory that each output file in ``paths`` goes in. A path
    that names a directory, or whose directory cannot be made, is a
    :class:`ConfigError`: commands check every output here before any work."""
    for path in map(Path, paths):
        if path.is_dir():
            raise ConfigError(f"output {path} is a directory, not a file")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory for {path}: {exc}") from None


def _output_files(cfg: RunConfig) -> tuple[Path, ...]:
    """The files a run of ``cfg`` writes: none, or its results and their summary CSV."""
    return (Path(cfg.out), Path(cfg.out).with_suffix(".summary.csv")) if cfg.out else ()


@dataclass(frozen=True)
class SampleRecord:
    index: int
    instance: str
    feasible: bool
    violations: tuple[float, ...]
    total: float | None  # None when the sample failed
    rounds: int
    value: str
    error: str | None = None


def _number(value) -> bool:
    """A JSON number as :func:`json.loads` reads it, ``Infinity`` included; a bool is not one."""
    return type(value) in (int, float)


# the JSON values each record field takes; a record holding another is malformed
_RECORD_TYPES = {
    "index": lambda v: type(v) is int,
    "instance": lambda v: type(v) is str,
    "feasible": lambda v: type(v) is bool,
    "violations": lambda v: type(v) is list and all(map(_number, v)),
    "total": lambda v: v is None or _number(v),
    "rounds": lambda v: type(v) is int,
    "value": lambda v: type(v) is str,
    "error": lambda v: v is None or type(v) is str,
}


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    constraint_names: tuple[str, ...]
    records: tuple[SampleRecord, ...]
    wall_time: float


def run_experiment(cfg: RunConfig) -> RunResult:
    """Run every sample of a config; write result files when ``out`` is set.

    A bad setting (see :func:`run_instances`), or an output file (results
    or summary) that names a directory or whose directory cannot be made,
    fails the run before its first sample; per-sample errors are recorded
    (total ``None``, other metrics zeroed) rather than aborting the whole run.
    """
    instances, tables = run_instances(cfg)
    make_output_directory(*_output_files(cfg))
    return _run(cfg, instances, tables)


def _run(cfg: RunConfig, instances: list[Instance], tables: dict[Vocab, Denoiser]) -> RunResult:
    """:func:`run_experiment` after its set-up and output checks."""
    names = tuple(c.name for c in instances[0].constraints) if instances else ()
    records = []
    run_start = time.perf_counter()
    for i, instance in enumerate(instances):
        try:
            final, trace, report = run_sample(cfg, instance, i, tables)
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
                violations=(), total=None, rounds=0, value="",
                error=str(exc)))
    result = RunResult(cfg, names, tuple(records),
                       time.perf_counter() - run_start)
    if cfg.out:
        results, summary = _output_files(cfg)
        write_results(result, results)
        write_summary_csv(render_summary_csv([result]), summary)
    return result


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
            handle.write(json.dumps(asdict(record), sort_keys=True) + "\n")


def load_results(path) -> RunResult:
    """The run :func:`write_results` wrote to ``path``. An unreadable file, or a header
    or record that is malformed or holds a field of the wrong type, is a ConfigError."""
    path = Path(path)
    lines = [line for line in read_text(path, "results").splitlines() if line.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty result file")
    try:
        header = json.loads(lines[0])
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
        constraint_names = header["constraints"]
        if not (type(constraint_names) is list and all(type(c) is str for c in constraint_names)):
            raise TypeError(f"constraints is {constraint_names!r}")
    except (KeyError, TypeError, ConfigError) as exc:
        raise ConfigError(f"{path}: malformed header: {exc!r}") from None
    records = []
    for number, line in enumerate(lines[1:], start=1):
        try:
            row = json.loads(line)
            wrong = next((k for k, fits in _RECORD_TYPES.items()
                          if k in row and not fits(row[k])), None)
            if wrong is not None:
                raise TypeError(f"{wrong} is {row[wrong]!r}")
            records.append(SampleRecord(**{**row, "violations": tuple(row["violations"])}))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: malformed record {number}: {exc!r}") from None
    return RunResult(config, tuple(constraint_names), tuple(records), 0.0)


def summarize_records(result: RunResult) -> dict:
    """Aggregate metrics recomputable from the raw records alone.

    ``mean_violation`` and ``mean_rounds`` are means over the samples that
    finished, and None when none did: a run whose samples all failed has
    no mean, not a perfect one. Likewise ``feasibility`` is None for a run
    of no samples.
    """
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
        "feasibility": feasible / n if n else None,
        "mean_violation": (sum(r.total for r in finite) / len(finite)
                           if finite else None),
        "mean_rounds": (sum(r.rounds for r in finite) / len(finite)
                        if finite else None),
        "errors": n - len(finite),
    }
    for k, name in enumerate(result.constraint_names):
        summary[f"ok_{name}"] = sum(
            1 for r in finite if len(r.violations) > k and r.violations[k] == 0)
    return summary


def render_summary_csv(results: list[RunResult]) -> str:
    """One CSV row per run, plus a feasibility delta against the first row;
    a metric with no value (see :func:`summarize_records`) is an empty cell,
    and so is a delta from or to a run with no feasibility."""
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
        summary["delta_feasibility"] = (None if base is None or summary["feasibility"] is None
                                        else summary["feasibility"] - base)
        summary["wall_s"] = round(result.wall_time, 3)
        writer.writerow([_csv_cell(summary[c]) for c in columns])
    return out.getvalue()


def _csv_cell(value) -> str:
    if value is None:
        return ""
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

    Every arm is built, and so checked, before the first one runs. The arms
    share one set-up (:func:`run_instances`), which no swept axis enters;
    then every file the sweep writes is checked. With ``out_dir``, which may
    not be empty, each arm writes its files there and the sweep its
    ``summary.csv``.
    """
    if out_dir == "":
        raise ConfigError("out directory must be a non-empty path or None")
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
    instances, tables = run_instances(base)
    summary = () if out_dir is None else (Path(out_dir) / "summary.csv",)
    make_output_directory(*summary, *(path for arm in arms for path in _output_files(arm)))
    results = [_run(arm, instances, tables) for arm in arms]
    if summary:
        write_summary_csv(render_summary_csv(results), *summary)
    return results
