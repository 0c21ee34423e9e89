"""Workload definitions: seeded inputs, set-up, and the timed sampling pass.

A workload is a list of streams (one ``RunConfig`` each, with the workload
seed) and a list of jobs. A job names a stream, an instance of that stream
and a sample index; instance ``i`` is ``build_instance(cfg, i)`` and sample
``j`` draws from ``sample_rng(cfg.seed, j)``, exactly as ``run_experiment``
does, so a job with ``instance == sample`` reproduces record ``i`` of
``run_experiment`` bit for bit.

The number of jobs is fixed by ``--seconds`` times a nominal rate per
workload (measured on a 2-core Xeon at the commit that defined the
benchmark), split over ``PASSES`` passes. The parent and a change therefore
do identical work, and the quality metrics are fixed for a given seed and
run length.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from mdsearch import search, tasks
from mdsearch.diffusion import linear_schedule
from mdsearch.harness import runner
from mdsearch.harness.configio import RunConfig


class Job(NamedTuple):
    stream: int
    instance: int
    sample: int


@dataclass(frozen=True)
class Workload:
    name: str
    streams: tuple[RunConfig, ...]
    instances: tuple[int, ...]  # instances built per stream
    jobs: tuple[Job, ...]
    # violation_score is this plus the mean violation. The floor keeps the
    # score above 0 and damps the seed-to-seed noise of rare violations.
    violation_floor: float

    def params(self) -> dict:
        """Input parameters, recorded beside every result."""
        keep = ("task", "steps", "candidates", "rounds", "placement", "epsilon",
                "denoiser", "seed", "sat_vars", "sat_clauses", "sudoku_box",
                "sudoku_blanks", "peptide_slots")
        streams = []
        for cfg, count in zip(self.streams, self.instances):
            fields = {k: v for k, v in asdict(cfg).items() if k in keep}
            fields["instances"] = count
            streams.append(fields)
        return {"workload": self.name, "jobs": len(self.jobs),
                "violation_floor": self.violation_floor, "streams": streams}


# Nominal samples per second, used only to turn --seconds into a job count.
PRESETS_RATE = 40.0
SUDOKU9_RATE = 5.0
SAT20_RATE = 100.0
SAT20_FORMULAS = 4
PASSES = 2  # every job runs once per pass


def presets(seed: int, seconds: float) -> Workload:
    """The three ``mdsearch bench`` presets, interleaved round-robin."""
    per_task = max(1, round(seconds * PRESETS_RATE / PASSES / 3))
    base = runner.presets()
    streams = tuple(replace(base[task], seed=seed)
                    for task in ("sat", "sudoku", "peptide"))
    jobs = tuple(Job(s, i, i) for i in range(per_task) for s in range(3))
    # 0.5, not more: a pool of one draw (M=1) must still raise the score
    # past its bound (by about 35%).
    return Workload("presets", streams, (per_task,) * 3, jobs, 0.5)


def sudoku9_refine(seed: int, seconds: float) -> Workload:
    """9x9 Sudoku with 40 blanks: refinement does most of the work."""
    count = max(1, round(seconds * SUDOKU9_RATE / PASSES))
    cfg = replace(runner.presets()["sudoku"], seed=seed,
                  sudoku_box=3, sudoku_blanks=40)
    return Workload("sudoku9-refine", (cfg,), (count,),
                    tuple(Job(0, i, i) for i in range(count)), 0.5)


def sat20_chains(seed: int, seconds: float) -> Workload:
    """Many unguided chains per 20-variable formula (search off)."""
    chains = max(SAT20_FORMULAS, round(seconds * SAT20_RATE / PASSES))
    cfg = RunConfig(task="sat", steps=64, candidates=32, rounds=16,
                    placement="off", denoiser="exact", seed=seed,
                    sat_vars=20, sat_clauses=70)
    jobs = tuple(Job(0, c % SAT20_FORMULAS, c) for c in range(chains))
    # A few chains with many violations dominate the mean here: at a floor
    # of 0.5 the score spread 0.175 across ten seeds.
    return Workload("sat20-chains", (cfg,), (SAT20_FORMULAS,), jobs, 1.0)


WORKLOADS = {
    "presets": presets,
    "sudoku9-refine": sudoku9_refine,
    "sat20-chains": sat20_chains,
}


class Stream(NamedTuple):
    cfg: RunConfig
    instances: list
    denoisers: list
    schedule: object
    search_config: search.SearchConfig


def set_up(workload: Workload) -> list[Stream]:
    """Generate every instance and build its denoiser (enumeration)."""
    out = []
    for cfg, count in zip(workload.streams, workload.instances):
        instances = [runner.build_instance(cfg, i) for i in range(count)]
        denoisers = [tasks.build_denoiser(inst, cfg.denoiser, cfg.epsilon)
                     for inst in instances]
        out.append(Stream(cfg, instances, denoisers, linear_schedule(cfg.steps),
                          runner.search_config(cfg)))
    return out


class Outcome(NamedTuple):
    final: np.ndarray | None
    report: object | None  # ViolationReport, None when the sample raised
    steps: tuple
    error: str | None
    started: float  # time.perf_counter() when the sample began
    seconds: float


def error_class(exc: BaseException) -> str:
    """``SampleError<-ValueError`` style key: class plus class of its cause."""
    name = type(exc).__name__
    if exc.__cause__ is not None:
        name += "<-" + type(exc.__cause__).__name__
    return name


def run_pass(workload: Workload, streams: list[Stream], tracer=None,
             host=None) -> list[Outcome]:
    """Run every job once; a sample that raises is recorded, never fatal.

    Each sample's time covers ``search.sample`` plus the final
    ``aggregate_violation``. With a tracer, those two calls are the root
    spans of the sample. With a ``HostSpeed``, the reference kernel runs
    between samples, outside their timed region.
    """
    outcomes = []
    clock = time.perf_counter
    for k, job in enumerate(workload.jobs):
        if host is not None:
            host.maybe_sample()
        stream = streams[job.stream]
        instance = stream.instances[job.instance]
        denoiser = stream.denoisers[job.instance]
        rng = runner.sample_rng(stream.cfg.seed, job.sample)
        weights = stream.cfg.weights
        started = clock()
        try:
            if tracer is None:
                final, steps = search.sample(instance, denoiser, stream.schedule,
                                             stream.search_config, rng)
                report = search.aggregate_violation(final, instance.constraints,
                                                    weights)
            else:
                tracer.sample_id = k
                with tracer.span("search.sample"):
                    final, steps = search.sample(instance, denoiser, stream.schedule,
                                                 stream.search_config, rng)
                with tracer.span("search.score"):
                    report = search.aggregate_violation(final, instance.constraints,
                                                        weights)
        except Exception as exc:  # counted per class; one failure never aborts the run
            outcomes.append(Outcome(None, None, (), error_class(exc), started,
                                    clock() - started))
            continue
        outcomes.append(Outcome(final, report, steps, None, started, clock() - started))
    return outcomes
