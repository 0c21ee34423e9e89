"""The benchmark's tracer must still find the sampler's layers.

``perfbench/tracing.py`` wraps functions by name on ``mdsearch.search`` and
``mdsearch.harness.runner``, and methods on the constraint and tracker classes.
If one of them is renamed or bypassed, the traced run records no span for
that layer; this test makes that a tier-1 failure instead of a silent gap
in ``perfbench/run.py --trace 1``. The benchmark's workloads call the
harness the same way, so their first jobs run here too.
"""

import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mdsearch as m
from mdsearch.constraints import sat
from mdsearch.constraints.sat import CnfFormula
from mdsearch.harness.configio import RunConfig
from mdsearch.harness.runner import (build_instance, instance_rng, presets, sample_rng,
                                     search_config)
from mdsearch.search import SearchConfig, sample

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracles import satisfying_assignments_by_chunks  # noqa: E402


@pytest.mark.parametrize("placement", ["off", "last_step", "all_steps"])
def test_traced_sample_records_step_and_row_check_spans(placement):
    instance = m.sat_instance(CnfFormula(3, ((1, 2), (-1, 2), (2, 3))), name="tiny")
    denoiser = m.build_denoiser(instance, "exact")
    cfg = SearchConfig(placement=placement, candidates=4, max_rounds=2)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        sample(instance, denoiser, m.linear_schedule(4), cfg, np.random.default_rng(0))
    recorded = {tracer.names[i] for i in tracer.arrays()["name"]}
    assert {"diffusion.step", "denoise.check_rows"} <= recorded


def test_traced_plain_chain_spans_one_denoise_check_and_commit_per_event_step():
    # denoise.calls, denoise.check_rows_s and diffusion.step_calls read these
    # spans: a step that skips the wrapped calls, or a commit made through
    # another binding, would change them without an error
    cfg = RunConfig(task="sat", steps=64, placement="off", denoiser="exact", seed=7,
                    sat_vars=20, sat_clauses=70)
    instance = build_instance(cfg, 0)
    denoiser = m.build_denoiser(instance, cfg.denoiser)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _, trace = sample(instance, denoiser, m.linear_schedule(cfg.steps),
                          search_config(cfg), sample_rng(cfg.seed, 0))
    spans = tracer.arrays()
    names = np.array(tracer.names)[spans["name"]]
    top = spans["parent"] < 0
    events = sum(r.committed > 0 for r in trace)
    assert len(trace) == cfg.steps and 0 < events < cfg.steps
    assert (names == "denoise.check_rows").sum() == events
    assert (names == "diffusion.step").sum() == events
    assert ((names == "denoise.denoise") & top).sum() == events


def test_traced_sat_instance_build_records_a_generation_span():
    # the tracer wraps runner.random_formula; generating through any other
    # binding would leave harness.gen_s empty
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        build_instance(presets()["sat"], 0)
    recorded = {tracer.names[i] for i in tracer.arrays()["name"]}
    assert "harness.gen" in recorded


def test_traced_sat_set_up_checks_every_draw_and_enumerates_once():
    # harness.gen_draws counts sat.is_satisfiable calls and tasks.enum_s
    # times tasks.exact_distribution: checking or enumerating a formula
    # through any other binding would zero them without an error
    cfg = presets()["sat"]
    index = 0
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        instance = build_instance(cfg, index)
        m.build_denoiser(instance, cfg.denoiser, cfg.epsilon)
    spans = Counter(tracer.names[i] for i in tracer.arrays()["name"])
    rng, draws = instance_rng(cfg.seed, index), 0
    while True:  # the draws random_formula makes, replayed by the clause loop
        draws += 1
        formula = sat._loop_draw(cfg.sat_vars, cfg.sat_clauses, rng)
        if satisfying_assignments_by_chunks(formula).shape[0] > 0:
            break
    assert formula == instance.data and draws > 1
    assert spans["harness.sat_check"] == draws
    assert spans["harness.gen"] == 1
    assert spans["tasks.enum"] == 1


def test_traced_refining_sample_records_tracker_spans():
    # the tracer wraps peek_block, commit and tracker only on the classes
    # whose own attributes define them
    cfg = presets()["sudoku"]
    instance = build_instance(cfg, 0)
    denoiser = m.build_denoiser(instance, cfg.denoiser, cfg.epsilon)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _, trace = sample(instance, denoiser, m.linear_schedule(cfg.steps),
                          search_config(cfg), sample_rng(cfg.seed, 0))
    assert cfg.placement == "all_steps" and sum(r.rounds for r in trace) > 0
    recorded = {tracer.names[i] for i in tracer.arrays()["name"]}
    assert {"constraints.peek_block", "constraints.commit",
            "constraints.tracker_init"} <= recorded


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_workload_entry_points_still_run(name):
    workload = workloads.WORKLOADS[name](seed=7, seconds=1)
    workload = replace(workload, jobs=workload.jobs[:3])
    streams = workloads.set_up(workload)
    outcomes = workloads.run_pass(workload, streams)
    assert [o.error for o in outcomes] == [None] * len(workload.jobs)
    assert checks.check_outcomes(workload, streams, outcomes) == []
    assert checks.check_parity(workload, streams, outcomes, 1) == []
