"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from mdsearch.denoise import Denoiser  # noqa: E402
from mdsearch.harness import runner  # noqa: E402
from mdsearch.tasks import peptide_instance  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, installed, per_layer, self_times  # noqa: E402
from workloads import SAT20_FORMULAS, WORKLOADS, Job, Workload, run_pass, set_up  # noqa: E402


def _small(name, seed, seconds=1, jobs=None):
    workload = WORKLOADS[name](seed, seconds)
    if jobs is not None:
        workload = replace(workload, jobs=workload.jobs[:jobs])
    return workload


def _fingerprint(streams):
    out = []
    for stream in streams:
        for inst in stream.instances:
            data = inst.data
            if hasattr(data, "clauses"):
                out.append(("sat", data.clauses))
            elif hasattr(data, "grid"):
                out.append(("sudoku", data.grid.tobytes()))
            else:
                out.append(("peptide", inst.length))
    return out


@pytest.mark.parametrize("name", ["presets", "sudoku9-refine"])
def test_inputs_repeat_for_a_seed_and_differ_between_seeds(name):
    first = _fingerprint(set_up(_small(name, 3)))
    assert first == _fingerprint(set_up(_small(name, 3)))
    assert first != _fingerprint(set_up(_small(name, 4)))


def test_sat20_inputs_repeat_for_a_seed_and_differ_between_seeds():
    # one formula per seed keeps this test short; set_up builds them the same way
    a, b = (_small("sat20-chains", s).streams[0] for s in (3, 4))
    assert runner.build_instance(a, 0).data == runner.build_instance(a, 0).data
    assert runner.build_instance(a, 0).data != runner.build_instance(b, 0).data
    assert _small("sat20-chains", 3).jobs == _small("sat20-chains", 3).jobs


def test_job_count_follows_run_length():
    assert len(_small("presets", 1, 6).jobs) == 2 * len(_small("presets", 1, 3).jobs) == 120
    chains = _small("sat20-chains", 1, 2).jobs
    assert {job.instance for job in chains} == set(range(SAT20_FORMULAS))
    assert all(job.instance == job.sample for job in chains[:SAT20_FORMULAS])


def test_self_times_on_a_hand_built_tree():
    #   0 [0, 10)             self 10 - 3 - 4 = 3
    #   +-- 1 [1, 4)          self 3 - 1 = 2
    #   |   +-- 3 [2, 3)      self 1
    #   +-- 2 [5, 9)          self 4
    #   4 [10, 15)            self 5
    parent = np.array([-1, 0, 0, 1, -1])
    duration = np.array([10.0, 3.0, 4.0, 1.0, 5.0])
    assert self_times(parent, duration).tolist() == [3.0, 2.0, 4.0, 1.0, 5.0]
    assert self_times(parent, duration).sum() == duration[parent < 0].sum()


def test_tracer_records_nesting_and_sample_ids():
    tracer = Tracer()
    tracer.sample_id = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    a = tracer.arrays()
    assert a["parent"].tolist() == [-1, 0, 0]
    assert a["sample"].tolist() == [7, 7, 7]
    assert [tracer.names[i] for i in a["name"]] == ["outer", "inner", "inner"]
    assert np.all(a["end"] >= a["start"]) and not tracer.stack


def _traced(workload):
    tracer = Tracer()
    with installed(tracer):
        streams = set_up(workload)
        outcomes = run_pass(workload, streams, tracer)
    done = [o for o in outcomes if o.error is None]
    steps = sum(len(o.steps) for o in done)
    committed = sum(1 for o in done for r in o.steps if r.committed > 0)
    return tracer, outcomes, per_layer(tracer, steps, committed)


def test_traced_counts_repeat_and_wrappers_come_off():
    from mdsearch import search
    from mdsearch.denoise import CorruptedDenoiser

    original = (search.best_of_pool, CorruptedDenoiser.denoise)
    workload = _small("presets", 5, jobs=9)
    tracer, _, first = _traced(workload)
    _, _, second = _traced(workload)
    assert (search.best_of_pool, CorruptedDenoiser.denoise) == original
    counts = [k for k in first if not k.endswith(("_s", "us_per_call", "us_per_draw",
                                                   "us_per_round"))]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    # the noisy denoiser nests the exact one; each sampler call counts once
    assert first["denoise.calls"] == first["search.steps"] == 20 * 3 + 10 * 3 + 16 * 3
    roots = [tracer.name_id("search.sample"), tracer.name_id("search.score")]
    a = tracer.arrays()
    duration = (a["end"] - a["start"]).astype(float)
    keep = a["sample"] >= 0
    assert self_times(a["parent"], duration)[keep].sum() == pytest.approx(
        duration[keep & np.isin(a["name"], roots)].sum())


def test_a_layer_no_wrapper_sees_shows_as_uncovered_time(monkeypatch):
    import tracing

    workload = _small("presets", 5, jobs=9)
    tracer, outcomes, _ = _traced(workload)
    wall = sum(o.seconds for o in outcomes)
    assert tracing.uncovered_seconds(tracer) < run.UNCOVERED_TOL * wall
    # without the pool's wrapper, the pool's own time lands in the sampler span
    every = tracing._targets
    monkeypatch.setattr(tracing, "_targets", lambda tracer: [
        t for t in every(tracer) if t[1] != "best_of_pool"])
    tracer, outcomes, _ = _traced(workload)
    wall = sum(o.seconds for o in outcomes)
    assert tracing.uncovered_seconds(tracer) > run.UNCOVERED_TOL * wall


def _finished(name, task_type, feasible=True):
    workload = _small(name, 2, jobs=12)
    streams = set_up(workload)
    outcomes = run_pass(workload, streams)
    for job, o in zip(workload.jobs, outcomes):
        inst = streams[job.stream].instances[job.instance]
        if type(inst.data).__name__ == task_type and (o.report.total == 0) == feasible:
            assert checks.check_sample(inst, o.final, o.report) == []
            return inst, o
    raise AssertionError("no matching sample")


def test_checks_reject_a_flipped_token():
    inst, o = _finished("presets", "SudokuBoard")
    free = inst.region.positions[0]
    bad = o.final.copy()
    bad[free] = (bad[free] + 1) % inst.vocab.size
    assert any("recount" in p for p in checks.check_sample(inst, bad, o.report))


def test_checks_reject_a_flipped_sat_bit():
    inst, o = _finished("presets", "CnfFormula")
    for pos in range(inst.length):
        bad = o.final.copy()
        bad[pos] = 1 - bad[pos]
        if checks.naive_sat(inst.data.clauses, bad.tolist()) != o.report.total:
            assert checks.check_sample(inst, bad, o.report)
            return
    pytest.skip("no single flip changes this sample's violation")


def test_checks_reject_a_leftover_mask():
    inst, o = _finished("presets", "PeptideSpec")
    bad = o.final.copy()
    bad[3] = inst.vocab.mask_id
    assert any("mask" in p for p in checks.check_sample(inst, bad, o.report))


def test_checks_reject_an_edited_given():
    inst, o = _finished("presets", "SudokuBoard")
    given = inst.region.frozen[0]
    bad = o.final.copy()
    bad[given] = (bad[given] + 1) % inst.vocab.size
    assert any("givens" in p for p in checks.check_sample(inst, bad, o.report))


def test_naive_evaluators_match_the_definitions():
    assert checks.naive_sat([(1, 2), (-1,), (2, -3)], [1, 0, 1]) == 2
    assert checks.naive_sudoku([[1, 1, 2, 2], [3, 4, 1, 2], [2, 3, 4, 1], [4, 2, 3, 1]]) == 9
    spec = peptide_instance().data
    assert checks.naive_peptide("KKAAAAGGGG", spec) == (0.0, 0.0, 0.0)
    assert checks.naive_peptide("KDG", spec) == (7.0, 2.0, 0.3)


class _Raising(Denoiser):
    def denoise(self, values, t):
        raise RuntimeError("model crashed")


def test_a_raising_denoiser_is_counted_not_fatal():
    workload = _small("presets", 2, jobs=6)
    streams = set_up(workload)
    streams[0].denoisers[0] = _Raising(streams[0].instances[0].vocab)
    outcomes = run_pass(workload, streams)
    q = run.quality(outcomes)
    assert q["errors_by_class"] == {"SampleError<-RuntimeError": 1}
    assert q["attempted"] == 6 and q["finished"] == 5
    assert q["error_frac"] == pytest.approx(1 / 6)
    assert checks.check_outcomes(workload, streams, outcomes) == []


def test_parity_with_run_experiment_and_its_detection():
    workload = _small("presets", 6, jobs=6)
    streams = set_up(workload)
    outcomes = run_pass(workload, streams)
    assert checks.check_parity(workload, streams, outcomes, 2) == []
    broken = list(outcomes)
    bad = broken[0].final.copy()
    bad[0] = 1 - bad[0]
    broken[0] = broken[0]._replace(final=bad)
    assert checks.check_parity(workload, streams, broken, 2)


def test_tail_percentile_leaves_ten_samples_beyond():
    seconds = [s / 1e3 for s in range(1, 101)]
    t = run.timing_summary(seconds, [0] * 100)
    assert t["tail_ms"] == pytest.approx(90.0) and t["tail_percentile"] == 90.0
    assert t["p50_ms"] == pytest.approx(50.5)
    # the median is taken per stream, then averaged over the streams
    t = run.timing_summary(seconds, [k % 2 for k in range(100)])
    assert t["p50_ms_by_stream"] == [pytest.approx(50.0), pytest.approx(51.0)]
    assert t["p50_ms"] == pytest.approx(50.5)


def test_command_refuses_a_tree_without_sources(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "presets", "--seed", "1", "--seconds", "1"])
    assert code == 2 and capsys.readouterr().out == ""


def test_workload_jobs_name_existing_instances():
    for name in WORKLOADS:
        w = _small(name, 1)
        assert isinstance(w, Workload)
        assert all(isinstance(j, Job) and j.instance < w.instances[j.stream]
                   for j in w.jobs)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key, tmp_path, capsys, monkeypatch):
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", "sudoku9-refine", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in spec[key]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        spans = np.load(tmp_path / "spans-sudoku9-refine-seed1.npz")
        assert len(spans["start"]) == result["metrics"]["trace.spans"]["value"]
        assert "scalar_peeks" in spans["counter_names"].tolist()


def test_host_slowdown_uses_the_reference_runs_near_each_sample():
    import gc

    from hostspeed import NOMINAL_S, WINDOW_S, HostSpeed, corrected_setup

    host = HostSpeed()
    host.sample()
    assert gc.isenabled()  # the reference runs with the collector off, then turns it on
    host.stamps = [0.0, 0.1, 0.2, 10.0, 10.1]
    host.seconds = [NOMINAL_S, 3 * NOMINAL_S, NOMINAL_S, 2 * NOMINAL_S, 2 * NOMINAL_S]
    slow = host.slowdown([0.1, 10.05, 10.0 + 3 * WINDOW_S])
    assert slow.tolist() == [1.0, 2.0, 2.0]  # window median; nearest run when none
    assert corrected_setup(4.0, [2 * NOMINAL_S] * 3, [2 * NOMINAL_S] * 3) == 2.0
