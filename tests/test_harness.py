import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mdsearch import tasks
from mdsearch.constraints.sat import is_satisfiable
from mdsearch.constraints.sudoku import UnitDuplicates
from mdsearch.errors import ConfigError, GenerationError
from mdsearch.harness import (
    RunConfig,
    build_instance,
    load_results,
    paired_feasibility,
    parse_config,
    presets,
    random_formula,
    random_puzzle,
    render_summary_csv,
    run_experiment,
    sample_rng,
    search_config,
    summarize_records,
)
from mdsearch.diffusion import linear_schedule
from mdsearch.harness.configio import load_config
from mdsearch.search import sample
from mdsearch.tasks import exact_distribution

from oracles import naive_sat_violation


def small_config(**overrides):
    base = RunConfig(task="sat", steps=4, candidates=4, rounds=4,
                     placement="all_steps", epsilon=0.5, denoiser="noisy",
                     num_samples=6, seed=7, sat_vars=4, sat_clauses=8)
    return replace(base, **overrides)


def test_config_roundtrip():
    text = """
[run]
task = sudoku
steps = 5
candidates = 8
rounds = 0
placement = last_step
epsilon = 0.25
denoiser = table:rows.tsv
num_samples = 3
seed = 11
out = runs/x.jsonl
weights = 1.0, 2.5,0.5
allow_unmask_edits = off
instances = boards.txt

[sudoku]
box = 3
blanks = 12

[sat]
vars = 5
clauses = 9

[peptide]
slots = 20
"""
    assert parse_config(text) == RunConfig(
        task="sudoku", steps=5, candidates=8, rounds=0, placement="last_step",
        epsilon=0.25, denoiser="table:rows.tsv", num_samples=3, seed=11,
        out="runs/x.jsonl", weights=(1.0, 2.5, 0.5), allow_unmask_edits=False,
        instances="boards.txt", sat_vars=5, sat_clauses=9, sudoku_box=3,
        sudoku_blanks=12, peptide_slots=20)


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    example = re.search(r"```\n(\[run\]\n.*?)```", readme, re.S).group(1)
    assert parse_config(example) == RunConfig(
        task="sat", steps=20, candidates=32, placement="all_steps",
        sat_vars=7, sat_clauses=45)


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(task="chess")
    with pytest.raises(ConfigError):
        RunConfig(placement="never")
    with pytest.raises(ConfigError):
        RunConfig(epsilon=2.0)
    with pytest.raises(ConfigError):
        RunConfig(denoiser="magic")
    with pytest.raises(ConfigError):
        RunConfig(seed=-1)
    with pytest.raises(ConfigError):
        RunConfig(weights=(-1.0,))
    for bad in ({"steps": 0}, {"candidates": 0}, {"rounds": -1}):
        with pytest.raises(ConfigError):
            RunConfig(**bad)


@pytest.mark.parametrize("field", ["steps", "candidates", "rounds", "num_samples", "seed",
                                   "sat_vars", "sat_clauses", "sudoku_box",
                                   "sudoku_blanks", "peptide_slots"])
@pytest.mark.parametrize("bad", [2.5, 3.0, True, None, "4"])
def test_run_config_rejects_counts_that_are_not_integers(field, bad):
    # steps=2.5 built and then failed in run_experiment with TypeError, and
    # steps=True ran one step
    with pytest.raises(ConfigError, match=field):
        RunConfig(**{field: bad})
    assert RunConfig(**{field: np.int64(3)}) == RunConfig(**{field: 3})


def test_config_file_parsing_and_overlay(tmp_path):
    text = "[run]\ntask = sudoku\nsteps = 5\n\n[sudoku]\nbox = 2\nblanks = 4\n"
    cfg = parse_config(text)
    assert cfg.task == "sudoku" and cfg.steps == 5 and cfg.sudoku_blanks == 4
    base = RunConfig(task="sat", seed=9)
    overlaid = parse_config("[run]\nsteps = 3\n", base)
    assert overlaid.seed == 9 and overlaid.steps == 3
    with pytest.raises(ConfigError):
        parse_config("[run]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[mystery]\nx = 1\n")
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    assert load_config(path) == cfg
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def test_config_accepts_the_linear_schedule_key():
    text = "[run]\nschedule = linear\nsteps = 4\nweights = 1.0,2.0\n"
    assert parse_config(text) == RunConfig(steps=4, weights=(1.0, 2.0))
    with pytest.raises(ConfigError):
        parse_config("[run]\nschedule = cosine\n")


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nsteps = abc\n",                  # alone: its keys were dropped
    "[DEFAULT]\nseed = 3\n\n[sat]\nvars = 5\n",  # copied into [sat] as a bad key
    "[DEFAULT]\nsteps = 4\n\n[run]\nseed = 3\n",  # copied into [run]
], ids=["alone", "next-to-task", "next-to-run"])
def test_config_default_section_is_unknown(tmp_path, text):
    with pytest.raises(ConfigError, match="unknown config sections: \\['DEFAULT'\\]"):
        parse_config(text)
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="DEFAULT"):
        load_config(path)


def test_random_formula_properties():
    rng = np.random.default_rng(0)
    f = random_formula(7, 45, rng)
    assert f.num_vars == 7 and len(f.clauses) == 45
    assert all(len(c) == 3 and len({abs(l) for l in c}) == 3 for c in f.clauses)
    assert is_satisfiable(f)
    # single clause over three variables is always satisfiable
    g = random_formula(3, 1, rng)
    assert is_satisfiable(g)


def test_random_formula_satisfiability_flag_agrees_with_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(100):
        f = random_formula(5, int(rng.integers(1, 30)), rng,
                           require_satisfiable=False)
        brute = any(
            naive_sat_violation(f.clauses, [(code >> k) & 1 for k in range(5)]) == 0
            for code in range(32))
        assert is_satisfiable(f) == brute


def test_random_formula_rejection_cap():
    rng = np.random.default_rng(2)
    with pytest.raises(GenerationError):
        # wildly overconstrained: no satisfiable draw will ever appear
        random_formula(3, 200, rng)


def test_random_puzzle_generator():
    rng = np.random.default_rng(3)
    solved = random_puzzle(2, 0, rng)
    assert UnitDuplicates(2).violation(solved.grid.ravel() - 1) == 0
    puzzle = random_puzzle(2, 8, rng)
    assert (puzzle.grid == 0).sum() == 8
    dist = exact_distribution(
        build_instance(replace(small_config(task="sudoku"), seed=3), 0))
    assert dist.support.shape[0] >= 1


def test_build_instance_is_placement_independent():
    cfg_a = small_config(placement="off")
    cfg_b = small_config(placement="all_steps", candidates=128)
    for i in range(4):
        a = build_instance(cfg_a, i)
        b = build_instance(cfg_b, i)
        assert a.data == b.data


def test_table_denoiser_is_loaded_once_per_run(tmp_path, monkeypatch):
    # it was loaded once per sample, plus once by the set-up check
    table = tmp_path / "t.tsv"
    table.write_text("????\t0\t0.9,0.1\n0???\t1\t0.2,0.8\n", encoding="utf-8")
    cfg = small_config(num_samples=5, denoiser=f"table:{table}")
    loads = []
    real = tasks.load_table
    monkeypatch.setattr(tasks, "load_table", lambda *args: loads.append(args) or real(*args))
    result = run_experiment(cfg)
    assert len(loads) == 1
    # each sample is the one a denoiser loaded for it alone gives
    for record, instance in zip(result.records, [build_instance(cfg, i) for i in range(5)]):
        final, _ = sample(instance, real(table, instance.vocab), linear_schedule(cfg.steps),
                          search_config(cfg), sample_rng(cfg.seed, record.index))
        assert record.error is None and record.value == instance.render(final)


def test_table_denoiser_is_loaded_once_per_alphabet_of_a_puzzle_file(tmp_path, monkeypatch):
    puzzles = tmp_path / "mixed.txt"
    puzzles.write_text("1.3.341.21..43.1\n" + "." * 81 + "\n1.3.341.21..43.1\n",
                       encoding="utf-8")
    table = tmp_path / "t.tsv"
    table.write_text("# no rows: every query falls back to uniform\n", encoding="utf-8")
    cfg = RunConfig(task="sudoku", steps=2, candidates=2, rounds=1, denoiser=f"table:{table}",
                    num_samples=3, seed=0, instances=str(puzzles))
    loads = []
    real = tasks.load_table
    monkeypatch.setattr(tasks, "load_table", lambda *args: loads.append(args) or real(*args))
    result = run_experiment(cfg)
    assert sorted(vocab.size for _, vocab in loads) == [4, 9]
    assert [r.error for r in result.records] == [None] * 3


def test_run_experiment_records_and_summary():
    result = run_experiment(small_config())
    assert len(result.records) == 6
    summary = summarize_records(result)
    assert summary["samples"] == 6
    assert summary["feasible"] == sum(r.feasible for r in result.records)
    assert summary["ok_clauses"] == sum(
        1 for r in result.records if r.violations[0] == 0)
    recomputed = sum(r.total for r in result.records) / 6
    assert summary["mean_violation"] == recomputed


def test_run_experiment_empty_has_valid_header(tmp_path):
    out = tmp_path / "empty.jsonl"
    result = run_experiment(small_config(num_samples=0, out=str(out)))
    assert result.records == ()
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    header = json.loads(lines[0])
    assert header["format"] == "mdsearch-results"
    assert header["config"]["num_samples"] == 0


def test_results_roundtrip(tmp_path):
    out = tmp_path / "run.jsonl"
    result = run_experiment(small_config(out=str(out)))
    loaded = load_results(out)
    assert loaded.config == replace(result.config, out=None)
    assert loaded.constraint_names == result.constraint_names
    for a, b in zip(loaded.records, result.records):
        assert (a.index, a.instance, a.feasible, a.violations, a.total,
                a.rounds, a.value) == (b.index, b.instance, b.feasible,
                                       b.violations, b.total, b.rounds, b.value)
    assert (tmp_path / "run.summary.csv").exists()


def test_results_load_a_header_with_the_linear_schedule(tmp_path):
    out = tmp_path / "run.jsonl"
    result = run_experiment(small_config(out=str(out)))
    header, *records = out.read_text().splitlines()
    header = json.loads(header)
    assert "schedule" not in header["config"]
    header["config"]["schedule"] = "linear"
    out.write_text("\n".join([json.dumps(header, sort_keys=True), *records]) + "\n")
    loaded = load_results(out)
    assert loaded.config == replace(result.config, out=None)
    assert [r.total for r in loaded.records] == [r.total for r in result.records]


def test_results_roundtrip_a_header_with_weights(tmp_path):
    out = tmp_path / "run.jsonl"
    result = run_experiment(small_config(num_samples=2, weights=(2.0,), out=str(out)))
    loaded = load_results(out)
    assert loaded.config == replace(result.config, out=None)
    assert loaded.config.weights == (2.0,)


def test_load_results_refuses_an_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n \n", encoding="utf-8")
    with pytest.raises(ConfigError, match="empty result file"):
        load_results(path)


def test_nothing_to_summarize_and_unpaired_runs_are_config_errors():
    with pytest.raises(ConfigError, match="nothing to summarize"):
        render_summary_csv([])
    two, three = (run_experiment(small_config(num_samples=n)) for n in (2, 3))
    with pytest.raises(ConfigError, match="equal sample counts"):
        paired_feasibility(two, three)


@pytest.mark.parametrize("raw, expected", [("on", True), ("Off", False)])
def test_config_file_booleans(raw, expected):
    cfg = parse_config(f"[run]\nallow_unmask_edits = {raw}\n")
    assert cfg.allow_unmask_edits is expected


def test_config_file_refuses_a_bad_boolean():
    with pytest.raises(ConfigError, match="bad boolean 'maybe'"):
        parse_config("[run]\nallow_unmask_edits = maybe\n")


def test_result_files_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_experiment(small_config(out=str(a)))
    run_experiment(small_config(out=str(b)))
    assert a.read_bytes() == b.read_bytes()


def test_paired_arms_share_instances():
    off = run_experiment(small_config(placement="off"))
    on = run_experiment(small_config(placement="all_steps"))
    assert [r.instance for r in off.records] == [r.instance for r in on.records]
    deltas = paired_feasibility(off, on)
    assert deltas.shape == (6,)


def test_summary_csv_roundtrip_and_delta():
    off = run_experiment(small_config(placement="off"))
    on = run_experiment(small_config(placement="all_steps"))
    text = render_summary_csv([off, on])
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert rows[0]["delta_feasibility"] == "0.0"
    expected = (summarize_records(on)["feasibility"]
                - summarize_records(off)["feasibility"])
    assert float(rows[1]["delta_feasibility"]) == expected
    # re-parse reproduces the summary values
    assert int(rows[1]["feasible"]) == summarize_records(on)["feasible"]
    assert float(rows[1]["mean_violation"]) == summarize_records(on)["mean_violation"]


def test_summary_rejects_mixed_tasks():
    a = run_experiment(small_config())
    b = run_experiment(replace(presets()["peptide"], num_samples=2, steps=4,
                               candidates=4, rounds=4))
    with pytest.raises(ConfigError):
        render_summary_csv([a, b])


def test_sample_errors_recorded_not_fatal(tmp_path):
    # a table denoiser whose patterns never match still samples (uniform
    # fallback); an unsatisfiable loaded instance errors per-sample instead
    from mdsearch.constraints.sat import render_dimacs, CnfFormula

    cnf_dir = tmp_path / "cnf"
    cnf_dir.mkdir()
    (cnf_dir / "bad.cnf").write_text(render_dimacs(CnfFormula(2, ((1,), (-1,)))),
                                     encoding="utf-8")
    cfg = small_config(instances=str(cnf_dir), num_samples=1)
    result = run_experiment(cfg)
    assert len(result.records) == 1
    assert result.records[0].error is not None
    assert not result.records[0].feasible


def test_failed_sample_writes_strict_json(tmp_path):
    # a failed record holds "total": null; RFC 8259 parsers refuse Infinity
    from mdsearch.constraints.sat import render_dimacs, CnfFormula

    cnf_dir = tmp_path / "cnf"
    cnf_dir.mkdir()
    (cnf_dir / "bad.cnf").write_text(render_dimacs(CnfFormula(2, ((1,), (-1,)))),
                                     encoding="utf-8")
    out = tmp_path / "run.jsonl"
    run_experiment(small_config(instances=str(cnf_dir), num_samples=1, out=str(out)))

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    text = out.read_text(encoding="utf-8")
    header, record = [json.loads(line, parse_constant=refuse) for line in text.splitlines()]
    assert record["total"] is None and record["error"]
    loaded = load_results(out)
    assert loaded.records[0].total is None
    assert summarize_records(loaded)["errors"] == 1
    # older files, with Infinity there, still load
    out.write_text(text.replace('"total": null', '"total": Infinity'), encoding="utf-8")
    assert load_results(out).records[0].total == float("inf")


def test_load_instances_dimacs_and_sudoku(tmp_path):
    from mdsearch.constraints.sat import render_dimacs
    from mdsearch.harness.runner import load_instances

    rng = np.random.default_rng(5)
    cnf_dir = tmp_path / "cnfs"
    cnf_dir.mkdir()
    for i in range(3):
        f = random_formula(4, 6, rng)
        (cnf_dir / f"f{i}.cnf").write_text(render_dimacs(f), encoding="utf-8")
    cfg = small_config(instances=str(cnf_dir), num_samples=2)
    instances = load_instances(cfg)
    assert len(instances) == 2
    assert instances[0].name == "f0"

    from mdsearch.constraints.sudoku import render_sudoku_line

    lines = tmp_path / "boards.txt"
    lines.write_text(
        "\n".join(render_sudoku_line(random_puzzle(2, 6, rng)) for _ in range(2)) + "\n",
        encoding="utf-8")
    cfg = replace(small_config(task="sudoku"), instances=str(lines))
    instances = load_instances(cfg)
    assert len(instances) == 2

    with pytest.raises(ConfigError):
        load_instances(replace(presets()["peptide"], instances="x"))
