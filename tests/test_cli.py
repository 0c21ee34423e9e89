import json

import numpy as np
import pytest

from mdsearch.harness.cli import main
from mdsearch.harness import random_formula
from mdsearch.constraints.sat import render_dimacs


def run_cli(*argv):
    return main(list(argv))


def test_sample_prints_trace_and_result(capsys):
    code = run_cli("sample", "--task", "sat", "--steps", "6", "--css", "8",
                   "--rounds", "8", "--seed", "3")
    out = capsys.readouterr().out
    assert code == 0
    assert "t=  6" in out or "t=6" in out.replace("  ", " ")
    assert "result" in out and "feasible=" in out
    assert "total=" in out


def test_sample_search_off(capsys):
    code = run_cli("sample", "--task", "sat", "--steps", "4", "--search", "off",
                   "--seed", "1")
    assert code == 0
    out = capsys.readouterr().out
    assert "committed=" in out


@pytest.mark.parametrize("flag, value", [("--out", "sample.jsonl"), ("--n-samples", "3")])
def test_sample_takes_no_out_or_sample_count(tmp_path, capsys, monkeypatch, flag, value):
    # --out wrote no file and --n-samples was overwritten with 1, both with exit 0
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        run_cli("sample", "--task", "sat", "--seed", "0", flag, value)
    assert err.value.code == 2 and flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("line", ["out = cfgout.jsonl", "num_samples = 5"])
def test_sample_config_takes_no_out_or_sample_count(tmp_path, capsys, monkeypatch, line):
    # the file's out wrote nothing and its num_samples ran one sample, with exit 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text(f"[run]\n{line}\n", encoding="utf-8")
    assert run_cli("sample", "--task", "sat", "--seed", "0", "--config", "run.ini") == 2
    assert line.split()[0] in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]


def test_bench_writes_results(tmp_path, capsys):
    out = tmp_path / "bench.jsonl"
    code = run_cli("bench", "--task", "sat", "--steps", "4", "--css", "4",
                   "--rounds", "4", "--n-samples", "4", "--seed", "5",
                   "--out", str(out))
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("task,label,")
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert json.loads(lines[0])["task"] == "sat"
    assert (tmp_path / "bench.summary.csv").exists()


def test_bench_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ntask = sat\nsteps = 4\nnum_samples = 2\nseed = 2\n"
                   "candidates = 4\nrounds = 2\n\n[sat]\nvars = 4\nclauses = 6\n",
                   encoding="utf-8")
    code = run_cli("bench", "--config", str(cfg), "--n-samples", "3")
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[1].split(",")[2] == "3"  # samples column reflects the override


def test_ablate_sweep(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code = run_cli("ablate", "--task", "sat", "--steps", "4", "--css", "1,4",
                   "--search", "off,all", "--n-samples", "3", "--seed", "4",
                   "--rounds", "2", "--out", str(out_dir))
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 1 + 4  # header + 2 placements x 2 pool sizes
    assert (out_dir / "summary.csv").exists()
    assert len(list(out_dir.glob("*.jsonl"))) == 4


def test_summarize_from_files(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for path, placement in ((a, "off"), (b, "all")):
        assert run_cli("bench", "--task", "sat", "--steps", "4", "--css", "4",
                       "--rounds", "4", "--n-samples", "3", "--seed", "6",
                       "--search", placement, "--out", str(path)) == 0
    capsys.readouterr()
    code = run_cli("summarize", str(a), str(b), "--out", str(tmp_path / "sum.csv"))
    assert code == 0
    text = capsys.readouterr().out
    assert text.count("\n") == 3  # header + two rows
    assert (tmp_path / "sum.csv").read_text() == text


def test_summarize_mixed_tasks_is_usage_error(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    run_cli("bench", "--task", "sat", "--steps", "4", "--css", "2", "--rounds", "2",
            "--n-samples", "2", "--out", str(a))
    run_cli("bench", "--task", "peptide", "--steps", "4", "--css", "2",
            "--rounds", "2", "--n-samples", "2", "--out", str(b))
    capsys.readouterr()
    assert run_cli("summarize", str(a), str(b)) == 2


def test_unknown_placement_is_usage_error(capsys):
    assert run_cli("sample", "--task", "sat", "--search", "never") == 2


@pytest.mark.parametrize("case", ["missing", "not utf-8"])
def test_unreadable_result_file_is_usage_error(tmp_path, capsys, case):
    path = tmp_path / "nope.jsonl"
    if case == "not utf-8":
        path.write_bytes(b"\xff\xfe{}\n")
    assert run_cli("summarize", str(path)) == 2
    assert "cannot read results" in capsys.readouterr().err


def test_bad_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        run_cli("bench", "--task", "chess")
    assert err.value.code == 2


def test_sample_with_dimacs_instance(tmp_path, capsys):
    f = random_formula(4, 6, np.random.default_rng(0))
    path = tmp_path / "one.cnf"
    path.write_text(render_dimacs(f), encoding="utf-8")
    code = run_cli("sample", "--task", "sat", "--steps", "4", "--css", "4",
                   "--rounds", "4", "--instances", str(path), "--denoiser",
                   "uniform")
    assert code == 0
    assert "one" in capsys.readouterr().out


@pytest.mark.parametrize("text, code", [
    ("c a\fb\np cnf 2 1\n1 -2 0\n", 0),  # a form feed inside a comment
    ("pq cnf 2 1\n1 -2 0\n", 2),
    ("p cnf 0 0\n", 2),
], ids=["form-feed-comment", "header-prefix", "zero-counts"])
def test_bench_reads_a_dimacs_header_by_its_fields(tmp_path, capsys, text, code):
    path = tmp_path / "one.cnf"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "bench.jsonl"
    assert run_cli("bench", "--task", "sat", "--instances", str(path), "--seed", "0",
                   "--out", str(out)) == code
    assert out.exists() == (code == 0)
    if code:
        assert "line 1: " in capsys.readouterr().err


# --- a bad setting stops the run before its first sample -------------------

@pytest.mark.parametrize("line", ["steps = abc", "weights = 1.0,x", "weights = nan",
                                  "weights = inf"])
def test_malformed_config_value_is_usage_error(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[run]\n{line}\n", encoding="utf-8")
    out = tmp_path / "bench.jsonl"
    code = run_cli("bench", "--task", "sat", "--n-samples", "2",
                   "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert not out.exists()


def test_ablate_malformed_list_item_is_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    with pytest.raises(SystemExit) as err:
        run_cli("ablate", "--task", "sat", "--css", "1,x", "--n-samples", "2",
                "--out", str(out_dir))
    assert err.value.code == 2
    assert list(out_dir.glob("*")) == []


def test_ablate_checks_every_arm_before_the_first_runs(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code = run_cli("ablate", "--task", "sat", "--steps", "4", "--css", "4",
                   "--rounds", "2", "--eps", "0.1,2", "--n-samples", "2",
                   "--out", str(out_dir))
    assert code == 2
    assert list(out_dir.glob("*")) == []


@pytest.mark.parametrize("command", ["bench", "sample"])
def test_weight_arity_fails_the_run_not_each_sample(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nweights = 1.0,2.0\n", encoding="utf-8")
    out = tmp_path / "bench.jsonl"
    # sample runs one instance and takes neither --n-samples nor --out
    files = [] if command == "sample" else ["--n-samples", "3", "--out", str(out)]
    code = run_cli(command, "--task", "sat", "--steps", "4", "--css", "4",
                   "--rounds", "2", "--config", str(cfg), *files)
    assert code == 2
    assert "weights" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bench", "sample"])
def test_instances_file_without_instances_is_usage_error(tmp_path, capsys, command):
    puzzles = tmp_path / "puzzles.txt"
    puzzles.write_text("# no boards\n", encoding="utf-8")
    out = tmp_path / "bench.jsonl"
    files = [] if command == "sample" else ["--out", str(out)]
    code = run_cli(command, "--task", "sudoku", "--instances", str(puzzles), *files)
    assert code == 2
    assert "no instances" in capsys.readouterr().err
    assert list(tmp_path.glob("bench*")) == []
    # a missing path, and a directory given for Sudoku, were runtime errors (exit 1)
    for task, path in [("sat", tmp_path / "missing.cnf"), ("sudoku", tmp_path / "missing"),
                       ("sudoku", tmp_path)]:
        code = run_cli(command, "--task", task, "--instances", str(path), *files)
        assert code == 2
        assert "cannot read instances" in capsys.readouterr().err
        assert list(tmp_path.glob("bench*")) == []


@pytest.mark.parametrize("command", ["bench", "sample"])
@pytest.mark.parametrize("flag", ["--config", "--instances"])
def test_non_utf8_config_or_instances_is_usage_error(tmp_path, capsys, command, flag):
    path = tmp_path / "input"
    path.write_bytes(b"\xff[run]\n")
    out = tmp_path / "bench.jsonl"
    files = [] if command == "sample" else ["--out", str(out)]
    assert run_cli(command, "--task", "sat", flag, str(path), *files) == 2
    assert "cannot read" in capsys.readouterr().err
    assert not out.exists()

@pytest.mark.parametrize("case", ["missing key", "unknown key", "truncated"])
def test_summarize_malformed_record_is_usage_error(tmp_path, capsys, case):
    # a record line that is not JSON once blamed the header: "not a result file"
    path = tmp_path / "bench.jsonl"
    assert run_cli("bench", "--task", "sat", "--steps", "2", "--css", "2",
                   "--rounds", "2", "--n-samples", "2", "--out", str(path)) == 0
    header, first, second = path.read_text(encoding="utf-8").splitlines()
    bad = {"missing key": json.dumps({"index": 0}),
           "unknown key": json.dumps({**json.loads(second), "colour": "blue"}),
           "truncated": second[:len(second) // 2]}[case]
    path.write_text("\n".join([header, first, bad]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("summarize", str(path)) == 2
    assert "malformed record 2" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("index", True), ("index", 1.0), ("instance", 3), ("feasible", 1), ("violations", [None]),
    ("violations", "ab"), ("total", "x"), ("total", True), ("rounds", "2"), ("value", None),
    ("error", 0)])
def test_summarize_record_field_of_another_type_is_usage_error(tmp_path, capsys, field, value):
    # a text total loaded, and summarize then failed adding it up (exit 1)
    path = tmp_path / "bench.jsonl"
    assert run_cli("bench", "--task", "sat", "--steps", "2", "--css", "2",
                   "--rounds", "2", "--n-samples", "1", "--out", str(path)) == 0
    header, record = path.read_text(encoding="utf-8").splitlines()
    record = json.dumps({**json.loads(record), field: value})
    path.write_text("\n".join([header, record]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("summarize", str(path)) == 2
    err = capsys.readouterr().err
    assert "malformed record 1" in err and f"{field} is" in err


@pytest.mark.parametrize("constraints", ["abc", [1], None])
def test_summarize_header_constraints_not_a_list_of_names_is_usage_error(
        tmp_path, capsys, constraints):
    # the text "abc" was read as three constraints, each with its own summary column
    path = tmp_path / "bench.jsonl"
    assert run_cli("bench", "--task", "sat", "--steps", "2", "--css", "2",
                   "--rounds", "2", "--n-samples", "1", "--out", str(path)) == 0
    header, record = path.read_text(encoding="utf-8").splitlines()
    header = json.dumps({**json.loads(header), "constraints": constraints})
    path.write_text("\n".join([header, record]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("summarize", str(path)) == 2
    assert "malformed header" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["no config", "unknown config key", "config list",
                                  "empty instances"])
def test_summarize_malformed_header_is_usage_error(tmp_path, capsys, case):
    path = tmp_path / "bench.jsonl"
    assert run_cli("bench", "--task", "sat", "--steps", "2", "--css", "2",
                   "--rounds", "2", "--n-samples", "1", "--out", str(path)) == 0
    header, record = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(header)
    if case == "no config":
        del header["config"]
    elif case == "unknown config key":
        header["config"]["colour"] = "blue"
    elif case == "empty instances":  # it once meant "generate them"
        header["config"]["instances"] = ""
    else:
        header["config"] = []
    path.write_text("\n".join([json.dumps(header), record]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("summarize", str(path)) == 2
    assert "malformed header" in capsys.readouterr().err


def test_summarize_non_json_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "notes.jsonl"
    path.write_text("{oops\n", encoding="utf-8")
    assert run_cli("summarize", str(path)) == 2
    assert "not a result file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bench", "ablate", "sample"])
@pytest.mark.parametrize("case", ["missing", "not utf-8", "malformed"])
def test_unusable_table_fails_the_run_not_each_sample(tmp_path, capsys, command, case):
    table = tmp_path / "table.tsv"
    if case == "not utf-8":
        table.write_bytes(b"\xff??\t0\t0.5,0.5\n")
    elif case == "malformed":
        table.write_text("??\t0\n", encoding="utf-8")
    out = tmp_path / "runs"
    files = [] if command == "sample" else ["--n-samples", "3", "--out", str(out)]
    code = run_cli(command, "--task", "sat", "--steps", "2", "--seed", "0",
                   "--denoiser", f"table:{table}", *files)
    assert code == 2
    err = capsys.readouterr().err
    assert ("line 1" if case == "malformed" else "cannot read table") in err
    assert list(tmp_path.glob("runs*")) == []


@pytest.mark.parametrize("command", ["bench", "ablate", "sample"])
@pytest.mark.parametrize("denoiser", ["exact", "noisy"])
def test_exact_denoiser_for_peptides_is_usage_error(tmp_path, capsys, command, denoiser):
    out = tmp_path / "runs"
    files = [] if command == "sample" else ["--n-samples", "2", "--out", str(out)]
    code = run_cli(command, "--task", "peptide", "--steps", "2", "--denoiser", denoiser,
                   *files)
    assert code == 2
    assert "enumerable" in capsys.readouterr().err
    assert list(tmp_path.glob("runs*")) == []


def test_a_run_whose_samples_all_failed_reports_no_means(tmp_path, capsys):
    # a run with no finished sample has no mean (0.0 would read as a perfect
    # run), and stderr says how many samples failed; the exit code stays 0
    puzzles = tmp_path / "clash.txt"
    puzzles.write_text("11..............\n22..............\n", encoding="utf-8")
    out = tmp_path / "clash.jsonl"
    code = run_cli("bench", "--task", "sudoku", "--instances", str(puzzles),
                   "--out", str(out))
    captured = capsys.readouterr()
    assert code == 0
    assert "# 2 of 2 samples failed\n" in captured.err
    records = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    assert [r["total"] for r in records] == [None, None]
    assert all("no completion" in r["error"] for r in records)
    for text in (captured.out, out.with_suffix(".summary.csv").read_text()):
        header, row = text.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["errors"] == "2"
        assert cells["mean_violation"] == cells["mean_rounds"] == ""
    assert run_cli("summarize", str(out), str(out)) == 0
    captured = capsys.readouterr()
    assert captured.err.count("# 2 of 2 samples failed (") == 2
    assert captured.out.strip().splitlines()[1].split(",")[5:7] == ["", ""]


def test_a_run_of_no_samples_reports_no_feasibility(tmp_path, capsys):
    # zero samples read as feasibility 0.0 and delta 0.0, next to empty means
    out = tmp_path / "empty.jsonl"
    assert run_cli("bench", "--task", "sat", "--n-samples", "0", "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert len(out.read_text().splitlines()) == 1
    for text in (captured.out, out.with_suffix(".summary.csv").read_text()):
        header, row = text.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["samples"] == cells["feasible"] == "0"
        assert cells["feasibility"] == cells["delta_feasibility"] == ""
        assert cells["mean_violation"] == cells["mean_rounds"] == ""


def test_a_run_without_failures_reports_none_on_stderr(tmp_path, capsys):
    out = tmp_path / "ok.jsonl"
    assert run_cli("bench", "--task", "sat", "--steps", "3", "--css", "2",
                   "--n-samples", "2", "--seed", "1", "--out", str(out)) == 0
    assert "failed" not in capsys.readouterr().err


def test_a_runtime_error_exits_1(monkeypatch, capsys):
    import mdsearch.harness.cli as cli

    def fail(cfg):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(cli, "run_experiment", fail)
    assert run_cli("bench", "--task", "sat", "--n-samples", "1") == 1
    assert "error: disk on fire" in capsys.readouterr().err


@pytest.mark.parametrize("command, out, message", [
    ("bench", "file/x.jsonl", "cannot make output directory"),
    ("ablate", "file/sweep", "cannot make output directory"),
    ("bench", "dir", "is a directory"),
    ("bench", "o/run.jsonl", "is a directory"),
    ("ablate", "a", "is a directory"),
    ("ablate", "arms", "is a directory"),
    ("summarize", "file/x.csv", "cannot make output directory"),
    ("summarize", "dir", "is a directory"),
], ids=["bench", "ablate", "bench-directory", "bench-summary-directory",
        "ablate-summary-directory", "ablate-last-arm-directory", "summarize",
        "summarize-directory"])
def test_an_output_path_that_cannot_be_made_is_usage_error(tmp_path, capsys, monkeypatch,
                                                           command, out, message):
    # a file where the output directory should go, or a directory where an
    # output file should go (a run's summary CSV, a sweep's summary.csv or
    # its last arm's results), failed only after every sample or result file
    import mdsearch.harness.cli as cli
    import mdsearch.harness.runner as runner

    calls = []
    monkeypatch.setattr(runner, "run_sample", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "load_results", lambda *args: calls.append(args))
    (tmp_path / "file").write_text("", encoding="utf-8")
    (tmp_path / "dir").mkdir()
    (tmp_path / "o" / "run.summary.csv").mkdir(parents=True)
    (tmp_path / "a" / "summary.csv").mkdir(parents=True)
    (tmp_path / "arms" / "sat-all_steps-M32-T20-eps0p5.jsonl").mkdir(parents=True)
    inputs = ([str(tmp_path / "results.jsonl")] if command == "summarize"
              else ["--task", "sat", "--n-samples", "3"])
    if command == "ablate":
        inputs += ["--search", "off,all"]
    made = sorted(tmp_path.rglob("*"))
    code = run_cli(command, *inputs, "--out", str(tmp_path / out))
    assert code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert calls == [] and sorted(tmp_path.rglob("*")) == made


@pytest.mark.parametrize("command, flag", [
    ("bench", "--out"), ("bench", "--instances"), ("sample", "--instances"),
    ("ablate", "--out"), ("ablate", "--instances"), ("summarize", "--out"),
])
def test_an_empty_out_or_instances_is_usage_error(tmp_path, capsys, monkeypatch, command, flag):
    # an empty --out wrote no file and an empty --instances generated instances,
    # both with exit 0
    import mdsearch.harness.cli as cli
    import mdsearch.harness.runner as runner

    calls = []
    monkeypatch.setattr(runner, "run_sample", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "run_sample", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "load_results", lambda *args: calls.append(args))
    monkeypatch.chdir(tmp_path)
    inputs = {"summarize": ["results.jsonl"], "sample": ["--task", "sat"]}.get(
        command, ["--task", "sat", "--n-samples", "2"])
    assert run_cli(command, *inputs, flag, "") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert calls == [] and list(tmp_path.iterdir()) == []
