"""Command-line interface.

Subcommands: ``sample`` (one instance with a printed trace), ``bench``
(preset experiment), ``ablate`` (sweeps), ``summarize`` (tables from result
files). Exit codes: 0 success, 2 usage/configuration error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from ..errors import ConfigError, ParseError
from .configio import TASKS, RunConfig, load_config
from .runner import (
    ablate,
    load_results,
    make_output_directory,
    presets,
    render_summary_csv,
    run_experiment,
    run_instances,
    run_sample,
    summarize_records,
    write_summary_csv,
)

_SEARCH_NAMES = {"last": "last_step", "all": "all_steps"}


def _search_name(text: str) -> str:
    return _SEARCH_NAMES.get(text, text)  # RunConfig rejects unknown names


def _comma_list(convert):
    """argparse type: ``1,4`` gives ``[convert("1"), convert("4")]``."""
    def listed(text):
        return [convert(item) for item in text.split(",")]
    listed.__name__ = f"{convert.__name__} list"  # named in argparse's errors
    return listed


def _add_run_flags(parser: argparse.ArgumentParser, lists: bool = False):
    kind = _comma_list if lists else (lambda convert: convert)
    parser.add_argument("--task", choices=TASKS)
    parser.add_argument("--steps", type=kind(int), help="denoising steps T")
    parser.add_argument("--css", type=kind(int), dest="candidates",
                        help="proposal pool size per step")
    parser.add_argument("--rounds", type=int, help="refinement round cap")
    parser.add_argument("--search", type=kind(_search_name), dest="placement",
                        help="off|last|all")
    parser.add_argument("--eps", type=kind(float), dest="epsilon",
                        help="denoiser corruption weight")
    parser.add_argument("--denoiser", help="exact|noisy|uniform|table:PATH")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--instances", help="DIMACS file/dir or sudoku lines file")
    parser.add_argument("--config", help="config file; flags override it")


def _merge_config(args: argparse.Namespace, skip=(), refused=()) -> RunConfig:
    """The task preset, then the config file (which may set no field in
    ``refused``), then every flag that was given."""
    base = presets()[args.task] if args.task else RunConfig()
    if args.config:
        base = load_config(args.config, base, refused)
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                 if f.name not in skip and getattr(args, f.name, None) is not None}
    return replace(base, **overrides)


def _cmd_sample(args) -> int:
    # one sample and no file: a config file's out or num_samples is refused, as the flags are
    cfg = replace(_merge_config(args, refused=("num_samples", "out")), num_samples=1)
    instances, tables = run_instances(cfg)
    instance = instances[0]
    final, trace, report = run_sample(cfg, instance, 0, tables)
    print(f"# instance {instance.name} T={cfg.steps}")
    for record in trace:
        if record.first_violation is None:
            print(f"t={record.t:3d} committed={record.committed}")
        else:
            print(f"t={record.t:3d} first={record.first_violation:g} "
                  f"pool={record.pool_violation:g} "
                  f"refined={record.refined_violation:g} "
                  f"rounds={record.rounds} committed={record.committed}")
    names = ", ".join(f"{c.name}={v:g}"
                      for c, v in zip(instance.constraints, report.values))
    print(f"result {instance.render(final)}")
    print(f"violations {names} total={report.total:g} feasible={report.feasible}")
    return 0


def _print_summary(results, out=None) -> int:
    """Print the summary CSV of ``results``; write it to ``out`` as well when set.

    A run with failed samples adds ``# N of M samples failed`` to stderr,
    naming the run's label when there are several.
    """
    text = render_summary_csv(results)
    sys.stdout.write(text)
    for result in results:
        summary = summarize_records(result)
        if summary["errors"]:
            label = f" ({summary['label']})" if len(results) > 1 else ""
            print(f"# {summary['errors']} of {summary['samples']} samples failed{label}",
                  file=sys.stderr)
    if out:
        write_summary_csv(text, out)
    return 0


def _cmd_bench(args) -> int:
    cfg = _merge_config(args)
    _print_summary([run_experiment(cfg)])  # run_experiment writes the files
    if cfg.out:
        print(f"# wrote {cfg.out}", file=sys.stderr)
    return 0


def _cmd_ablate(args) -> int:
    # the swept axes are lists and --out names a directory: ablate takes them
    cfg = _merge_config(args, skip=("steps", "candidates", "placement", "epsilon",
                                    "out"))
    results = ablate(cfg, placements=args.placement, candidate_counts=args.candidates,
                     step_counts=args.steps, epsilons=args.epsilon, out_dir=args.out)
    return _print_summary(results)  # ablate writes the files


def _cmd_summarize(args) -> int:
    if args.out is not None:  # an empty path names the working directory: refused
        make_output_directory(args.out)
    return _print_summary([load_results(path) for path in args.results], args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdsearch",
        description="Constraint-guided sampling for masked discrete diffusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="run one instance and print its trace")
    _add_run_flags(p_sample)
    p_sample.set_defaults(func=_cmd_sample)

    p_bench = sub.add_parser("bench", help="run a preset experiment")
    _add_run_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_ablate = sub.add_parser("ablate", help="sweep search placement/pool/steps/eps")
    _add_run_flags(p_ablate, lists=True)
    p_ablate.set_defaults(func=_cmd_ablate)

    for p_run in (p_bench, p_ablate):  # sample runs one instance and writes no file
        p_run.add_argument("--n-samples", type=int, dest="num_samples")
        p_run.add_argument("--out", help="result file (JSON lines); ablate: its directory")

    p_sum = sub.add_parser("summarize", help="tabulate result files")
    p_sum.add_argument("results", nargs="+", help="JSON-lines result files")
    p_sum.add_argument("--out", help="write the CSV here as well")
    p_sum.set_defaults(func=_cmd_summarize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
