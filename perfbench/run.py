"""mdsearch benchmark: one workload, one seed, checked outputs, JSON metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload presets --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed,
each time corrected for the host's speed at that moment (``hostspeed.py``).
``--trace 1`` is the separate traced run: it runs the jobs once untraced
and once traced, each on a set-up of its own (the traced one built under
tracing), and reports the per-layer metrics plus the tracing overhead
(traced minus untraced wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed, 1 when a check failed, and 2 when the source tree
or the arguments are unusable (no result is printed then).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
PARITY_SAMPLES = 2
TAIL_BEYOND = 10  # samples beyond the tail percentile
UNCOVERED_TOL = 0.2  # share of traced sampling time no layer span may cover


def git_state() -> dict:
    """SHA and dirty flag of the checkout, or ``unknown`` outside a git tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=30)
        if top.returncode != 0 or Path(top.stdout.split()[0]).resolve() != ROOT:
            return {"git_sha": "unknown", "git_dirty": None}
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30)
        return {"git_sha": top.stdout.split()[1],
                "git_dirty": bool(status.stdout.strip()) if status.returncode == 0 else None}
    except (OSError, subprocess.SubprocessError, IndexError):
        return {"git_sha": "unknown", "git_dirty": None}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload, seed: int, seconds: int, trace: int) -> dict:
    env = git_state()
    env.update({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": workload.params(),
    })
    return env


def timing_summary(seconds, streams) -> dict:
    """Per-sample wall-time statistics over every attempted sample.

    The median is taken within each stream and averaged over the streams:
    the presets mix three tasks whose sample times form separate clusters,
    and the median of the mixture sits in the gap between two of them,
    where a small shift of either moves it a lot.
    """
    ms = [s * 1e3 for s in seconds]
    by_stream: dict[int, list[float]] = {}
    for stream, value in zip(streams, ms):
        by_stream.setdefault(stream, []).append(value)
    ordered = sorted(ms)
    n = len(ordered)
    tail_index = max(0, n - 1 - TAIL_BEYOND)
    return {
        "p50_ms": statistics.fmean(statistics.median(v) for v in by_stream.values()),
        "p50_ms_by_stream": [statistics.median(by_stream[k]) for k in sorted(by_stream)],
        "tail_ms": ordered[tail_index],
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "tail_count": n,
        "total_s": sum(ms) / 1e3,
    }


def quality(outcomes) -> dict:
    done = [o for o in outcomes if o.error is None]
    totals = [o.report.total for o in done]
    errors: dict[str, int] = {}
    for o in outcomes:
        if o.error is not None:
            errors[o.error] = errors.get(o.error, 0) + 1
    return {
        "attempted": len(outcomes),
        "finished": len(done),
        "feasible_frac": sum(t == 0 for t in totals) / len(outcomes),
        "mean_violation": sum(totals) / len(totals) if totals else 0.0,
        "error_frac": (len(outcomes) - len(done)) / len(outcomes),
        "errors_by_class": errors,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, bench) -> tuple[dict, dict, list[str]]:
    """Set up ``SETUP_REPEATS`` times, then run every job once on each of the
    last ``PASSES`` set-ups, one pass after the other.

    Every time is corrected for the host's speed (see ``hostspeed``).
    ``samples_per_s`` and ``sample_ms_p50`` come from the faster pass. The
    tail takes each job's faster corrected run, which keeps momentary
    stalls out of it; for the sum and the median that per-job minimum
    would favour whichever pass the correction happened to err low on, and
    so spread more on a host whose speed changes within a run. The set-ups
    are built independently, so nothing one run caches in a denoiser or
    instance carries over to another.
    """
    from hostspeed import HostSpeed, corrected_setup
    from workloads import PASSES, run_pass, set_up

    host = HostSpeed()
    raw_setup, setup, built = [], [], []
    before = host.burst()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        built = built[-(PASSES - 1):] + [set_up(workload)]
        raw_setup.append(time.perf_counter() - started)
        after = host.burst()
        setup.append(corrected_setup(raw_setup[-1], before, after))
        before = after
    runs = []
    for streams in built:
        gc.collect()
        runs.append(run_pass(workload, streams, host=host))
    outcomes = runs[0]
    problems = bench.check_outcomes(workload, built[0], outcomes)
    if not any(o.error is None for o in outcomes):
        problems.append("no sample finished")
    problems += bench.check_parity(workload, built[0], outcomes, PARITY_SAMPLES)
    if not all(same_outputs(outcomes, other) for other in runs[1:]):
        problems.append("a rerun of the same jobs gave different outputs")
    q = quality(outcomes)
    streams = [job.stream for job in workload.jobs]
    raw = [[o.seconds for o in run] for run in runs]
    slowdown = [host.slowdown([o.started for o in run]) for run in runs]
    corrected = [[t / f for t, f in zip(ts, fs)] for ts, fs in zip(raw, slowdown)]
    passes = [timing_summary(ts, streams) for ts in corrected]
    passes_raw = [timing_summary(ts, streams) for ts in raw]
    t = timing_summary([min(tries) for tries in zip(*corrected)], streams)
    t_raw = timing_summary([min(tries) for tries in zip(*raw)], streams)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "samples_per_s": metric(q["finished"] / min(r["total_s"] for r in passes), "1/s"),
        "sample_ms_p50": metric(min(r["p50_ms"] for r in passes), "ms"),
        "sample_ms_tail": metric(t["tail_ms"], "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
        "violation_score": metric(workload.violation_floor + q["mean_violation"],
                                  "violation"),
        "completed_frac": metric(q["finished"] / q["attempted"], "frac"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    all_slowdown = np.concatenate(slowdown)
    detail = {"quality": q, "timing": t, "setup_s": setup,
              "uncorrected": {"timing": t_raw,
                              "samples_per_s": q["finished"] / min(r["total_s"]
                                                                   for r in passes_raw),
                              "sample_ms_p50": min(r["p50_ms"] for r in passes_raw),
                              "setup_s": raw_setup},
              "host_slowdown": {"median": float(np.median(all_slowdown)),
                                "min": float(all_slowdown.min()),
                                "max": float(all_slowdown.max()),
                                "reference_runs": len(host.seconds)},
              "runs": passes}
    return metrics, detail, problems


def same_outputs(a, b) -> bool:
    return all(x.error == y.error and (x.error is not None or (
        x.final.tobytes() == y.final.tobytes() and x.report.values == y.report.values))
        for x, y in zip(a, b))


def run_traced(workload, bench) -> tuple[dict, dict, list[str]]:
    from tracing import Tracer, accounted_seconds, installed, per_layer, uncovered_seconds
    from workloads import run_pass, set_up

    tracer = Tracer()
    plain_streams = set_up(workload)
    with installed(tracer):
        streams = set_up(workload)
    gc.collect()
    plain = run_pass(workload, plain_streams)
    gc.collect()
    with installed(tracer):
        traced = run_pass(workload, streams, tracer)
    # wall time of the timed calls (sample plus final scoring), summed per sample
    plain_wall = sum(o.seconds for o in plain)
    traced_wall = sum(o.seconds for o in traced)
    problems = []
    if tracer.stack:
        problems.append(f"{len(tracer.stack)} spans left open")
    if not same_outputs(plain, traced):
        problems.append("tracing changed a sample's output")
    problems += bench.check_outcomes(workload, streams, traced)
    problems += bench.check_parity(workload, streams, traced, PARITY_SAMPLES)
    done = [o for o in traced if o.error is None]
    steps = sum(len(o.steps) for o in done)
    committed_steps = sum(1 for o in done for r in o.steps if r.committed > 0)
    metrics = per_layer(tracer, steps, committed_steps)
    accounted = accounted_seconds(tracer)
    uncovered = uncovered_seconds(tracer)
    uncovered_frac = uncovered / traced_wall if traced_wall else 0.0
    if uncovered_frac > UNCOVERED_TOL:
        problems.append(f"no layer span covers {uncovered:.3f}s of {traced_wall:.3f}s "
                        f"traced sampling time (tolerance {UNCOVERED_TOL:.0%})")
    q = quality(traced)
    metrics.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.hook_s": accounted.get("trace.hook", 0.0),
        "trace.uncovered_frac": uncovered_frac,
        "trace.spans": float(len(tracer.name)),
        "outcome.feasible_frac": q["feasible_frac"],
        "outcome.mean_violation": q["mean_violation"],
        "outcome.error_frac": q["error_frac"],
    })
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{workload.streams[0].seed}.npz"
    tracer.dump(spans_path)
    detail = {"quality": q, "self_seconds": accounted,
              "spans_file": spans_path.name}
    return {k: metric(v, layer_unit(k)) for k, v in metrics.items()}, detail, problems


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if "us_per_" in name:
        return "us"
    if name.endswith(("_frac", "_ratio")):
        return "frac"
    if name.endswith("_mean"):
        return "rows"
    if name.endswith("_violation"):
        return "violation"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        print("--seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "mdsearch" / "__init__.py").is_file():
        print(f"no mdsearch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks as bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    measure = run_traced if args.trace else run_untraced
    metrics, detail, problems = measure(workload, bench)
    q = detail["quality"]
    record = {"environment": environment(workload, args.seed, args.seconds, args.trace),
              "metrics": metrics, "detail": detail, "problems": problems}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for problem in problems:
        print("CHECK FAILED " + problem)
    print(f"samples {q['attempted']} finished {q['finished']} feasible_frac "
          f"{q['feasible_frac']:.4f} mean_violation {q['mean_violation']:.4f} "
          f"error_frac {q['error_frac']:.4f} errors {q['errors_by_class']}")
    if "timing" in detail:
        t = detail["timing"]
        print(f"sample_ms_tail is p{t['tail_percentile']:.2f} of {t['tail_count']} samples")
        for i, run in enumerate(detail["runs"]):
            print(f"run {i}: sample_ms_p50 {run['p50_ms']:.6g} sample_ms_tail "
                  f"{run['tail_ms']:.6g} sampling_s {run['total_s']:.6g}")
        raw, slow = detail["uncorrected"], detail["host_slowdown"]
        print(f"uncorrected: samples_per_s {raw['samples_per_s']:.6g} sample_ms_p50 "
              f"{raw['sample_ms_p50']:.6g} sample_ms_tail {raw['timing']['tail_ms']:.6g} "
              f"setup_s {statistics.median(raw['setup_s']):.6g}; host slowdown median "
              f"{slow['median']:.3f}, range {slow['min']:.3f}-{slow['max']:.3f}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": q["attempted"],
                      "failed": q["attempted"] - q["finished"], "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
