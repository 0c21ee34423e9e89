"""Spans around calls into mdsearch's layers, recorded from outside the package.

``installed(tracer)`` wraps the layers' public functions and methods on
their modules and classes, and restores the originals on exit. Every
wrapped call records a span (name, start, end, parent span, sample id) in
flat in-memory arrays; ``per_layer`` turns them into the per-layer metrics
after the run. Scalar tracker ``peek`` calls are only counted, since a span
each would dominate the cost of ``peek_block``.

Work the tracer does itself after a wrapped call (reading result fields,
re-checking the exact posterior's support) runs inside a ``trace.hook``
span, so it lands in no layer's self time.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from mdsearch import denoise, search, tasks
from mdsearch.constraints import base as constraint_base
from mdsearch.constraints import sat
from mdsearch.harness import runner

HOOK = "trace.hook"
ROOTS = ("search.sample", "search.score")  # the spans run_pass opens per sample


class Tracer:
    """In-memory span store; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.sample = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.sample_id = -1
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.sample.append(self.sample_id)
        self.end.append(-1)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        if self.stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "sample": np.frombuffer(self.sample, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.int64),
                "end": np.frombuffer(self.end, dtype=np.int64)}

    def dump(self, path) -> None:
        """Write every span, plus the name table and counters, to ``path``."""
        counters = sorted(self.counts.items())
        np.savez_compressed(path, names=np.array(self.names),
                            counter_names=np.array([k for k, _ in counters]),
                            counter_values=np.array([v for _, v in counters]),
                            **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans are recorded from one thread, so the children of a span never
    overlap each other and their durations add up to the time they cover.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


# --- wrappers ---------------------------------------------------------------

def _wrap(tracer: Tracer, fn, name: str, after=None):
    nid = tracer.name_id(name)
    hook = tracer.name_id(HOOK)

    def wrapped(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            h = tracer.open(hook)
            try:
                after(tracer, args, kwargs, result)
            finally:
                tracer.close(h)
        return result

    wrapped.__wrapped__ = fn
    return wrapped


def _count(tracer: Tracer, fn, counter: str):
    def wrapped(*args, **kwargs):
        tracer.counts[counter] += 1
        return fn(*args, **kwargs)

    wrapped.__wrapped__ = fn
    return wrapped


def _arg(args, kwargs, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _after_pool(tracer, args, kwargs, pick):
    count = _arg(args, kwargs, 2, "count")
    tracer.counts["pool_draws"] += count
    if count > 1:
        tracer.counts["pool_multi_calls"] += 1
        tracer.counts["pool_improved"] += pick.report.total < pick.first_total


def _after_refine(tracer, args, kwargs, result):
    cap = _arg(args, kwargs, 5, "max_rounds")
    tracer.counts["refine_rounds"] += result.rounds
    if result.report.total == 0:
        tracer.counts["refine_stop_zero"] += 1
    elif cap is not None and result.rounds >= cap:
        tracer.counts["refine_stop_cap"] += 1
    else:
        tracer.counts["refine_stop_local"] += 1


def _after_exact(tracer, args, kwargs, rows):
    # The package does not report its uniform fallback; recompute the test
    # exact_posterior makes: is any support row consistent with the input?
    self, values = args[0], np.asarray(_arg(args, kwargs, 1, "values"))
    observed = np.flatnonzero(values != self.vocab.mask_id)
    support = self.dist.support
    consistent = np.all(support[:, observed] == values[observed], axis=1)
    tracer.counts["exact_calls"] += 1
    tracer.counts["exact_fallbacks"] += not consistent.any()


def _after_enum(tracer, args, kwargs, dist):
    tracer.counts["support_rows"] += dist.support.shape[0]


def _after_formula(tracer, args, kwargs, formula):
    tracer.counts["formulas"] += 1


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += [c for c in _subclasses(sub) if c not in out]
    return out


def _targets(tracer: Tracer):
    """(owner, attribute, wrapper) for every traced boundary."""
    found = [
        (search, "best_of_pool", _wrap(tracer, search.best_of_pool, "search.pool", _after_pool)),
        (search, "refine", _wrap(tracer, search.refine, "search.refine", _after_refine)),
        (search, "check_rows", _wrap(tracer, search.check_rows, "denoise.check_rows")),
        (search, "guided_reverse_step",
         _wrap(tracer, search.guided_reverse_step, "diffusion.step")),
        (search, "vanilla_reverse_step",
         _wrap(tracer, search.vanilla_reverse_step, "diffusion.step")),
        (tasks, "exact_distribution",
         _wrap(tracer, tasks.exact_distribution, "tasks.enum", _after_enum)),
        (runner, "random_formula",
         _wrap(tracer, runner.random_formula, "harness.gen", _after_formula)),
        (runner, "random_puzzle", _wrap(tracer, runner.random_puzzle, "harness.gen")),
        (sat, "is_satisfiable", _wrap(tracer, sat.is_satisfiable, "harness.sat_check")),
    ]
    for cls in _subclasses(denoise.Denoiser):
        if "denoise" in vars(cls) and cls is not denoise.Denoiser:
            after = _after_exact if cls is denoise.ExactPosteriorDenoiser else None
            found.append((cls, "denoise",
                          _wrap(tracer, vars(cls)["denoise"], "denoise.denoise", after)))
    for cls in _subclasses(constraint_base.Constraint):
        for attr, name in (("violation", "constraints.violation"),
                           ("tracker", "constraints.tracker_init")):
            if attr in vars(cls):
                found.append((cls, attr, _wrap(tracer, vars(cls)[attr], name)))
    for cls in _subclasses(constraint_base.ViolationTracker):
        for attr, name in (("peek_block", "constraints.peek_block"),
                           ("commit", "constraints.commit")):
            if attr in vars(cls):
                found.append((cls, attr, _wrap(tracer, vars(cls)[attr], name)))
        if "peek" in vars(cls):
            found.append((cls, "peek", _count(tracer, vars(cls)["peek"], "scalar_peeks")))
    return found


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced boundary for the duration of the block."""
    saved = []
    try:
        for owner, attr, wrapper in _targets(tracer):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- per-layer metrics --------------------------------------------------------

def _timed(tracer: Tracer):
    """Span arrays plus each span's duration and self time, in seconds."""
    a = tracer.arrays()
    duration = (a["end"] - a["start"]).astype(np.float64) / 1e9
    return a, duration, self_times(a["parent"], duration)


def _ratio(a, b) -> float:
    return float(a) / float(b) if b else 0.0


def per_layer(tracer: Tracer, steps: int, committed_steps: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counters.

    ``steps`` and ``committed_steps`` come from the sample traces: reverse
    steps run, and steps that unmasked at least one position. Setup spans
    (sample id -1) feed the harness and tasks metrics; the others feed the
    sampling layers.
    """
    a, duration, own = _timed(tracer)
    ids = {n: i for i, n in enumerate(tracer.names)}
    n_names = len(tracer.names)
    calls = np.bincount(a["name"], minlength=n_names)
    incl = np.bincount(a["name"], weights=duration, minlength=n_names)
    slf = np.bincount(a["name"], weights=own, minlength=n_names)

    def get(table, name):
        return float(table[ids[name]]) if name in ids else 0.0

    c = tracer.counts
    den = a["name"] == ids.get("denoise.denoise", -1)
    parent_is_den = np.zeros(len(duration), bool)
    has_parent = a["parent"] >= 0
    parent_is_den[has_parent] = den[a["parent"][has_parent]]
    denoise_calls = int((den & ~parent_is_den).sum())
    denoise_self = get(slf, "denoise.denoise")
    return {
        "harness.gen_s": get(incl, "harness.gen"),
        "harness.gen_draws": get(calls, "harness.sat_check"),
        "harness.gen_accept_ratio": _ratio(c["formulas"], get(calls, "harness.sat_check")),
        "tasks.enum_s": get(incl, "tasks.enum"),
        "tasks.enum_calls": get(calls, "tasks.enum"),
        "tasks.support_rows_mean": _ratio(c["support_rows"], get(calls, "tasks.enum")),
        "denoise.calls": float(denoise_calls),
        "denoise.self_s": denoise_self,
        "denoise.us_per_call": 1e6 * _ratio(denoise_self, denoise_calls),
        "denoise.check_rows_s": get(slf, "denoise.check_rows"),
        "denoise.fallback_frac": _ratio(c["exact_fallbacks"], c["exact_calls"]),
        "search.pool_calls": get(calls, "search.pool"),
        "search.pool_draws": float(c["pool_draws"]),
        "search.pool_self_s": get(slf, "search.pool"),
        "search.pool_us_per_draw": 1e6 * _ratio(get(incl, "search.pool"), c["pool_draws"]),
        "search.pool_improved_frac": _ratio(c["pool_improved"], c["pool_multi_calls"]),
        "search.refine_calls": get(calls, "search.refine"),
        "search.refine_rounds": float(c["refine_rounds"]),
        "search.refine_self_s": get(slf, "search.refine"),
        "search.refine_us_per_round": 1e6 * _ratio(get(incl, "search.refine"),
                                                   c["refine_rounds"]),
        "search.refine_stop_cap": float(c["refine_stop_cap"]),
        "search.refine_stop_local": float(c["refine_stop_local"]),
        "search.refine_stop_zero": float(c["refine_stop_zero"]),
        "search.steps": float(steps),
        "search.noop_denoise_calls": float(denoise_calls - committed_steps),
        "search.sample_self_s": get(slf, "search.sample"),
        "constraints.violation_calls": get(calls, "constraints.violation"),
        "constraints.violation_s": get(incl, "constraints.violation"),
        "constraints.tracker_init_s": get(incl, "constraints.tracker_init"),
        "constraints.peek_block_calls": get(calls, "constraints.peek_block"),
        "constraints.peek_block_s": get(incl, "constraints.peek_block"),
        "constraints.scalar_peek_calls": float(c["scalar_peeks"]),
        "constraints.commit_s": get(incl, "constraints.commit"),
        "diffusion.step_calls": get(calls, "diffusion.step"),
        "diffusion.step_s": get(incl, "diffusion.step"),
    }


def accounted_seconds(tracer: Tracer) -> dict[str, float]:
    """Self time per span name over the sampling spans (sample id >= 0)."""
    a, _, own = _timed(tracer)
    keep = a["sample"] >= 0
    totals = np.bincount(a["name"][keep], weights=own[keep], minlength=len(tracer.names))
    return {name: float(totals[i]) for i, name in enumerate(tracer.names) if totals[i]}


def uncovered_seconds(tracer: Tracer) -> float:
    """Self time of the per-sample root spans: sampling time no layer span covers.

    The self times of all sampling spans add up to the roots' durations by
    construction, so that sum checks nothing. A layer whose calls no wrapper
    sees, though, puts its time here.
    """
    accounted = accounted_seconds(tracer)
    return sum(accounted.get(name, 0.0) for name in ROOTS)
