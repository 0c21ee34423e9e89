"""The reverse transitions and the violation-guided search between them.

At the reverse steps where the placement turns search on, the denoiser's
proposal is refined before the chain advances: draw a pool of fully
specified candidates from the proposal distribution (already-unmasked
positions clamped), keep the least-violating one, then greedily walk
single-token edits while the aggregate violation strictly decreases. The
refined candidate drives the guided reverse kernel. Every other step is
the plain reverse step, whose kernel checks the denoiser's rows itself.
Both kernels live here; :mod:`mdsearch.diffusion` holds the noise schedule
and its draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .constraints.base import Constraint, ViolationReport, drawn_violations
from .denoise import Denoiser, check_rows, probability_rows
from .diffusion import NoiseSchedule, first_hitting_steps, sample_rows
from .errors import (ConfigError, ContractError, SampleError, check_count, check_integers,
                     check_reals, check_sequence)
from .tasks import Instance
from .vocab import EditableRegion, Vocab, fully_masked, masked_positions

PLACEMENTS = ("off", "last_step", "all_steps")


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the per-step search.

    ``candidates`` is the proposal pool size per step, ``max_rounds`` caps
    greedy refinement (ignored for ``last_step`` placement, which refines
    until no improving neighbor remains), and ``allow_unmask_edits`` lets
    refinement edit the whole editable region; off, the sampler narrows
    the region it refines to the positions still masked. ``weights`` is
    ``None`` or a flat tuple of one number per constraint.
    """

    candidates: int = 32
    max_rounds: int = 16
    placement: str = "all_steps"
    allow_unmask_edits: bool = True
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        check_count(self.candidates, "candidates", 1)
        check_count(self.max_rounds, "max_rounds")
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"placement must be one of {PLACEMENTS}")
        if not isinstance(self.allow_unmask_edits, (bool, np.bool_)):
            raise ConfigError(f"allow_unmask_edits {self.allow_unmask_edits!r} is not a bool")
        if self.weights is not None and not (
                isinstance(self.weights, tuple)
                and check_reals(self.weights, "constraint weights", low=0).ndim == 1):
            raise ConfigError(f"constraint weights {self.weights!r} must be a flat tuple")


def resolve_weights(weights, constraints: tuple[Constraint, ...]) -> tuple[float, ...]:
    """One Python float per constraint; ``None`` weights each constraint 1."""
    if weights is None:
        return (1.0,) * len(constraints)
    weights = check_reals(weights, "weights", low=0, error=ContractError)
    if weights.shape != (len(constraints),):
        raise ContractError(
            f"weights of shape {weights.shape} for {len(constraints)} constraints")
    return tuple(weights.tolist())


def weighted_total(weights, parts, start=0.0):
    """``start`` plus each ``w * part`` in order; a part of weight 0 adds nothing, even inf."""
    return sum((w * part for w, part in zip(weights, parts) if w != 0), start)


def aggregate_violation(values: np.ndarray, constraints: tuple[Constraint, ...],
                        weights=None) -> ViolationReport:
    """Evaluate every constraint and fold the results into one report.

    One :meth:`~mdsearch.constraints.base.Constraint.violation` call per
    constraint checks the values and the constraint's output; the total is
    :func:`weighted_total` in constraint order, so a constraint of weight 0
    adds nothing to it, even where its violation is infinite.
    """
    w = resolve_weights(weights, constraints)
    parts = tuple(c.violation(values) for c in constraints)
    return ViolationReport(parts, weighted_total(w, parts))


def proposal_draws(rows: np.ndarray, x_t: np.ndarray, count: int,
                   rng: np.random.Generator, mask_id: int) -> np.ndarray:
    """``count`` independent proposal samples consistent with ``x_t``.

    ``x_t`` must pass :func:`~mdsearch.errors.check_sequence` with bound
    ``mask_id + 1``. Masked positions draw from the denoiser rows, one row
    per position, each ``mask_id`` tokens wide; unmasked positions are
    clamped to their current values. The rows at masked positions must pass
    :func:`~mdsearch.denoise.probability_rows`, else :class:`ContractError`.
    """
    check_count(count, "draw count", 1)
    x_t = check_sequence(x_t, "x_t", mask_id + 1)
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape != (len(x_t), mask_id):
        raise ContractError(f"rows of shape {rows.shape} for x_t of shape {x_t.shape}")
    draws = x_t[None].repeat(count, 0)
    masked = x_t == mask_id
    proposal = rows[masked]
    if not probability_rows(proposal):
        raise ContractError("rows at masked positions must be probability rows")
    draws[:, masked] = sample_rows(proposal, rng, count)
    return draws


class PoolPick(NamedTuple):
    candidate: np.ndarray
    report: ViolationReport
    first_total: float


def best_of_pool(rows: np.ndarray, x_t: np.ndarray, count: int,
                 constraints: tuple[Constraint, ...], weights,
                 rng: np.random.Generator, mask_id: int) -> PoolPick:
    """Least-violating sample among ``count`` proposal draws.

    All draws are scored with one call per constraint and summed as
    :func:`aggregate_violation` sums them, and only the pick gets a report.
    Ties break toward the earliest draw. ``first_total`` is the violation of the first draw, i.e.
    what a pool of one would have returned. Each constraint scores the
    draws through :func:`~mdsearch.constraints.base.drawn_violations`,
    which skips the row check where it would pass them and checks the output.
    """
    draws = proposal_draws(rows, x_t, count, rng, mask_id)
    w = resolve_weights(weights, constraints)
    parts = [drawn_violations(c, draws, mask_id) for c in constraints]
    totals = weighted_total(w, parts, np.zeros(count))
    best = int(totals.argmin())
    return PoolPick(draws[best], ViolationReport(tuple(float(nu[best]) for nu in parts),
                                                 float(totals[best])), float(totals[0]))


class RefineResult(NamedTuple):
    candidate: np.ndarray
    report: ViolationReport
    rounds: int
    history: tuple[float, ...]


def refine(start: np.ndarray, constraints: tuple[Constraint, ...], weights,
           vocab: Vocab, region: EditableRegion,
           max_rounds: int | None) -> RefineResult:
    """Greedy best-neighbor descent on the aggregate violation, editing only
    the region's positions.

    Each round scans the full single-edit neighborhood and takes the best
    strictly improving move; equal-valued moves resolve to the lowest
    (position, token) pair. Stops on the round cap (``None`` means
    unbounded), on local optimality, or as soon as the violation hits zero.
    ``history`` records the aggregate after the start and each accepted
    move. ``start`` must be one fully specified sequence, tokens in
    ``range(vocab.size)`` (:func:`~mdsearch.errors.check_sequence`).
    """
    w = resolve_weights(weights, constraints)
    if max_rounds is not None:
        check_count(max_rounds, "max_rounds")
    current = check_sequence(start, "start candidate", vocab.size).copy()
    if region.length != len(current):
        raise ContractError(f"region of length {region.length} for a start of length {len(current)}")
    trackers = [c.tracker(current) for c in constraints]
    weighted = [(wk, tracker) for wk, tracker in zip(w, trackers) if wk != 0.0]
    total = float(weighted_total(w, [tr.value() for tr in trackers]))
    history = [total]
    rounds = 0
    size = vocab.size
    pos_arr = np.array(region.positions, dtype=np.int64)
    # flat index of each position's current token in the raveled (positions,
    # tokens) scores; a commit moves the one entry of its position
    here = np.arange(pos_arr.size) * size + current[pos_arr]
    while total > 0 and pos_arr.size and (max_rounds is None or rounds < max_rounds):
        # summed in constraint order from the first weighted block (total > 0: one exists)
        wk, tracker = weighted[0]
        scores = wk * tracker.peek_block(pos_arr, size).ravel()
        for wk, tracker in weighted[1:]:
            scores += wk * tracker.peek_block(pos_arr, size).ravel()
        scores[here] = np.inf
        flat = int(scores.argmin())
        if not scores[flat] < total:
            break
        row, token = divmod(flat, size)
        pos = int(pos_arr[row])
        for tracker in trackers:
            tracker.commit(pos, token)
        current[pos] = token
        here[row] = flat
        total = float(weighted_total(w, [tr.value() for tr in trackers]))
        history.append(total)
        rounds += 1
    report = ViolationReport(tuple(float(tr.value()) for tr in trackers), total)
    return RefineResult(current, report, rounds, tuple(history))


def vanilla_reverse_step(x_t: np.ndarray, rows: np.ndarray, committing: np.ndarray,
                         rng: np.random.Generator, vocab: Vocab) -> np.ndarray:
    """Plain reverse commit: each position in ``committing`` (from
    :func:`~mdsearch.diffusion.first_hitting_steps`) draws a token from its
    row; the rest carry over. ``rows`` and ``x_t`` are checked here by
    :func:`~mdsearch.denoise.check_rows`. ``committing`` is a 1-D array of
    integer positions: a bool array, which numpy reads as a mask, and an
    array of another rank, which numpy reads as an index per axis, are
    refused.
    """
    rows = check_rows(rows, x_t, vocab)
    committing = check_integers(committing, "committing positions")
    if committing.ndim != 1:
        raise ContractError("reverse step: committing positions must be 1-D, "
                            f"got shape {committing.shape}")
    out = np.array(x_t, dtype=np.int64)
    try:  # no range reduction: a negative position wraps
        out[committing] = sample_rows(rows[committing], rng)
    except (IndexError, TypeError, ValueError) as exc:
        raise ContractError(f"reverse step: {exc}") from None
    return out


def guided_reverse_step(refined: np.ndarray, remaining: np.ndarray,
                        mask_id: int) -> np.ndarray:
    """Reverse transition committing toward a search-refined candidate.

    Every position takes the refined candidate's value (search may have
    revised unmasked ones) except ``remaining``, the positions whose unmask
    step from :func:`~mdsearch.diffusion.first_hitting_steps` is still to
    come, which keep the mask. The candidate must be one fully specified
    sequence, tokens in ``range(mask_id)``
    (:func:`~mdsearch.errors.check_sequence`); ``remaining`` is a 1-D array
    of integer positions, not a bool mask. Draws no random numbers.
    """
    out = check_sequence(refined, "refined candidate", mask_id).copy()
    remaining = check_integers(remaining, "remaining positions")
    if remaining.ndim != 1:
        raise ContractError(f"remaining positions must be 1-D, got shape {remaining.shape}")
    try:
        out[remaining] = mask_id
    except IndexError as exc:  # no range reduction: a negative position wraps
        raise ContractError(f"remaining positions: {exc}") from None
    return out


class StepRecord(NamedTuple):
    """Per-step diagnostics; violation fields are None at steps without search."""

    t: int
    first_violation: float | None
    pool_violation: float | None
    refined_violation: float | None
    rounds: int
    committed: int
    masked_after: tuple[int, ...] | None = None


SampleTrace = tuple[StepRecord, ...]


@lru_cache(maxsize=64)
def _empty_records(steps: int) -> tuple[StepRecord, ...]:
    """The record of a step where nothing happens, entry ``t`` for step ``t``.

    Records are immutable, so every sample with this step count shares them.
    """
    return tuple(StepRecord(t, None, None, None, 0, 0) for t in range(steps + 1))


def sample(instance: Instance, denoiser: Denoiser, schedule: NoiseSchedule,
           config: SearchConfig, rng: np.random.Generator,
           collect_masks: bool = False) -> tuple[np.ndarray, SampleTrace]:
    """Run the full reverse chain and return the clean sequence plus trace.

    Each masked position unmasks at a step drawn up front
    (:func:`first_hitting_steps`), whatever the placement. Search runs at
    steps ``t <= S``, S being 0, 1 or T for ``off``, ``last_step`` and
    ``all_steps``: the :func:`best_of_pool` pick, refined unless its violation
    is 0 (uncapped under ``last_step``), commits through the guided kernel,
    which keeps masked only the positions whose step is still to come; search
    never reads the drawn steps. Elsewhere the denoiser is queried only at
    steps where a position unmasks, even from a ``t``-dependent model. Each
    call's rows are checked once, by :func:`check_rows`: before the pool at
    a search step, inside :func:`vanilla_reverse_step` at a plain one. The
    final step commits every remaining mask.

    The chain jumps between those event steps: a step without search or
    commit does no work and gets a shared empty record (with
    ``collect_masks``, a fresh one holding the unchanged masks), so the
    trace still has one record per step, ``t = T .. 1``.
    """
    if denoiser.vocab.size != instance.vocab.size:
        raise ConfigError("denoiser and instance disagree on the alphabet")
    if config.weights is not None:
        resolve_weights(config.weights, instance.constraints)
    vocab = instance.vocab
    search_to = {"off": 0, "last_step": 1, "all_steps": schedule.steps}[config.placement]
    cap = None if config.placement == "last_step" else config.max_rounds
    x = fully_masked(instance.region, vocab.mask_id, instance.frozen_values)
    masked = masked_positions(x, vocab.mask_id)
    hits = first_hitting_steps(schedule, masked.size, rng)
    order = masked[(-hits).argsort(kind="stable")]
    counts = np.bincount(hits, minlength=schedule.steps + 1).tolist()
    empty = _empty_records(schedule.steps)
    masks = tuple(masked.tolist()) if collect_masks else None
    done = 0
    records = []
    for t in range(schedule.steps, 0, -1):
        committed = counts[t]
        if not (t <= search_to or committed):
            records.append(empty[t] if masks is None
                           else empty[t]._replace(masked_after=masks))
            continue
        first = pool = refined = None
        rounds = 0
        try:
            rows = denoiser.denoise(x, t)
            if t <= search_to:
                pick = best_of_pool(check_rows(rows, x, vocab), x, config.candidates,
                                    instance.constraints, config.weights, rng, vocab.mask_id)
                candidate, first = pick.candidate, pick.first_total
                pool = refined = pick.report.total
                if pool != 0:
                    region = instance.region if config.allow_unmask_edits else EditableRegion(
                        x.size, frozenset(masked_positions(x, vocab.mask_id).tolist()))
                    result = refine(candidate, instance.constraints, config.weights, vocab,
                                    region, cap)
                    candidate, refined, rounds = (result.candidate, result.report.total,
                                                  result.rounds)
                x = guided_reverse_step(candidate, order[done + committed:], vocab.mask_id)
            else:
                x = vanilla_reverse_step(x, rows, order[done:done + committed], rng, vocab)
        except Exception as exc:
            raise SampleError(f"{instance.name}: step t={t} failed: {exc}") from exc
        done += committed
        if collect_masks:
            masks = tuple(masked_positions(x, vocab.mask_id).tolist())
        records.append(StepRecord(t, first, pool, refined, rounds, committed, masks))
    return x, tuple(records)
