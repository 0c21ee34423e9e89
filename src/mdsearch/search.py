"""Violation-guided search embedded in the reverse denoising loop.

At the reverse steps where the placement turns search on, the denoiser's
proposal is refined before the chain advances: draw a pool of fully
specified candidates from the proposal distribution (already-unmasked
positions clamped), keep the least-violating one, then greedily walk
single-token edits while the aggregate violation strictly decreases. The
refined candidate drives the guided reverse kernel. Every other step is
the plain reverse step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .constraints.base import Constraint, ViolationReport
from .denoise import Denoiser, check_rows
from .diffusion import (NoiseSchedule, first_hitting_steps, guided_reverse_step,
                        sample_rows, vanilla_reverse_step)
from .errors import ConfigError, ContractError, SampleError, check_count, check_integers
from .tasks import Instance
from .vocab import EditableRegion, Vocab, fully_masked, masked_positions

PLACEMENTS = ("off", "last_step", "all_steps")


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the per-step search.

    ``candidates`` is the proposal pool size per step, ``max_rounds`` caps
    greedy refinement (ignored for ``last_step`` placement, which refines
    until no improving neighbor remains), and ``allow_unmask_edits``
    widens refinement edits from currently-masked positions to the whole
    editable region.
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
        if self.weights is not None and not all(
                math.isfinite(w) and w >= 0 for w in self.weights):
            raise ConfigError("constraint weights must be finite and non-negative")


def resolve_weights(weights, constraints: tuple[Constraint, ...]) -> np.ndarray:
    if weights is None:
        return np.ones(len(constraints))
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(constraints),):
        raise ContractError(
            f"{weights.size} weights for {len(constraints)} constraints")
    if not (np.isfinite(weights).all() and (weights >= 0).all()):
        raise ContractError("weights must be finite and non-negative")
    return weights


def score_rows(values: np.ndarray, constraints: tuple[Constraint, ...], weights
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score every row of ``values`` (M, L) with one call per constraint.

    Returns the violations (K, M), the weighted totals (M,) summed in
    constraint order, and the resolved weights (K,).
    """
    w = resolve_weights(weights, constraints)
    nu = np.array([c.violations(values) for c in constraints]).reshape(len(w), len(values))
    totals = np.zeros(len(values))
    for wk, vk in zip(w, nu):
        totals += wk * vk
    return nu, totals, w


def _report(nu: np.ndarray, w: np.ndarray) -> ViolationReport:
    return ViolationReport(tuple(nu.tolist()), tuple(w.tolist()))


def aggregate_violation(values: np.ndarray, constraints: tuple[Constraint, ...],
                        weights=None) -> ViolationReport:
    """Evaluate every constraint and fold the results into one report."""
    nu, _, w = score_rows(np.asarray(values)[None], constraints, weights)
    return _report(nu[:, 0], w)


def proposal_draws(rows: np.ndarray, x_t: np.ndarray, count: int,
                   rng: np.random.Generator, mask_id: int) -> np.ndarray:
    """``count`` independent proposal samples consistent with ``x_t``.

    Masked positions draw from the denoiser rows; unmasked positions are
    clamped to their current values.
    """
    check_count(count, "draw count", 1)
    x_t = check_integers(x_t, "x_t")
    rows = np.asarray(rows, dtype=np.float64)
    if x_t.ndim != 1 or rows.ndim != 2 or len(rows) != len(x_t):
        raise ContractError(f"rows of shape {rows.shape} for x_t of shape {x_t.shape}")
    draws = np.repeat(x_t[None], count, 0)
    masked = masked_positions(x_t, mask_id)
    draws[:, masked] = sample_rows(rows[masked], rng, count)
    return draws


class PoolPick(NamedTuple):
    candidate: np.ndarray
    report: ViolationReport
    first_total: float


def best_of_pool(rows: np.ndarray, x_t: np.ndarray, count: int,
                 constraints: tuple[Constraint, ...], weights,
                 rng: np.random.Generator, mask_id: int) -> PoolPick:
    """Least-violating sample among ``count`` proposal draws.

    All draws are scored in one :func:`score_rows` call and only the pick
    gets a report. Ties break toward the earliest draw. ``first_total`` is
    the violation of the first draw, i.e. what a pool of one would have
    returned.
    """
    draws = proposal_draws(rows, x_t, count, rng, mask_id)
    nu, totals, w = score_rows(draws, constraints, weights)
    best = int(np.argmin(totals))
    return PoolPick(draws[best], _report(nu[:, best], w), float(totals[0]))


def edit_positions(region: EditableRegion, mask_id: int, allow_unmask_edits: bool,
                   x_t: np.ndarray | None) -> tuple[int, ...]:
    """Editable positions, or only those still masked in ``x_t`` when
    ``allow_unmask_edits`` is off."""
    if allow_unmask_edits:
        return region.positions
    if x_t is None:
        raise ContractError("restricting edits to masked positions needs x_t")
    still_masked = set(masked_positions(x_t, mask_id).tolist())
    return tuple(p for p in region.positions if p in still_masked)


class RefineResult(NamedTuple):
    candidate: np.ndarray
    report: ViolationReport
    rounds: int
    history: tuple[float, ...]


def refine(start: np.ndarray, constraints: tuple[Constraint, ...], weights,
           vocab: Vocab, region: EditableRegion,
           max_rounds: int | None,
           allow_unmask_edits: bool = True,
           x_t: np.ndarray | None = None) -> RefineResult:
    """Greedy best-neighbor descent on the aggregate violation.

    Each round scans the full single-edit neighborhood and takes the best
    strictly improving move; equal-valued moves resolve to the lowest
    (position, token) pair. Stops on the round cap (``None`` means
    unbounded), on local optimality, or as soon as the violation hits zero.
    ``history`` records the aggregate after the start and each accepted
    move.
    """
    w = resolve_weights(weights, constraints)
    if max_rounds is not None:
        check_count(max_rounds, "max_rounds")
    current = check_integers(start, "start candidate").copy()
    positions = edit_positions(region, vocab.mask_id, allow_unmask_edits, x_t)
    trackers = [c.tracker(current) for c in constraints]

    def current_total():
        return float(sum(wk * tr.value() for wk, tr in zip(w, trackers)))

    total = current_total()
    history = [total]
    rounds = 0
    pos_arr = np.array(positions, dtype=np.int64)
    rows = np.arange(len(positions))
    while total > 0 and positions and (max_rounds is None or rounds < max_rounds):
        # in constraint order from the first weighted block (total > 0: one exists)
        blocks = (wk * tracker.peek_block(pos_arr, vocab.size)
                  for wk, tracker in zip(w, trackers) if wk != 0.0)
        scores = sum(blocks, next(blocks))
        scores[rows, current[pos_arr]] = np.inf
        flat = int(scores.argmin())
        best = float(scores.flat[flat])
        if not best < total:
            break
        pos = int(pos_arr[flat // vocab.size])
        token = flat % vocab.size
        for tracker in trackers:
            tracker.commit(pos, token)
        current[pos] = token
        total = current_total()
        history.append(total)
        rounds += 1
    nu = tuple(float(tr.value()) for tr in trackers)
    report = ViolationReport(nu, tuple(float(x) for x in w))
    return RefineResult(current, report, rounds, tuple(history))


class SearchOutcome(NamedTuple):
    candidate: np.ndarray
    report: ViolationReport
    first_total: float
    pool_total: float
    rounds: int


def search_active(placement: str, t: int) -> bool:
    return placement == "all_steps" or (placement == "last_step" and t == 1)


def search_step(rows: np.ndarray, x_t: np.ndarray, config: SearchConfig,
                instance: Instance, rng: np.random.Generator) -> SearchOutcome:
    """The per-step search operator, run where :func:`search_active` holds.

    Pool selection followed by greedy refinement, which a pick with zero
    aggregate violation skips. Refinement is unbounded under ``last_step``.
    """
    pick = best_of_pool(rows, x_t, config.candidates, instance.constraints,
                        config.weights, rng, instance.vocab.mask_id)
    if pick.report.total == 0:
        return SearchOutcome(pick.candidate, pick.report, pick.first_total,
                             pick.report.total, 0)
    cap = None if config.placement == "last_step" else config.max_rounds
    refined = refine(pick.candidate, instance.constraints, config.weights,
                     instance.vocab, instance.region, cap,
                     allow_unmask_edits=config.allow_unmask_edits, x_t=x_t)
    return SearchOutcome(refined.candidate, refined.report, pick.first_total,
                         pick.report.total, refined.rounds)


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
    (:func:`first_hitting_steps`), whatever the placement. Steps where the
    placement activates search run the search operator and commit through
    the guided kernel, which keeps masked only the positions whose step is
    still to come; search never reads the drawn steps. Elsewhere the
    denoiser is queried only at steps where a position unmasks: the rows of
    other steps go unused, even from a ``t``-dependent model. Rows are
    checked once per call. The final step always commits every remaining
    masked position, so the result has no masks.

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
    x = fully_masked(instance.region, vocab.mask_id, instance.frozen_values)
    masked = masked_positions(x, vocab.mask_id)
    hits = first_hitting_steps(schedule, masked.size, rng)
    order = masked[np.argsort(-hits, kind="stable")]
    counts = np.bincount(hits, minlength=schedule.steps + 1).tolist()
    empty = _empty_records(schedule.steps)
    masks = tuple(masked.tolist()) if collect_masks else None
    done = 0
    records = []
    for t in range(schedule.steps, 0, -1):
        committed = counts[t]
        active = search_active(config.placement, t)
        if not (active or committed):
            records.append(empty[t] if masks is None
                           else empty[t]._replace(masked_after=masks))
            continue
        first = pool = refined = None
        rounds = 0
        try:
            rows = check_rows(denoiser.denoise(x, t), x, vocab)
            if active:
                outcome = search_step(rows, x, config, instance, rng)
                x = guided_reverse_step(outcome.candidate, order[done + committed:],
                                        vocab.mask_id)
                first, pool = outcome.first_total, outcome.pool_total
                refined, rounds = outcome.report.total, outcome.rounds
            else:
                x = vanilla_reverse_step(x, rows, order[done:done + committed], rng)
        except Exception as exc:
            raise SampleError(f"{instance.name}: step t={t} failed: {exc}") from exc
        done += committed
        if collect_masks:
            masks = tuple(masked_positions(x, vocab.mask_id).tolist())
        records.append(StepRecord(t, first, pool, refined, rounds, committed, masks))
    return x, tuple(records)
