import math
import os
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import mdsearch as m
from mdsearch.constraints.base import Constraint, ViolationTracker
from mdsearch.constraints.peptide import PeptideSpec
from mdsearch.constraints.sat import ClauseViolations, CnfFormula
from mdsearch.constraints.sudoku import completions, random_puzzle
from mdsearch.denoise import (ROW_TOL, DataDistribution, Denoiser, ExactPosteriorDenoiser,
                              UniformDenoiser)
from mdsearch.errors import ConfigError, ContractError, DenoiserContractError, SampleError
from mdsearch.harness.configio import RunConfig
from mdsearch.harness.runner import build_instance, presets, sample_rng, search_config
from mdsearch.search import (
    PLACEMENTS,
    SearchConfig,
    StepRecord,
    aggregate_violation,
    best_of_pool,
    proposal_draws,
    refine,
    sample,
)
from mdsearch.tasks import Instance, sat_instance, sudoku_instance
from mdsearch.vocab import EditableRegion, Vocab, fully_masked, masked_positions

from oracles import (bernoulli_chain, guided_chain, naive_sat_violation, neighborhood,
                     refine_by_neighborhood, sample_by_step, tv_distance)

BIN = Vocab(("0", "1"))
PAIR_FORMULA = CnfFormula(2, ((1, 2), (-1, 2)))  # feasible iff x2 is true


class HideTracker(Constraint):
    """Wrapper that forces the generic full-recompute path."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def _violations(self, values):
        return self.inner.violations(values)


def test_search_config_validation():
    with pytest.raises(ConfigError):
        SearchConfig(candidates=0)
    with pytest.raises(ConfigError):
        SearchConfig(max_rounds=-1)
    with pytest.raises(ConfigError):
        SearchConfig(placement="sometimes")
    with pytest.raises(ConfigError):
        SearchConfig(weights=(-1.0,))
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            SearchConfig(weights=(1.0, bad))


@pytest.mark.parametrize("field", ["candidates", "max_rounds"])
@pytest.mark.parametrize("bad", [2.5, 3.0, True, None, "4"])
def test_search_config_rejects_counts_that_are_not_integers(field, bad):
    # True would read as one draw; None failed on a comparison with TypeError
    with pytest.raises(ConfigError, match=field):
        SearchConfig(**{field: bad})
    assert SearchConfig(**{field: np.int64(4)}) == SearchConfig(**{field: 4})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_non_finite_or_negative_weights_are_rejected_before_scoring(bad):
    # nan * 0 and inf * 0 are both nan: a total that no comparison orders
    constraints = _sat_searchable().constraints
    with pytest.raises(ContractError):
        aggregate_violation(np.zeros(3, dtype=np.int64), constraints, (bad,))


@pytest.mark.parametrize("bad", [[1.0, 2.0], np.array([1.0]), 2.0, ((1.0,),)])
def test_weights_are_a_flat_tuple(bad):
    # a list was kept as the caller's object and left the config unhashable
    with pytest.raises(ConfigError, match="weights"):
        SearchConfig(weights=bad)
    with pytest.raises(ConfigError, match="weights"):
        RunConfig(task="sat", weights=bad)
    hash(SearchConfig(weights=(1.0, np.float64(2.0))))  # a tuple config hashes


class InfiniteBox(Constraint):
    """A black box that scores every candidate as infinitely violating."""

    name = "infinite"

    def _violations(self, values):
        return np.full(len(values), math.inf)


def test_zero_weight_constraint_counts_for_nothing():
    # 0 * inf is NaN, with a RuntimeWarning the suite raises: a zero weight is skipped
    constraints = (ClauseViolations(PAIR_FORMULA), InfiniteBox())
    weights = (1.0, 0.0)
    report = aggregate_violation(np.array([0, 0]), constraints, weights)
    assert report.values == (1.0, math.inf) and report.total == 1.0
    report = aggregate_violation(np.array([0, 1]), constraints, weights)
    assert report.values == (0.0, math.inf) and report.total == 0.0
    result = refine(np.array([0, 0]), constraints, weights, BIN,
                    EditableRegion.all_editable(2), max_rounds=8)
    assert result.history == (1.0, 0.0) and result.report.total == 0.0


@pytest.mark.parametrize("bad", [[math.nan, 0.5], [math.inf, 1.0], [-0.5, 1.5], [0.0, 0.0]])
def test_proposal_draws_refuses_bad_rows_at_masked_positions(bad):
    # the inverse CDF draws a token from each of these rows without complaint
    rows = np.array([[0.5, 0.5], bad, [0.5, 0.5]])
    x_t = np.full(3, BIN.mask_id)
    constraints = (ClauseViolations(CnfFormula(3, ((1, 2, 3),))),)
    with pytest.raises(ContractError, match="masked positions"):
        proposal_draws(rows, x_t, 4, np.random.default_rng(0), BIN.mask_id)
    with pytest.raises(ContractError, match="masked positions"):
        best_of_pool(rows, x_t, 4, constraints, None, np.random.default_rng(0), BIN.mask_id)
    x_t[1] = 0  # the row at an unmasked position is not read
    draws = proposal_draws(rows, x_t, 4, np.random.default_rng(0), BIN.mask_id)
    assert draws[:, 1].tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("rows", [np.full((3, 3), 1 / 3), np.ones((3, 1))])
def test_proposal_draws_refuses_rows_off_the_alphabet(rows):
    # a third column would draw the mask id into "fully specified" draws
    x_t = np.full(3, BIN.mask_id)
    with pytest.raises(ContractError, match="shape"):
        proposal_draws(rows, x_t, 4, np.random.default_rng(0), BIN.mask_id)


@pytest.mark.parametrize("x_t", [[7, BIN.mask_id], [-1, BIN.mask_id],
                                 [BIN.mask_id + 1, BIN.mask_id]])
def test_proposal_draws_refuse_tokens_off_the_alphabet(x_t):
    # the clamped token was copied into every draw
    with pytest.raises(ContractError, match="outside range"):
        proposal_draws(np.full((2, 2), 0.5), np.array(x_t), 3, np.random.default_rng(0),
                       BIN.mask_id)


def test_proposal_draws_clamp_observed():
    rows = np.array([[0.0, 1.0], [0.5, 0.5]])
    x_t = np.array([0, BIN.mask_id])
    draws = proposal_draws(rows, x_t, 64, np.random.default_rng(0), BIN.mask_id)
    assert np.all(draws[:, 0] == 0)
    assert set(draws[:, 1].tolist()) == {0, 1}


def test_best_of_pool_single_draw():
    rows = np.full((2, 2), 0.5)
    x_t = np.full(2, BIN.mask_id)
    constraints = (ClauseViolations(PAIR_FORMULA),)
    pick = best_of_pool(rows, x_t, 1, constraints, None, np.random.default_rng(5),
                        BIN.mask_id)
    assert pick.first_total == pick.report.total


def test_best_of_pool_onehot_rows_collapse():
    rows = np.array([[0.0, 1.0], [1.0, 0.0]])
    x_t = np.full(2, BIN.mask_id)
    constraints = (ClauseViolations(PAIR_FORMULA),)
    pick = best_of_pool(rows, x_t, 16, constraints, None, np.random.default_rng(1),
                        BIN.mask_id)
    assert np.array_equal(pick.candidate, [1, 0])


def test_best_of_pool_finds_feasible_half_space():
    # half of the four assignments satisfy the formula; a pool of 128
    # essentially always contains one
    rows = np.full((2, 2), 0.5)
    x_t = np.full(2, BIN.mask_id)
    constraints = (ClauseViolations(PAIR_FORMULA),)
    for seed in range(200):
        pick = best_of_pool(rows, x_t, 128, constraints, None,
                            np.random.default_rng(seed), BIN.mask_id)
        assert pick.report.total == 0.0


def test_best_of_pool_is_min_over_draws():
    rng_a = np.random.default_rng(123)
    rng_b = np.random.default_rng(123)
    rows = np.full((7, 2), 0.5)
    x_t = np.full(7, BIN.mask_id)
    formula = CnfFormula(7, ((1, 2, 3), (-1, 4, 5), (2, -6, 7), (-3, -4, -7)))
    constraints = (ClauseViolations(formula),)
    draws = proposal_draws(rows, x_t, 32, rng_a, BIN.mask_id)
    totals = [naive_sat_violation(formula.clauses, d) for d in draws]
    pick = best_of_pool(rows, x_t, 32, constraints, None, rng_b, BIN.mask_id)
    assert pick.report.total == min(totals)
    assert np.array_equal(pick.candidate, draws[int(np.argmin(totals))])
    assert pick.first_total == totals[0]


def test_neighborhood_counts():
    c = np.array([0, 1])
    assert len(list(neighborhood(c, BIN, EditableRegion.all_editable(2)))) == 2
    c7 = np.zeros(7, dtype=np.int64)
    assert len(list(neighborhood(c7, BIN, EditableRegion.all_editable(7)))) == 7
    four = Vocab(("1", "2", "3", "4"))
    region = EditableRegion.with_frozen(16, set(range(8)))
    c16 = np.zeros(16, dtype=np.int64)
    assert len(list(neighborhood(c16, four, region))) == 24  # 8 cells x 3 tokens


def test_neighborhood_masked_restriction():
    # edits go to the region's positions only; a masked candidate has no neighbors
    c = np.array([0, 1, 0])
    x_t = np.array([0, BIN.mask_id, BIN.mask_id])
    moves = list(neighborhood(c, BIN, EditableRegion(3, frozenset({1, 2}))))
    assert {pos for pos, _, _ in moves} == {1, 2}
    with pytest.raises(ContractError):
        list(neighborhood(x_t, BIN, EditableRegion.all_editable(3)))


def test_neighborhood_order_and_contents():
    c = np.array([0, 1])
    moves = [(pos, tok) for pos, tok, _ in neighborhood(c, BIN,
                                                        EditableRegion.all_editable(2))]
    assert moves == [(0, 1), (1, 0)]


def test_refine_early_exit_and_zero_rounds():
    constraints = (ClauseViolations(PAIR_FORMULA),)
    feasible = np.array([0, 1])
    result = refine(feasible, constraints, None, BIN, EditableRegion.all_editable(2),
                    max_rounds=8)
    assert np.array_equal(result.candidate, feasible)
    assert result.rounds == 0 and result.history == (0.0,)
    start = np.array([0, 0])
    result = refine(start, constraints, None, BIN, EditableRegion.all_editable(2),
                    max_rounds=0)
    assert np.array_equal(result.candidate, start)
    assert result.rounds == 0
    # the clause tracker counts in ints; the report holds floats
    assert [type(v) for v in result.report.values] == [float]


def test_refine_from_a_zero_violation_start_peeks_at_no_edit(monkeypatch):
    # entering the loop at total 0 would change no output, only the time spent
    calls = []
    peek_block = ViolationTracker.peek_block

    def counted(self, positions, num_tokens):
        calls.append(self.constraint.name)
        return peek_block(self, positions, num_tokens)

    monkeypatch.setattr(ViolationTracker, "peek_block", counted)
    instance = sudoku_instance(random_puzzle(2, 8, np.random.default_rng(4)))
    solved = completions(instance.data, 1)[0]
    for cap in (None, 8):
        result = refine(solved, instance.constraints, None, instance.vocab, instance.region, cap)
        assert result.rounds == 0 and result.history == (0.0,)
    assert calls == []
    refine(np.zeros(16, dtype=np.int64), instance.constraints, None, instance.vocab,
           instance.region, 1)
    assert calls == ["units"]


def test_refine_flips_into_feasibility():
    constraints = (ClauseViolations(PAIR_FORMULA),)
    result = refine(np.array([0, 0]), constraints, None, BIN,
                    EditableRegion.all_editable(2), max_rounds=8)
    assert np.array_equal(result.candidate, [0, 1])
    assert result.rounds == 1
    assert result.history == (1.0, 0.0)


class SumBlackBox(Constraint):
    """A black box without an alphabet: no tracker checks the range of its tokens."""

    name = "sum"

    def _violations(self, values):
        return values.sum(axis=1).astype(np.float64)


@pytest.mark.parametrize("start", [[7, 1], [-1, 1]])
def test_refine_refuses_a_start_off_the_alphabet_that_no_constraint_states(start):
    # 7 raised a bare IndexError; -1 came back "refined", total 0 after 0 rounds
    with pytest.raises(ContractError, match="start candidate"):
        refine(np.array(start), (SumBlackBox(),), None, BIN, EditableRegion.all_editable(2),
               max_rounds=8)
    assert refine(np.array([1, 1]), (SumBlackBox(),), None, BIN,
                  EditableRegion.all_editable(2), max_rounds=8).report.total == 0.0


@pytest.mark.parametrize("length", [2, 5])
def test_refine_refuses_a_region_of_another_length(length):
    # length 2 edited positions 0-1 only and stopped at total 1; length 5 failed
    # later, inside peek_block; the full region reaches 0
    constraints = (ClauseViolations(CnfFormula(3, ((1, 2), (1, -2), (2, 3), (-2, 3)))),)
    start = np.array([0, 0, 0])
    with pytest.raises(ContractError, match=f"region of length {length} for a start of length 3"):
        refine(start, constraints, None, BIN, EditableRegion.all_editable(length), 5)
    assert refine(start, constraints, None, BIN, EditableRegion.all_editable(3),
                  5).report.total == 0.0


def test_refine_tie_break_lowest_position():
    # x1 and x2 are symmetric here: flipping either satisfies the clause
    formula = CnfFormula(2, ((1, 2),))
    result = refine(np.array([0, 0]), (ClauseViolations(formula),), None, BIN,
                    EditableRegion.all_editable(2), max_rounds=4)
    assert np.array_equal(result.candidate, [1, 0])  # position 0 wins the tie


def test_refine_history_strictly_decreasing():
    rng = np.random.default_rng(0)
    for seed in range(30):
        formula = CnfFormula(7, tuple(
            tuple(int(v * s) for v, s in zip(rng.choice(7, 3, replace=False) + 1,
                                             rng.integers(0, 2, 3) * 2 - 1))
            for _ in range(30)))
        start = rng.integers(0, 2, size=7)
        result = refine(start, (ClauseViolations(formula),), None, BIN,
                        EditableRegion.all_editable(7), max_rounds=16)
        drops = np.diff(result.history)
        assert np.all(drops < 0)
        assert result.rounds == len(result.history) - 1
        assert result.rounds <= 16


def test_refine_halts_at_local_optimum():
    rng = np.random.default_rng(4)
    checked = 0
    for seed in range(40):
        formula = CnfFormula(6, tuple(
            tuple(int(v * s) for v, s in zip(rng.choice(6, 3, replace=False) + 1,
                                             rng.integers(0, 2, 3) * 2 - 1))
            for _ in range(26)))
        constraints = (ClauseViolations(formula),)
        start = rng.integers(0, 2, size=6)
        result = refine(start, constraints, None, BIN,
                        EditableRegion.all_editable(6), max_rounds=50)
        if result.report.total > 0 and result.rounds < 50:
            checked += 1
            final = result.report.total
            for _, _, edited in neighborhood(result.candidate, BIN,
                                             EditableRegion.all_editable(6)):
                assert naive_sat_violation(formula.clauses, edited) >= final
    assert checked > 0


def test_refine_full_recompute_path_matches_trackers():
    rng = np.random.default_rng(5)
    for seed in range(20):
        formula = CnfFormula(6, tuple(
            tuple(int(v * s) for v, s in zip(rng.choice(6, 3, replace=False) + 1,
                                             rng.integers(0, 2, 3) * 2 - 1))
            for _ in range(20)))
        start = rng.integers(0, 2, size=6)
        fast = refine(start, (ClauseViolations(formula),), None, BIN,
                      EditableRegion.all_editable(6), max_rounds=16)
        slow = refine(start, (HideTracker(ClauseViolations(formula)),), None, BIN,
                      EditableRegion.all_editable(6), max_rounds=16)
        assert np.array_equal(fast.candidate, slow.candidate)
        assert fast.history == slow.history


def assert_refine_paths_agree(start, constraints, weights, vocab, region, cap):
    """Tracker path, full-recompute path and the brute-force descent agree
    byte for byte; returns the tracker path's result."""
    fast = refine(start, constraints, weights, vocab, region, cap)
    slow = refine(start, tuple(HideTracker(c) for c in constraints), weights,
                  vocab, region, cap)
    candidate, report, rounds, history = refine_by_neighborhood(
        start, constraints, weights, vocab, region, cap)
    for result in (fast, slow):
        assert result.candidate.tobytes() == candidate.tobytes()
        assert result.history == history
        assert result.rounds == rounds
        assert result.report == report
    return fast


class BitTable(Constraint):
    """The violation of each 3-bit candidate, read off a table by its bits."""

    name = "table"
    alphabet, length = 2, 3
    # from 000 the greedy walk is 100, 110, 111 and then 011: bit 0 returns
    # to the token it left three rounds before
    TABLE = np.array([10.0, 9.5, 9.5, 6.0, 9.0, 8.5, 8.0, 7.0])

    def _violations(self, values):
        return self.TABLE[values @ np.array([4, 2, 1])]


def test_refine_may_return_a_position_to_the_token_it_left():
    result = assert_refine_paths_agree(np.zeros(3, dtype=np.int64), (BitTable(),), None, BIN,
                                       EditableRegion.all_editable(3), 16)
    assert result.candidate.tolist() == [0, 1, 1]
    assert result.history == (10.0, 9.0, 8.0, 7.0, 6.0)


def test_refine_sudoku9_tracker_path_matches_full_recompute():
    from mdsearch.constraints.sudoku import random_puzzle

    rng = np.random.default_rng(11)
    moved = 0
    for _ in range(3):
        instance = sudoku_instance(random_puzzle(3, 40, rng))
        den = m.build_denoiser(instance, "noisy", 0.5)
        x = fully_masked(instance.region, instance.vocab.mask_id, instance.frozen_values)
        pick = best_of_pool(den.denoise(x, 10), x, 8, instance.constraints, None, rng,
                            instance.vocab.mask_id)
        result = assert_refine_paths_agree(pick.candidate, instance.constraints, None,
                                           instance.vocab, instance.region, 16)
        moved += result.rounds
    assert moved > 0


@pytest.mark.parametrize("case", ["table", "sat", "sudoku9"])
def test_uncapped_refine_matches_brute_force_descent(case):
    # the oracle raised TypeError at max_rounds=None, so the uncapped
    # refinement that every last_step sample runs was never compared with it
    rng = np.random.default_rng(6)
    if case == "table":
        start, constraints, vocab, region = (np.zeros(3, dtype=np.int64), (BitTable(),), BIN,
                                             EditableRegion.all_editable(3))
    elif case == "sat":
        formula = CnfFormula(20, tuple(
            tuple(int(v * s) for v, s in zip(rng.choice(20, 3, replace=False) + 1,
                                             rng.integers(0, 2, 3) * 2 - 1))
            for _ in range(85)))
        start, constraints, vocab, region = (rng.integers(0, 2, size=20),
                                             (ClauseViolations(formula),), BIN,
                                             EditableRegion.all_editable(20))
    else:
        from mdsearch.constraints.sudoku import random_puzzle

        instance = sudoku_instance(random_puzzle(3, 40, rng))
        x = fully_masked(instance.region, instance.vocab.mask_id, instance.frozen_values)
        start = best_of_pool(m.build_denoiser(instance, "noisy", 0.5).denoise(x, 10), x, 8,
                             instance.constraints, None, rng, instance.vocab.mask_id).candidate
        constraints, vocab, region = instance.constraints, instance.vocab, instance.region
    result = assert_refine_paths_agree(start, constraints, None, vocab, region, None)
    assert result.rounds > 0


@pytest.mark.parametrize("case", ["default", "swamped"])
def test_refine_weighted_peptide_tracker_path_matches_full_recompute(case):
    """Random non-unit weights on the three windows. In the swamped case no
    12-slot peptide meets the length window and its weight is about 2^53
    times the others, so the last bits of every weighted sum, and with them
    the ties between edits, depend on adding the constraints in order."""
    rng = np.random.default_rng(12)
    if case == "default":
        spec, slots = PeptideSpec(), 24
    else:
        spec, slots = PeptideSpec(min_length=20, charge_min=6, hydro_min=0.8), 12
    instance = m.peptide_instance(spec, slots=slots)
    moved = 0
    for _ in range(8):
        weights = tuple(float(w) for w in 0.5 + rng.random(3) * 2.5)
        if case == "swamped":
            weights = (2.0 ** 53 * weights[0],) + weights[1:]
        start = rng.integers(0, instance.vocab.size, size=slots)
        result = assert_refine_paths_agree(start, instance.constraints, weights,
                                           instance.vocab, instance.region, 16)
        moved += result.rounds
    assert moved > 0


def test_refine_respects_frozen_positions():
    formula = CnfFormula(2, ((1,), (2,)))
    region = EditableRegion.with_frozen(2, {0})
    result = refine(np.array([0, 0]), (ClauseViolations(formula),), None, BIN,
                    region, max_rounds=8)
    assert result.candidate[0] == 0  # frozen stays
    assert result.candidate[1] == 1


def test_refine_unbounded_rounds_terminate():
    rng = np.random.default_rng(6)
    formula = CnfFormula(7, tuple(
        tuple(int(v * s) for v, s in zip(rng.choice(7, 3, replace=False) + 1,
                                         rng.integers(0, 2, 3) * 2 - 1))
        for _ in range(45)))
    start = rng.integers(0, 2, size=7)
    result = refine(start, (ClauseViolations(formula),), None, BIN,
                    EditableRegion.all_editable(7), max_rounds=None)
    assert result.history[-1] <= result.history[0]


def _sat_searchable(num_vars=3):
    formula = CnfFormula(num_vars, ((1, 2), (-1, 2), (2, 3)))
    return sat_instance(formula, name="unit")


def test_one_step_sample_records_search_by_placement():
    instance = _sat_searchable()
    den = UniformDenoiser(instance.vocab)
    one_step = m.linear_schedule(1)
    last = SearchConfig(placement="last_step", candidates=16, max_rounds=8)
    _, (record,) = sample(instance, den, one_step, last, np.random.default_rng(0))
    assert record.refined_violation == 0.0  # refined until convergence

    allsteps = SearchConfig(placement="all_steps", candidates=16, max_rounds=8)
    _, (record,) = sample(instance, den, one_step, allsteps, np.random.default_rng(0))
    assert record.refined_violation <= record.pool_violation
    assert record.pool_violation <= record.first_violation

    off = SearchConfig(placement="off")
    _, (record,) = sample(instance, den, one_step, off, np.random.default_rng(0))
    assert record.first_violation is record.refined_violation is None


def test_pool_then_restricted_refine_keeps_committed_values():
    # the region narrowed to the positions still masked, as ``sample`` narrows it
    instance = _sat_searchable()
    rows = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
    x_t = np.array([0, BIN.mask_id, BIN.mask_id])
    region = EditableRegion(3, frozenset(masked_positions(x_t, BIN.mask_id).tolist()))
    for seed in range(20):
        pick = best_of_pool(rows, x_t, 8, instance.constraints, None,
                            np.random.default_rng(seed), BIN.mask_id)
        result = refine(pick.candidate, instance.constraints, None, BIN, region, 8)
        assert result.candidate[0] == 0  # committed positions never revised


def test_sample_single_step_commits_refined_candidate():
    instance = _sat_searchable()
    den = UniformDenoiser(instance.vocab)
    cfg = SearchConfig(placement="all_steps", candidates=16, max_rounds=8)
    final, trace = sample(instance, den, m.linear_schedule(1), cfg,
                          np.random.default_rng(3))
    assert len(trace) == 1
    assert trace[0].refined_violation == 0.0
    assert naive_sat_violation(((1, 2), (-1, 2), (2, 3)), final) == 0
    assert masked_positions(final, instance.vocab.mask_id).size == 0


def test_sample_respects_support_when_unmasking_is_sequential():
    support = np.array([[0, 1], [1, 0]])
    vocab = Vocab(("A", "B"))
    instance = Instance("pair", vocab, EditableRegion.all_editable(2), ())
    den = ExactPosteriorDenoiser(DataDistribution(support), vocab)
    cfg = SearchConfig(placement="off")
    sched = m.linear_schedule(16)
    joint = 0
    for seed in range(300):
        final, trace = sample(instance, den, sched, cfg, np.random.default_rng(seed))
        if all(record.committed < 2 for record in trace):
            assert tuple(final) in {(0, 1), (1, 0)}
        else:
            joint += 1
    assert joint < 100  # simultaneous commits are the rare exception


def test_sample_monotone_unmasking_and_termination():
    instance = _sat_searchable()
    den = UniformDenoiser(instance.vocab)
    for placement in ("off", "last_step", "all_steps"):
        cfg = SearchConfig(placement=placement, candidates=4, max_rounds=2)
        final, trace = sample(instance, den, m.linear_schedule(6), cfg,
                              np.random.default_rng(11), collect_masks=True)
        previous = set(range(3))
        for record in trace:
            now = set(record.masked_after)
            assert now <= previous
            previous = now
        assert not previous
        assert masked_positions(final, instance.vocab.mask_id).size == 0


@pytest.mark.parametrize("task", ["sat", "sudoku", "peptide"])
def test_last_step_equals_off_above_the_final_step(task):
    # Steps of last_step without search are the plain reverse step, drawing
    # from the generator exactly as placement off does.
    cfg = presets()[task]
    schedule = m.linear_schedule(cfg.steps)
    for i in range(10):
        instance = build_instance(cfg, i)
        denoiser = m.build_denoiser(instance, cfg.denoiser, cfg.epsilon)
        traces = {}
        for placement in ("off", "last_step"):
            scfg = search_config(replace(cfg, placement=placement))
            _, traces[placement] = sample(instance, denoiser, schedule, scfg,
                                          sample_rng(cfg.seed, i), collect_masks=True)
        assert traces["off"][:-1] == traces["last_step"][:-1]
        for record in traces["last_step"][:-1]:
            assert record.t > 1 and record.first_violation is None
            assert record.pool_violation is None and record.refined_violation is None
        assert traces["last_step"][-1].refined_violation is not None


class Unnormalized(UniformDenoiser):
    def denoise(self, values, t):
        return 2.0 * super().denoise(values, t)


class NotOneHot(UniformDenoiser):
    """Uniform rows at every position, the observed ones included."""

    def denoise(self, values, t):
        return np.full((len(values), self.vocab.size), 1.0 / self.vocab.size)


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("denoiser", [Unnormalized, NotOneHot],
                         ids=["unnormalized", "not-one-hot"])
def test_sample_rejects_bad_denoiser_rows(denoiser, placement):
    # each step's rows are checked, by check_rows before the pool or inside the plain
    # step; the pool's own check reads masked rows only, with a plain ContractError
    instance = _sat_searchable()
    with pytest.raises(SampleError) as err:
        sample(instance, denoiser(instance.vocab), m.linear_schedule(3),
               SearchConfig(placement=placement), np.random.default_rng(0))
    assert isinstance(err.value.__cause__, DenoiserContractError)


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_rows_with_entries_inside_the_row_tolerance_sample_under_every_placement(placement):
    # check_rows admits entries down to -ROW_TOL; the pool once refused any negative entry
    class SlightlyNegative(UniformDenoiser):
        def denoise(self, values, t):
            rows = super().denoise(values, t)
            masked = values == self.vocab.mask_id
            rows[masked] = [-0.5 * ROW_TOL, 1.0 + 0.5 * ROW_TOL]
            return rows

    instance = _sat_searchable()
    # one step: every position is still masked when search runs under last_step
    final, trace = sample(instance, SlightlyNegative(instance.vocab), m.linear_schedule(1),
                          SearchConfig(candidates=2, placement=placement),
                          np.random.default_rng(0))
    assert not np.any(final == instance.vocab.mask_id) and len(trace) == 1


class CountingDenoiser(Denoiser):
    """Records the step of every query it passes on to ``inner``."""

    def __init__(self, inner):
        super().__init__(inner.vocab)
        self.inner = inner
        self.steps = []

    def denoise(self, values, t):
        self.steps.append(t)
        return self.inner.denoise(values, t)


@pytest.mark.parametrize("placement", ["off", "last_step", "all_steps"])
def test_denoiser_queried_only_where_needed(placement):
    cfg = replace(presets()["sat"], placement=placement, steps=20)
    schedule = m.linear_schedule(cfg.steps)
    for i in range(6):
        instance = build_instance(cfg, i)
        den = CountingDenoiser(m.build_denoiser(instance, cfg.denoiser, cfg.epsilon))
        _, trace = sample(instance, den, schedule, search_config(cfg),
                          sample_rng(cfg.seed, i))
        assert len(trace) == cfg.steps
        committing = [r.t for r in trace if r.committed > 0]
        if placement == "off":
            assert den.steps == committing
        elif placement == "last_step":
            assert den.steps == [t for t in committing if t > 1] + [1]
        else:
            assert den.steps == list(range(cfg.steps, 0, -1))


# Even-parity support on 3 bits, and the exact law of the per-step commit
# counts (a, b, c) at T=3, where each position unmasks at a step uniform on
# {3, 2, 1}: 3! / (a! b! c!) of the 27 step patterns.
PARITY = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.int64)
UNIFORM_STEP_PATTERNS = {
    (a, b, 3 - a - b): 6 / (math.factorial(a) * math.factorial(b)
                            * math.factorial(3 - a - b)) / 27
    for a in range(4) for b in range(4 - a)}


def test_sample_off_matches_the_bernoulli_chain():
    # Even-parity support on 3 bits at T=3: each position unmasks at a step
    # uniform on {3, 2, 1}, so simultaneous commits are common. The sample
    # leaves the support with probability 1/2 when all three commit
    # together, or when one commits and the other two then commit together
    # (12 of 27 step patterns): 6/27 overall.
    den = ExactPosteriorDenoiser(DataDistribution(PARITY), BIN)
    instance = Instance("parity", BIN, EditableRegion.all_editable(3), ())
    sched = m.linear_schedule(3)
    in_support = {row.tobytes() for row in PARITY}
    n = 8000
    runs = {"sample": [], "oracle": []}
    for i in range(n):
        final, trace = sample(instance, den, sched, SearchConfig(placement="off"),
                              np.random.default_rng(np.random.SeedSequence([3, i])))
        runs["sample"].append((final, tuple(r.committed for r in trace)))
        runs["oracle"].append(bernoulli_chain(
            den, sched.alphas, np.full(3, BIN.mask_id), BIN.mask_id,
            np.random.default_rng(np.random.SeedSequence([4, i]))))
    patterns, outside = {}, {}
    for name, results in runs.items():
        patterns[name] = Counter(counts for _, counts in results)
        outside[name] = sum(x.tobytes() not in in_support for x, _ in results) / n
        assert tv_distance(patterns[name], UNIFORM_STEP_PATTERNS, n) < 0.03
        assert abs(outside[name] - 6 / 27) < 0.025
    assert tv_distance(patterns["sample"], {k: v / n for k, v in
                                            patterns["oracle"].items()}, n) < 0.04
    assert abs(outside["sample"] - outside["oracle"]) < 0.03


def test_sample_all_steps_matches_the_guided_chain():
    # Search at every step on the even-parity support of 3 bits, T=3, under
    # the clause (x1 or x2 or x3): a pool of two and no refinement rounds,
    # so search skews which tokens commit. The commit pattern must still
    # follow the exact law of independent uniform unmask steps in the state,
    # not only in the trace, and the outputs must match the step-by-step
    # chain with a per-step coin.
    den = ExactPosteriorDenoiser(DataDistribution(PARITY), BIN)
    clause = ClauseViolations(CnfFormula(3, ((1, 2, 3),)))
    instance = Instance("parity", BIN, EditableRegion.all_editable(3), (clause,))
    sched = m.linear_schedule(3)
    cfg = SearchConfig(placement="all_steps", candidates=2, max_rounds=0)
    n = 8000
    runs = {"sample": [], "oracle": []}
    for i in range(n):
        final, trace = sample(instance, den, sched, cfg,
                              np.random.default_rng(np.random.SeedSequence([5, i])),
                              collect_masks=True)
        masked = [3] + [len(r.masked_after) for r in trace]
        counts = tuple(a - b for a, b in zip(masked, masked[1:]))
        assert counts == tuple(r.committed for r in trace)
        runs["sample"].append((final, counts))
        runs["oracle"].append(guided_chain(
            instance, den, sched, cfg,
            np.random.default_rng(np.random.SeedSequence([6, i]))))
    outputs = {}
    for name, results in runs.items():
        assert tv_distance(Counter(counts for _, counts in results),
                           UNIFORM_STEP_PATTERNS, n) < 0.03
        outputs[name] = Counter(x.tobytes() for x, _ in results)
    assert tv_distance(outputs["sample"], {k: v / n for k, v in
                                           outputs["oracle"].items()}, n) < 0.04


class StepTilted:
    """A ``t``-dependent model, duck-typed: masked rows lean toward token
    ``t mod |V|``, observed rows are one-hot."""

    def __init__(self, vocab):
        self.vocab = vocab

    def denoise(self, values, t):
        values = np.asarray(values)
        rows = np.ones((len(values), self.vocab.size))
        rows[:, t % self.vocab.size] += t
        rows /= rows.sum(axis=1, keepdims=True)
        observed = np.flatnonzero(values != self.vocab.mask_id)
        rows[observed] = 0.0
        rows[observed, values[observed]] = 1.0
        return rows


@pytest.mark.parametrize("collect_masks", [False, True])
@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("task", ["sat", "sudoku", "peptide", "t-dependent"])
def test_sample_matches_the_per_step_oracle(task, placement, collect_masks):
    # byte for byte, outputs and traces, at the preset step count and at a
    # long chain where most steps neither search nor commit, with edits to the
    # whole region and to the positions still masked
    cfg = replace(presets()["sat" if task == "t-dependent" else task],
                  placement=placement)
    for i in range(4):
        schedule = m.linear_schedule((cfg.steps, 64)[i % 2])
        instance = build_instance(cfg, i)
        denoiser = (StepTilted(instance.vocab) if task == "t-dependent"
                    else m.build_denoiser(instance, cfg.denoiser, cfg.epsilon))
        for unmask_edits in (True, False):
            scfg = search_config(replace(cfg, allow_unmask_edits=unmask_edits))
            final, trace = sample(instance, denoiser, schedule, scfg,
                                  sample_rng(cfg.seed, i), collect_masks)
            want, want_trace = sample_by_step(instance, denoiser, schedule, scfg,
                                              sample_rng(cfg.seed, i), collect_masks)
            assert final.dtype == want.dtype and final.tobytes() == want.tobytes()
            assert trace == want_trace


def test_empty_step_records_are_shared():
    cfg = replace(presets()["sat"], placement="off", denoiser="exact")
    instance = build_instance(cfg, 0)
    denoiser = m.build_denoiser(instance, cfg.denoiser)
    schedule = m.linear_schedule(64)
    traces = [sample(instance, denoiser, schedule, search_config(cfg),
                     sample_rng(cfg.seed, i))[1] for i in range(2)]
    shared = 0
    for a, b in zip(*traces):
        if a.committed == 0 and b.committed == 0:
            assert a is b and a == StepRecord(a.t, None, None, None, 0, 0)
            shared += 1
    assert shared > 0
    # with masks, an empty step's record repeats the masks of the step before
    _, trace = sample(instance, denoiser, schedule, search_config(cfg),
                      sample_rng(cfg.seed, 0), collect_masks=True)
    before = tuple(range(instance.length))
    for record in trace:
        if record.committed == 0:
            assert record.masked_after == before
        before = record.masked_after
    assert before == ()


def test_sample_trace_invariant_refined_at_most_pool():
    instance = _sat_searchable()
    den = UniformDenoiser(instance.vocab)
    cfg = SearchConfig(placement="all_steps", candidates=8, max_rounds=4)
    _, trace = sample(instance, den, m.linear_schedule(8), cfg,
                      np.random.default_rng(12))
    for record in trace:
        assert record.refined_violation <= record.pool_violation


def test_sample_deterministic():
    instance = _sat_searchable()
    den = UniformDenoiser(instance.vocab)
    cfg = SearchConfig(placement="all_steps", candidates=8, max_rounds=4)
    a = sample(instance, den, m.linear_schedule(8), cfg, np.random.default_rng(21))
    b = sample(instance, den, m.linear_schedule(8), cfg, np.random.default_rng(21))
    assert np.array_equal(a[0], b[0])
    assert a[1] == b[1]


def test_sample_guided_with_greedy_decode_matches_vanilla_marginals():
    # with search off the guided kernel reduces to plain proposal decoding;
    # per-position commit frequencies must match the mixture weights
    vocab = Vocab(("A", "B"))
    instance = Instance("one", vocab, EditableRegion.all_editable(1), ())
    den = UniformDenoiser(vocab)
    sched = m.linear_schedule(4)
    commits_at_t = {4: 0, 3: 0, 2: 0, 1: 0}
    for seed in range(4000):
        _, trace = sample(instance, den, sched, SearchConfig(placement="off"),
                          np.random.default_rng(seed))
        for record in trace:
            if record.committed:
                commits_at_t[record.t] += 1
                break
    # unmask step is uniform over the four steps under the linear schedule
    for t, count in commits_at_t.items():
        assert abs(count / 4000 - 0.25) < 0.03


def test_sample_weight_arity_checked():
    instance = _sat_searchable()
    den = UniformDenoiser(instance.vocab)
    cfg = SearchConfig(weights=(1.0, 2.0))
    with pytest.raises(ContractError):
        sample(instance, den, m.linear_schedule(2), cfg, np.random.default_rng(0))


def test_sample_wraps_step_failures():
    class Broken(UniformDenoiser):
        def denoise(self, values, t):
            raise RuntimeError("boom")

    instance = _sat_searchable()
    with pytest.raises(SampleError) as err:
        sample(instance, Broken(instance.vocab), m.linear_schedule(3),
               SearchConfig(), np.random.default_rng(0))
    assert "t=3" in str(err.value)


def test_sample_vocab_mismatch():
    instance = _sat_searchable()
    with pytest.raises(ConfigError):
        sample(instance, UniformDenoiser(Vocab(("A", "B", "C"))),
               m.linear_schedule(2), SearchConfig(), np.random.default_rng(0))


def test_sudoku_search_repairs_corrupted_proposals():
    from mdsearch.constraints.sudoku import random_puzzle

    board = random_puzzle(2, 8, np.random.default_rng(8))
    instance = sudoku_instance(board)
    den = m.build_denoiser(instance, "noisy", 0.6)
    cfg = SearchConfig(placement="all_steps", candidates=16, max_rounds=16)
    final, _ = sample(instance, den, m.linear_schedule(6), cfg,
                      np.random.default_rng(9))
    frozen = np.array(instance.region.frozen, dtype=np.int64)
    if frozen.size:
        assert np.array_equal(final[frozen], instance.frozen_values[frozen])


NUMPY_WRAPPER_FILES = {"_methods.py", "fromnumeric.py", "numeric.py"}
HOT_PATH_SHAPES = {
    **{task: presets()[task] for task in ("sat", "sudoku", "peptide")},
    "sat-last": replace(presets()["sat"], placement="last_step"),
    "sudoku9": replace(presets()["sudoku"], steps=4, sudoku_box=3, sudoku_blanks=40),
    "sat20": RunConfig(task="sat", steps=8, placement="off", denoiser="exact",
                       sat_vars=20, sat_clauses=70),
}


@pytest.mark.parametrize("shape", sorted(HOT_PATH_SHAPES))
def test_the_sampler_calls_no_numpy_python_wrapper(shape):
    """``sample`` and ``aggregate_violation`` call numpy's C entry points: no
    call enters numpy's ``_methods.py``, ``fromnumeric.py`` or ``numeric.py``
    (matched by file name inside the numpy package, so numpy 1.x and 2.x
    paths both count).

    Why: ``x.sum()``, ``x.all()``, ``np.flatnonzero``, ``np.count_nonzero``,
    ``np.argmin`` and ``np.full`` each run Python frames before their C call,
    and on the 7-81 positions of these tasks those frames cost more than
    the work; the reverse loop pays them at every step of every sample and
    every refinement round. Call the ufunc reduction (``np.add.reduce`` and
    its kin), the array method, or ``np.empty`` plus ``fill`` instead.

    One unprofiled run of the same sample first warms the cache built on
    first use: Sudoku's ``_bin_offsets`` (``np.repeat``, once per batch size).
    """
    cfg = HOT_PATH_SHAPES[shape]
    instance = build_instance(cfg, 0)
    denoiser = m.build_denoiser(instance, cfg.denoiser, cfg.epsilon)
    schedule, config = m.linear_schedule(cfg.steps), search_config(cfg)
    numpy_dir = os.path.dirname(np.__file__)
    entered = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(numpy_dir)
                and os.path.basename(code.co_filename) in NUMPY_WRAPPER_FILES):
            entered[f"{os.path.basename(code.co_filename)}:{code.co_name}"] += 1

    for profiled in (False, True):
        sys.setprofile(profile if profiled else None)
        try:
            final, _ = sample(instance, denoiser, schedule, config, sample_rng(cfg.seed, 0))
            aggregate_violation(final, instance.constraints)
        finally:
            sys.setprofile(None)
    assert not entered, dict(entered)
