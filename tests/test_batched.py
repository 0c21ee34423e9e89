"""Batched fast paths against slow oracles.

``violations`` against the naive recounts row by row, every ``peek_block``
entry against the naive recount of its edited candidate before and between
commits, every ``_commit`` against a rebuild of the edited candidate,
rejected commits against an unchanged tracker, ``best_of_pool``
against a per-draw ``aggregate_violation`` loop, the output check on
every scorer, and the refusal of a constraint that defines ``violation``
or ``violations`` instead of ``_violations``.
"""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdsearch.constraints import base
from mdsearch.constraints.base import Constraint
from mdsearch.constraints.peptide import (
    TERMINATOR,
    PeptideSpec,
    peptide_constraints,
    residue_vocab,
)
from mdsearch.constraints.sat import ClauseViolations, CnfFormula
from mdsearch.constraints.sudoku import UnitDuplicates, random_solution
from mdsearch.denoise import UniformDenoiser
from mdsearch.diffusion import linear_schedule
from mdsearch.errors import ContractError, SampleError
from mdsearch.harness.runner import build_instance, presets
from mdsearch.search import (SearchConfig, aggregate_violation, best_of_pool, proposal_draws,
                             refine, sample)
from mdsearch.tasks import Instance
from mdsearch.vocab import EditableRegion, Vocab

from oracles import (
    naive_peptide_report,
    naive_sat_violation,
    naive_sudoku_violation,
    pool_by_draw,
)

VOCAB = residue_vocab()
TERM = VOCAB.index(TERMINATOR)
SEEDS = st.integers(0, 2**32 - 1)


def random_cnf(rng, num_vars, num_clauses, repeats=False):
    """3-CNF; with ``repeats`` a clause may name one variable more than once."""
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.choice(num_vars, size=3, replace=repeats) + 1
        signs = rng.integers(0, 2, size=3) * 2 - 1
        clauses.append(tuple(int(v * s) for v, s in zip(chosen, signs)))
    return CnfFormula(num_vars, tuple(clauses))


def noisy_solutions(rng, box, rows):
    """Valid grids (as tokens) with a random share of cells overwritten."""
    side = box * box
    batch = np.tile(random_solution(box, rng).ravel() - 1, (rows, 1))
    noise = rng.random(batch.shape) < rng.random()
    batch[noise] = rng.integers(0, side, size=int(noise.sum()))
    return batch


def naive_sudoku_tokens(values, side):
    return naive_sudoku_violation((np.asarray(values) + 1).reshape(side, side))


def naive_peptide_tokens(values):
    return naive_peptide_report(VOCAB.render(values).split(TERMINATOR, 1)[0])


class BlackBox(Constraint):
    """Defines only ``_violations``, as an outside evaluator would: it states
    no alphabet or length and gets the default tracker hooks."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def _violations(self, values):
        return self.inner.violations(values)


def recomputes(constraint):
    """Whether the constraint's tracker scores through ``Constraint``'s default hooks."""
    return (type(constraint)._rebuild is Constraint._rebuild
            and type(constraint)._peek_block is Constraint._peek_block)


# --- violations against the naive recounts ----------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, rows=st.integers(1, 40), repeats=st.booleans())
def test_sat_violations_match_naive_recount(seed, rows, repeats):
    rng = np.random.default_rng(seed)
    f = random_cnf(rng, int(rng.integers(3, 12)), int(rng.integers(1, 60)), repeats)
    batch = rng.integers(0, 2, size=(rows, f.num_vars))
    got = ClauseViolations(f).violations(batch)
    assert got.tolist() == [naive_sat_violation(f.clauses, a) for a in batch]


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, box=st.sampled_from([2, 3]), rows=st.integers(1, 12))
def test_sudoku_violations_match_naive_recount(seed, box, rows):
    rng = np.random.default_rng(seed)
    batch = noisy_solutions(rng, box, rows)
    got = UnitDuplicates(box).violations(batch)
    assert got.tolist() == [naive_sudoku_tokens(row, box * box) for row in batch]


@pytest.mark.parametrize("box", [2, 3])
def test_sudoku_scores_batches_of_any_size_with_one_constraint(box):
    # bin offsets are cached per board and batch size: every size, and a
    # tracker built afterwards, must read its own
    rng = np.random.default_rng(box)
    side = box * box
    constraint = UnitDuplicates(box)
    for rows in (3, 40, 1, 0, 17, 64, 2):
        batch = noisy_solutions(rng, box, rows)
        got = constraint.violations(batch)
        assert got.tolist() == [naive_sudoku_tokens(row, side) for row in batch]
    values = noisy_solutions(rng, box, 1)[0]
    assert constraint.tracker(values).value() == naive_sudoku_tokens(values, side)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, slots=st.integers(0, 60), rows=st.integers(1, 20))
@example(seed=0, slots=0, rows=3)  # empty candidates: an empty prefix
@example(seed=1, slots=12, rows=3)
def test_peptide_violations_match_naive_recount(seed, slots, rows):
    rng = np.random.default_rng(seed)
    batch = rng.integers(0, TERM, size=(rows, slots))  # row 0: no terminator
    for row in batch[1:]:
        row[rng.random(slots) < rng.random()] = TERM
    if rows > 1 and slots:
        batch[1, 0] = TERM  # terminator at slot 0
    if rows > 2:
        batch[2] = TERM  # every slot a terminator
    constraints = peptide_constraints(PeptideSpec(), VOCAB)
    got = np.array([c.violations(batch) for c in constraints]).T
    for row, nu in zip(batch, got):
        assert tuple(nu) == naive_peptide_tokens(row)


# --- peek_block against the naive recount ----------------------------------

def assert_block_matches_naive(tracker, work, positions, num_tokens, naive):
    """Every block entry equals the naive recount of ``work`` with that edit."""
    block = tracker.peek_block(positions, num_tokens)
    assert block.shape == (len(positions), num_tokens)
    for i, pos in enumerate(positions):
        for token in range(num_tokens):
            edited = np.array(work)
            edited[pos] = token
            assert block[i, token] == naive(edited)


def walk(rng, constraint, values, num_tokens, naive, commits=8):
    """Check blocks over a random subset of positions between random commits."""
    tracker = constraint.tracker(values)
    work = np.array(values)
    for _ in range(commits):
        positions = rng.permutation(len(work))[:int(rng.integers(1, len(work) + 1))]
        assert_block_matches_naive(tracker, work, positions, num_tokens, naive)
        pos, token = int(rng.integers(len(work))), int(rng.integers(num_tokens))
        tracker.commit(pos, token)
        work[pos] = token
        assert tracker.value() == naive(work)
    assert_block_matches_naive(tracker, work, np.arange(len(work)), num_tokens, naive)
    return tracker


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, repeats=st.booleans())
def test_clause_tracker_block_matches_naive_recount(seed, repeats):
    rng = np.random.default_rng(seed)
    f = random_cnf(rng, int(rng.integers(3, 10)), int(rng.integers(1, 45)), repeats)
    walk(rng, ClauseViolations(f), rng.integers(0, 2, size=f.num_vars), 2,
         lambda a: naive_sat_violation(f.clauses, a))


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, box=st.sampled_from([2, 3]))
def test_unit_tracker_block_matches_naive_recount(seed, box):
    rng = np.random.default_rng(seed)
    side = box * box
    walk(rng, UnitDuplicates(box), noisy_solutions(rng, box, 1)[0], side,
         lambda a: naive_sudoku_tokens(a, side))


@pytest.mark.parametrize("box", [2, 3])
def test_unit_tracker_block_edge_shapes(box):
    rng = np.random.default_rng(box)
    side = box * box
    values = noisy_solutions(rng, box, 1)[0]
    tracker = UnitDuplicates(box).tracker(values)
    naive = lambda a: naive_sudoku_tokens(a, side)
    assert tracker.peek_block([], side).shape == (0, side)
    assert tracker.peek_block(np.array([], dtype=np.int64), side).shape == (0, side)
    p = int(rng.integers(side * side))
    assert_block_matches_naive(tracker, values, [p], side, naive)  # a Python list
    assert_block_matches_naive(tracker, values, [p, 0, p, p], side, naive)
    for bad in ([-1], [side * side], [0, side * side + 3]):
        with pytest.raises(ContractError):
            tracker.peek_block(bad, side)


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS)
def test_prefix_tracker_block_matches_naive_recount(seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, VOCAB.size, size=int(rng.integers(1, 30)))
    for k, c in enumerate(peptide_constraints(PeptideSpec(), VOCAB)):
        walk(rng, c, values, VOCAB.size, lambda a: naive_peptide_tokens(a)[k])


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS)
def test_full_recompute_block_matches_naive_recount(seed):
    rng = np.random.default_rng(seed)
    f = random_cnf(rng, 6, int(rng.integers(1, 30)), repeats=True)
    tracker = walk(rng, BlackBox(ClauseViolations(f)), rng.integers(0, 2, size=6), 2,
                   lambda a: naive_sat_violation(f.clauses, a))
    assert recomputes(tracker.constraint)
    walk(rng, BlackBox(UnitDuplicates(2)), noisy_solutions(rng, 2, 1)[0], 4,
         lambda a: naive_sudoku_tokens(a, 4))
    charge = peptide_constraints(PeptideSpec(), VOCAB)[1]
    walk(rng, BlackBox(charge), rng.integers(0, VOCAB.size, size=12), VOCAB.size,
         lambda a: naive_peptide_tokens(a)[1])


class EqualNeighbours(Constraint):
    """Defines only the batched ``_violations`` and states no alphabet."""

    name = "equal-neighbours"

    def _violations(self, values):
        return (values[:, 1:] == values[:, :-1]).sum(axis=1).astype(np.float64)


def naive_equal_neighbours(values):
    return float(sum(a == b for a, b in zip(values[:-1], values[1:])))


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS)
def test_batched_only_black_box_refines_through_the_defaults(seed):
    rng = np.random.default_rng(seed)
    constraint = EqualNeighbours()
    assert recomputes(constraint) and constraint.alphabet is None
    values = rng.integers(0, 3, size=int(rng.integers(2, 10)))
    walk(rng, constraint, values, 3, naive_equal_neighbours)
    result = refine(values, (constraint,), None, Vocab(("a", "b", "c")),
                    EditableRegion.all_editable(len(values)), None)
    assert result.history[0] == naive_equal_neighbours(values)
    assert result.report.total == naive_equal_neighbours(result.candidate) == 0.0


# --- _commit against a rebuild of the edited candidate ----------------------

def commit_case(kind, rng):
    """(constraint, candidate, alphabet size) of one ``_commit`` kind."""
    if kind in ("clause", "full"):
        f = random_cnf(rng, int(rng.integers(3, 10)), int(rng.integers(1, 45)), repeats=True)
        constraint = ClauseViolations(f)
        values, size = rng.integers(0, 2, size=f.num_vars), 2
        return (BlackBox(constraint) if kind == "full" else constraint), values, size
    if kind.startswith("unit"):
        box = int(kind[-1])
        return UnitDuplicates(box), noisy_solutions(rng, box, 1)[0], box * box
    values = rng.integers(0, VOCAB.size, size=int(rng.integers(1, 30)))
    values[rng.random(len(values)) < 0.1] = TERM
    return peptide_constraints(PeptideSpec(), VOCAB)[int(kind[-1])], values, VOCAB.size


def same_cache(a, b):
    """Whether two tracker caches (arrays, numbers, None or tuples of them) are equal,
    type for type."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same_cache, a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def crossing_edits(solved, side):
    """Edits of a solved grid's tokens that drive row 0's count of its first
    digit 0 -> 1 -> 2 -> 3 -> 2 -> 1 -> 0 through cells 0, 1 and 2, so that the
    row's presence and duplicate flags of that digit cross both ways."""
    digit, other = int(solved[0]), int(solved[side - 1])
    return ([(0, other)] + [(cell, digit) for cell in (0, 1, 2)]
            + [(2, int(solved[2])), (1, int(solved[1])), (0, other)])


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, kind=st.sampled_from(["clause", "unit2", "unit3", "window0",
                                         "window1", "window2", "full"]))
@example(seed=0, kind="unit2-crossings")
@example(seed=0, kind="unit3-crossings")
def test_commit_hook_matches_a_rebuild_and_leaves_its_arguments(seed, kind):
    # edits to the token already there and repeated edits to one position
    # included; a -crossings kind makes the fixed edits of crossing_edits
    rng = np.random.default_rng(seed)
    kind, _, crossings = kind.partition("-")
    constraint, values, size = commit_case(kind, rng)
    edits = [None] * 12
    if crossings:
        values = random_solution(constraint.box, rng).ravel() - 1
        edits = crossing_edits(values, size)
    assert (type(constraint)._commit is Constraint._commit) == (not kind.startswith("unit"))
    cache, value = constraint._rebuild(values)
    everywhere = np.arange(len(values))
    pos = int(rng.integers(len(values)))
    for edit in edits:
        if edit is not None:
            pos, token = edit
        else:
            if rng.random() < 0.6:
                pos = int(rng.integers(len(values)))
            token = int(values[pos]) if rng.random() < 0.25 else int(rng.integers(size))
        before_cache, before_values = copy.deepcopy(cache), values.copy()
        got_cache, got_value = constraint._commit(cache, values, value, pos, token)
        assert same_cache(cache, before_cache)
        assert np.array_equal(values, before_values)
        edited = values.copy()
        edited[pos] = token
        want_cache, want_value = constraint._rebuild(edited)
        assert same_cache(got_cache, want_cache)
        assert type(got_value) is type(want_value) and got_value == want_value
        got_block = constraint._peek_block(got_cache, edited, got_value, everywhere, size)
        assert np.array_equal(got_block, constraint.tracker(edited).peek_block(everywhere, size))
        cache, value, values = got_cache, got_value, edited


# --- rejected commits --------------------------------------------------------

def tracker_case(kind, rng):
    """(constraint, candidate, alphabet size, naive recount) of one tracker kind."""
    f = random_cnf(rng, 6, 20)
    sat = (ClauseViolations(f), rng.integers(0, 2, size=6), 2,
           lambda a: naive_sat_violation(f.clauses, a))
    if kind == "clause":
        return sat
    if kind == "full":
        return (BlackBox(sat[0]),) + sat[1:]
    if kind == "unit":
        return (UnitDuplicates(2), noisy_solutions(rng, 2, 1)[0], 4,
                lambda a: naive_sudoku_tokens(a, 4))
    charge = peptide_constraints(PeptideSpec(), VOCAB)[1]
    return (charge, rng.integers(0, VOCAB.size, size=12), VOCAB.size,
            lambda a: naive_peptide_tokens(a)[1])


@pytest.mark.parametrize("kind", ["clause", "unit", "prefix", "full"])
def test_rejected_commit_leaves_the_tracker_unchanged(kind):
    rng = np.random.default_rng(7)
    constraint, values, size, naive = tracker_case(kind, rng)
    tracker = constraint.tracker(values)
    assert recomputes(constraint) == (kind in ("clause", "full"))
    everywhere = np.arange(len(values))
    block, value = tracker.peek_block(everywhere, size), tracker.value()
    for pos, token in ((-1, 0), (len(values), 0), (0, -1), (0, size), (1, size + 7),
                       (0, 1.5), (1.0, 0), (True, 1), (0, True)):
        with pytest.raises(ContractError):
            tracker.commit(pos, token)
        assert tracker.values.tolist() == values.tolist()
        assert tracker.value() == value == naive(values)
        assert np.array_equal(tracker.peek_block(everywhere, size), block)
    work = np.array(values)
    work[0] = (work[0] + 1) % size
    tracker.commit(0, int(work[0]))
    assert tracker.value() == naive(work)
    assert_block_matches_naive(tracker, work, everywhere, size, naive)


def test_commit_the_constraint_refuses_leaves_the_tracker_unchanged():
    class RefusesFive(Constraint):
        """A black box with no alphabet whose ``_violations`` refuses token 5."""

        def _violations(self, values):
            if (values == 5).any():
                raise ContractError("token 5 is not allowed")
            return values.sum(axis=1).astype(np.float64)

    values = np.array([1, 0, 2])
    tracker = RefusesFive().tracker(values)
    block = tracker.peek_block([0, 2], 3)
    with pytest.raises(ContractError, match="token 5"):
        tracker.commit(1, 5)
    assert tracker.values.tolist() == values.tolist()
    assert tracker.value() == 3.0
    assert np.array_equal(tracker.peek_block([0, 2], 3), block)
    tracker.commit(1, 4)
    assert tracker.value() == 7.0


@pytest.mark.parametrize("kind", ["clause", "unit", "prefix", "full"])
def test_tracker_block_edge_shapes(kind):
    rng = np.random.default_rng(11)
    constraint, values, size, naive = tracker_case(kind, rng)
    tracker = constraint.tracker(values)
    assert tracker.peek_block([], size).shape == (0, size)
    assert tracker.peek_block(np.array([], dtype=np.int64), size).shape == (0, size)
    p = int(rng.integers(len(values)))
    assert_block_matches_naive(tracker, values, [p], size, naive)  # a Python list
    assert_block_matches_naive(tracker, values, [p, 0, p, p], size, naive)
    for bad in ([-1], [len(values)], [0, len(values) + 3], [1.7], [True], [0.0, 1.0],
                [[0, 1]], [[0], [1]]):
        with pytest.raises(ContractError):
            tracker.peek_block(bad, size)
    if constraint.alphabet is not None:  # a black box states no alphabet
        for wrong in (size - 1, size + 1):
            with pytest.raises(ContractError):
                tracker.peek_block([p], wrong)
    assert tracker.value() == naive(values)


@pytest.mark.parametrize("kind", ["clause", "full"])
@pytest.mark.parametrize("bad", [2.5, -1, 0, None, np.float64(2.0)])
def test_peek_block_refuses_a_token_count_that_is_not_a_count(kind, bad):
    # on a black box, 2.5 raised TypeError, -1 numpy's ValueError, and 0
    # returned an empty (P, 0) block
    constraint, values, _, _ = tracker_case(kind, np.random.default_rng(3))
    with pytest.raises(ContractError, match="token count"):
        constraint.tracker(values).peek_block([0], bad)


def test_peek_block_refuses_a_bool_token_count():
    # True equals an alphabet of 1, and passed the alphabet test
    unary = Binary()
    unary.alphabet = 1
    with pytest.raises(ContractError, match="token count"):
        unary.tracker(np.zeros(3, dtype=np.int64)).peek_block([0], True)
    assert unary.tracker(np.zeros(3, dtype=np.int64)).peek_block([0], 1).tolist() == [[0.0]]


@pytest.mark.parametrize("kind", ["clause", "unit", "prefix", "full"])
def test_tracker_rejects_a_float_candidate(kind):
    # every value truncates to a valid token, so only the dtype check can fire
    constraint, values, _, _ = tracker_case(kind, np.random.default_rng(7))
    floats = values + 0.25
    with pytest.raises(ContractError):
        constraint.violations(floats[None, :])
    with pytest.raises(ContractError):
        constraint.tracker(floats)


# --- best_of_pool against the per-draw loop ----------------------------------

def pool_task(rng, task):
    """(constraints, alphabet size, length, weights) for a random instance."""
    if task == "sat":
        f = random_cnf(rng, int(rng.integers(3, 8)), int(rng.integers(1, 30)))
        return (ClauseViolations(f),), 2, f.num_vars, None
    if task == "sudoku":
        return (UnitDuplicates(2),), 4, 16, (1.5,)
    weights = tuple(float(w) for w in rng.random(3) * 3)
    return (peptide_constraints(PeptideSpec(), VOCAB), VOCAB.size,
            int(rng.integers(1, 20)), weights)


def assert_pool_matches_loop(rows, x_t, count, constraints, weights, seed, mask_id):
    draws = proposal_draws(rows, x_t, count, np.random.default_rng(seed), mask_id)
    best, report, first_total = pool_by_draw(draws, constraints, weights)
    pick = best_of_pool(rows, x_t, count, constraints, weights,
                        np.random.default_rng(seed), mask_id)
    assert pick.candidate.tobytes() == draws[best].tobytes()
    assert pick.report == report
    assert pick.first_total == first_total
    return draws, best


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, count=st.integers(1, 40),
       task=st.sampled_from(["sat", "sudoku", "peptide"]))
def test_best_of_pool_matches_per_draw_loop(seed, count, task):
    rng = np.random.default_rng(seed)
    constraints, size, length, weights = pool_task(rng, task)
    x_t = rng.integers(0, size, size=length)
    x_t[rng.random(length) < rng.random()] = size  # the mask id
    raw = rng.random((length, size)) ** 3 + 1e-3
    rows = raw / raw.sum(axis=1, keepdims=True)
    assert_pool_matches_loop(rows, x_t, count, constraints, weights,
                             int(rng.integers(2**32)), size)


def test_best_of_pool_tie_goes_to_the_earliest_draw():
    class FirstBitClear(Constraint):
        name = "first-bit"

        def _violations(self, values):
            return (values[:, 0] == 0) + 1.0

    rows = np.full((3, 2), 0.5)
    x_t = np.full(3, 2)
    for seed in range(20):
        draws, best = assert_pool_matches_loop(rows, x_t, 16, (FirstBitClear(),),
                                               None, seed, 2)
        totals = np.where(draws[:, 0] == 0, 2.0, 1.0)
        assert best == np.flatnonzero(totals == totals.min())[0]


class Binary(Constraint):
    """A constraint on two tokens: the pool's draws over more tokens can leave it."""

    name = "binary"
    alphabet = 2

    def _violations(self, values):
        return values.sum(axis=1).astype(np.float64)


class Returns(Constraint):
    """A black box that returns ``make(values)`` as its violations."""

    name = "returns"

    def __init__(self, make):
        self.make = make

    def _violations(self, values):
        return self.make(values)


def pool(constraints, num_tokens=3, length=4, count=8, seed=0):
    rows = np.full((length, num_tokens), 1.0 / num_tokens)
    return best_of_pool(rows, np.full(length, num_tokens), count, constraints, None,
                        np.random.default_rng(seed), num_tokens)


def test_pool_refuses_draws_outside_a_constraints_alphabet_or_length():
    # the pool skips re-checking its draws only where the check would pass them
    with pytest.raises(ContractError, match="outside range"):
        pool((Binary(),))
    assert pool((Binary(),), num_tokens=2).report.total >= 0
    short = Binary()
    short.length = 3
    with pytest.raises(ContractError, match="shape"):
        pool((short,), num_tokens=2)


@pytest.mark.parametrize("make", [
    lambda v: np.full(len(v), np.nan),
    lambda v: np.full(len(v), -1.0),
    lambda v: np.zeros(len(v) + 1),
    lambda v: np.zeros((len(v), 1)),
    lambda v: np.zeros(()),
], ids=["nan", "negative", "one-too-many", "column", "scalar"])
def test_pool_refuses_a_black_box_output_that_is_nan_or_misshapen(make):
    with pytest.raises(ContractError, match="non-negative"):
        pool((Returns(make),))
    with pytest.raises(ContractError, match="non-negative"):
        pool((UnitDuplicates(2), Returns(make)), num_tokens=4, length=16)


class Overrides(Constraint):
    """A batch of M rows gets ``make(M)`` back from ``_violations``."""

    name = "overrides"

    def __init__(self, make):
        self.make = make

    def _violations(self, values):
        return self.make(len(values))


BAD_OUTPUTS = {
    "nan": lambda m: np.full(m, np.nan),
    "negative": lambda m: np.full(m, -1.0),
    "scalar": lambda m: np.float64(0.0),
    "column": lambda m: np.zeros((m, 1)),
    "one-too-many": lambda m: np.zeros(m + 1),
}
TERNARY = Vocab(("0", "1", "2"))
SCORERS = {
    "pool": lambda c: pool((c,)),
    "aggregate_violation": lambda c: aggregate_violation(np.zeros(4, dtype=np.int64), (c,)),
    "refine": lambda c: refine(np.zeros(4, dtype=np.int64), (c,), None, TERNARY,
                               EditableRegion.all_editable(4), None),
    "sample": lambda c: sample(Instance("overridden", TERNARY, EditableRegion.all_editable(4),
                                        (c,)),
                               UniformDenoiser(TERNARY), linear_schedule(2), SearchConfig(),
                               np.random.default_rng(0)),
}


def test_a_constraint_defines_only_the_violations_hook():
    # an own ``violations`` was scored unchecked wherever a scorer forgot to
    # check its output; now the class statement itself fails
    with pytest.raises(ContractError, match="Scalar defines violation; "):
        class Scalar(Constraint):
            def violation(self, values):
                return 0.0
    with pytest.raises(ContractError, match="Batch defines violations; "):
        class Batch(Binary):
            def violations(self, values):
                return np.zeros(len(values))

    class Empty(Constraint):
        name = "empty"

    zeros = np.zeros(4, dtype=np.int64)
    for score in (lambda c: c.violation(zeros), lambda c: c.tracker(zeros),
                  *SCORERS.values()):
        with pytest.raises((NotImplementedError, SampleError)) as raised:
            score(Empty())
        error = raised.value
        if type(error) is SampleError:
            error = error.__cause__
        assert type(error) is NotImplementedError
        assert str(error) == "Empty must define _violations"


@pytest.mark.parametrize("scorer", sorted(SCORERS))
@pytest.mark.parametrize("output", sorted(BAD_OUTPUTS))
def test_every_scorer_checks_what_an_overridden_violations_returns(output, scorer):
    # ``Overrides`` stands for any constraint's ``_violations``
    with pytest.raises((ContractError, SampleError)) as raised:
        SCORERS[scorer](Overrides(BAD_OUTPUTS[output]))
    error = raised.value
    if scorer == "sample":
        assert type(error) is SampleError
        error = error.__cause__
    assert type(error) is ContractError
    assert str(error).startswith("overrides: violations must be")


@pytest.fixture
def token_row_calls(monkeypatch):
    """The calls of ``constraints.base.token_rows`` while the test runs."""
    calls = []
    checked = base.token_rows

    def counted(*args, **kwargs):
        calls.append(args)
        return checked(*args, **kwargs)

    monkeypatch.setattr(base, "token_rows", counted)
    return calls


@pytest.mark.parametrize("task", ["sat", "sudoku", "peptide"])
def test_the_pool_skips_the_token_check_on_every_preset_instance(token_row_calls, task):
    # `>` for `>=` on the alphabet, or `and` for `or` on the length, re-checked
    # every pool's draws: the same outputs, only slower
    cfg = presets()[task]
    instance = build_instance(cfg, 0)
    mask_id = instance.vocab.mask_id
    x_t = instance.start.copy()
    rows = UniformDenoiser(instance.vocab).denoise(x_t, 1)
    best_of_pool(rows, x_t, cfg.candidates, instance.constraints, None,
                 np.random.default_rng(0), mask_id)
    assert token_row_calls == []


def test_the_pool_checks_tokens_once_for_a_narrower_alphabet(token_row_calls):
    rows = np.array([[0.5, 0.5, 0.0]] * 4)  # the draws stay inside Binary's two tokens
    best_of_pool(rows, np.full(4, 3), 8, (Binary(),), None, np.random.default_rng(0), 3)
    assert len(token_row_calls) == 1
