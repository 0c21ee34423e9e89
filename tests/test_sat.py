from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdsearch.constraints import sat
from mdsearch.constraints.sat import (
    ENUM_VAR_CAP,
    ClauseViolations,
    CnfFormula,
    assignment_vocab,
    is_satisfiable,
    parse_dimacs,
    render_dimacs,
    satisfying_assignments,
)
from mdsearch.errors import ConfigError, ContractError, GenerationError, ParseError
from mdsearch.harness.runner import build_instance, instance_rng, presets

from oracles import (naive_sat_violation, random_formula_by_draw,
                     satisfying_assignments_by_chunks)


def sat_delta(formula, values, pos):
    """Change in unsatisfied-clause count from flipping ``pos``, by ``peek_block``."""
    tracker = ClauseViolations(formula).tracker(values)
    return tracker.peek_block([pos], 2)[0, 1 - values[pos]] - tracker.value()


def test_formula_validation():
    with pytest.raises(ConfigError):
        CnfFormula(0, ((1,),))
    with pytest.raises(ConfigError):
        CnfFormula(2, ())
    with pytest.raises(ConfigError):
        CnfFormula(2, ((),))
    with pytest.raises(ConfigError):
        CnfFormula(2, ((3,),))
    with pytest.raises(ConfigError):
        CnfFormula(2, ((0,),))


def test_formula_refuses_mutable_clause_containers():
    # a list of clauses was kept, so editing it afterwards made the checks
    # leak numpy's IndexError; it also made the formula unhashable
    clauses = [[1, 2], [-1, 3]]
    for bad in (clauses, [(1, 2), (-1, 3)], ([1, 2], (-1, 3))):
        with pytest.raises(ConfigError, match="tuple of tuples"):
            CnfFormula(3, bad)
    formula = CnfFormula(3, ((1, 2), (-1, 3)))
    assert hash(formula) == hash(CnfFormula(3, ((1, 2), (-1, 3))))


def test_formula_rejects_non_integer_literals():
    # a float literal would fail only later, in violations; True would
    # read as variable 1
    for bad in (1.5, 2.0, np.float64(1.0), True, np.True_):
        with pytest.raises(ConfigError):
            CnfFormula(3, ((bad, 2, 3),))
    assert CnfFormula(3, ((np.int64(1), -2, 3),)).clauses == ((1, -2, 3),)


def test_formula_rejects_a_non_integer_variable_count():
    # 3.5 would build and then fail in every check and enumeration; True
    # would read as one variable
    for bad in (3.5, 3.0, np.float64(3.0), True, np.True_, "3"):
        with pytest.raises(ConfigError):
            CnfFormula(bad, ((1,),))
    assert CnfFormula(np.int64(3), ((1, -2, 3),)) == CnfFormula(3, ((1, -2, 3),))


def test_sat_violation_examples():
    f = ClauseViolations(CnfFormula(3, ((1, 2, 3),)))
    assert f.violation(np.array([0, 0, 0])) == 1
    assert f.violation(np.array([1, 0, 0])) == 0
    g = ClauseViolations(CnfFormula(2, ((1, 2), (-1, 2))))
    assert g.violation(np.array([0, 1])) == 0
    assert g.violation(np.array([0, 0])) == 1
    with pytest.raises(ContractError):
        g.violation(np.array([0, 1, 1]))


def test_clause_violations_keep_no_formula():
    # the scorer reads its (clauses, width) literal tables, never the formula
    assert not hasattr(ClauseViolations(CnfFormula(2, ((1, -2),))), "formula")


def test_sat_violation_matches_naive_oracle():
    rng = np.random.default_rng(1)
    f = random_formula_by_draw(7, 45, rng, require_satisfiable=False)
    evaluator = ClauseViolations(f)
    for _ in range(1000):
        a = rng.integers(0, 2, size=7)
        assert evaluator.violation(a) == naive_sat_violation(f.clauses, a)


def test_sat_violation_invariant_under_reordering():
    rng = np.random.default_rng(2)
    f = random_formula_by_draw(6, 20, rng, require_satisfiable=False)
    shuffled_clauses = list(f.clauses)
    rng.shuffle(shuffled_clauses)
    shuffled_clauses = [tuple(int(x) for x in rng.permutation(c)) for c in shuffled_clauses]
    g = CnfFormula(6, tuple(shuffled_clauses))
    ev_f, ev_g = ClauseViolations(f), ClauseViolations(g)
    for _ in range(200):
        a = rng.integers(0, 2, size=6)
        assert ev_f.violation(a) == ev_g.violation(a)


def test_sat_delta_examples():
    # variable absent from every clause
    f = CnfFormula(3, ((1, 2, 1),))
    a = np.array([0, 0, 1])
    assert sat_delta(f, a, 2) == 0
    # single positive unit clause, flipping its variable to true
    g = CnfFormula(1, ((1,),))
    assert sat_delta(g, np.array([0]), 0) == -1
    assert sat_delta(g, np.array([1]), 0) == 1


def test_tracker_matches_recomputation():
    rng = np.random.default_rng(3)
    for _ in range(30):
        f = random_formula_by_draw(int(rng.integers(3, 10)), int(rng.integers(1, 40)), rng,
                                   require_satisfiable=False)
        evaluator = ClauseViolations(f)
        a = rng.integers(0, 2, size=f.num_vars)
        tracker = evaluator.tracker(a)
        work = a.copy()
        for _ in range(40):
            pos = int(rng.integers(f.num_vars))
            token = int(rng.integers(0, 2))
            expected = naive_sat_violation(f.clauses, np.where(
                np.arange(f.num_vars) == pos, token, work))
            assert tracker.peek_block([pos], 2)[0, token] == expected
            if rng.random() < 0.5:
                tracker.commit(pos, token)
                work[pos] = token
                assert tracker.value() == naive_sat_violation(f.clauses, work)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tracker_delta_property(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = random_formula_by_draw(5, 12, rng, require_satisfiable=False)
    a = rng.integers(0, 2, size=5)
    pos = data.draw(st.integers(0, 4))
    flipped = a.copy()
    flipped[pos] = 1 - flipped[pos]
    assert sat_delta(f, a, pos) == (naive_sat_violation(f.clauses, flipped)
                                    - naive_sat_violation(f.clauses, a))


def test_tracker_rejects_bad_input():
    f = CnfFormula(2, ((1, 2),))
    evaluator = ClauseViolations(f)
    with pytest.raises(ContractError):
        evaluator.tracker(np.array([0, 2]))
    tracker = evaluator.tracker(np.array([0, 1]))
    with pytest.raises(ContractError):
        tracker.commit(0, 5)
    with pytest.raises(ContractError):
        tracker.commit(9, 1)
    with pytest.raises(ContractError):
        tracker.peek_block([9], 2)
    with pytest.raises(ContractError):
        tracker.peek_block([0], 3)


def test_violations_reject_tokens_outside_the_alphabet():
    evaluator = ClauseViolations(CnfFormula(2, ((1, 2), (-1, -2))))
    masked = assignment_vocab().mask_id
    for bad in ([masked, 1], [-1, 0], [0, 5]):
        with pytest.raises(ContractError):
            evaluator.violation(np.array(bad))
        with pytest.raises(ContractError):
            evaluator.violations(np.array([[0, 1], bad]))
    with pytest.raises(ContractError):
        evaluator.violations(np.array([0, 1]))  # a batch is two-dimensional


def test_tracker_counts_repeated_variables_once_per_clause():
    # x1 or not x1 is a tautology; x1 or x1 is violated as soon as x1 is false
    f = CnfFormula(2, ((1, -1), (2,), (1, 1, 2)))
    evaluator = ClauseViolations(f)
    a = np.array([1, 0])
    tracker = evaluator.tracker(a)
    block = tracker.peek_block(np.arange(2), 2)
    for pos in range(2):
        for token in range(2):
            edited = a.copy()
            edited[pos] = token
            expected = naive_sat_violation(f.clauses, edited)
            assert block[pos, token] == expected
    tracker.commit(0, 0)
    assert tracker.value() == naive_sat_violation(f.clauses, [0, 0]) == 2


def test_satisfying_assignments_enumeration():
    f = CnfFormula(2, ((1, 2),))
    sols = satisfying_assignments(f)
    assert sorted(map(tuple, sols.tolist())) == [(0, 1), (1, 0), (1, 1)]
    contradiction = CnfFormula(1, ((1,), (-1,)))
    assert satisfying_assignments(contradiction).shape == (0, 1)
    assert not is_satisfiable(contradiction)
    with pytest.raises(ConfigError):
        satisfying_assignments(CnfFormula(21, ((1, 2, 3),)))
    with pytest.raises(ConfigError):
        is_satisfiable(CnfFormula(21, ((1, 2, 3),)))


@st.composite
def cnf_formulas(draw):
    """Formulas over 1-12 variables whose clauses may repeat a variable or
    hold both of its literals; many unit clauses make some unsatisfiable."""
    n = draw(st.integers(1, 12))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=4).map(tuple),
                            min_size=1, max_size=3 * n + 4))
    return CnfFormula(n, tuple(clauses))


@settings(max_examples=150, deadline=None)
@given(cnf_formulas(), st.integers(0, 2**32 - 1))
def test_clause_counts_over_the_padded_table_match_the_naive_oracle(formula, seed):
    rng = np.random.default_rng(seed)
    n = formula.num_vars
    evaluator = ClauseViolations(formula)
    batch = rng.integers(0, 2, size=(8, n))
    assert evaluator.violations(batch).tolist() == [
        naive_sat_violation(formula.clauses, row) for row in batch]
    work = batch[0].copy()
    tracker = evaluator.tracker(work)
    for _ in range(6):
        block = tracker.peek_block(np.arange(n), 2)
        for pos in range(n):
            for token in range(2):
                edited = work.copy()
                edited[pos] = token
                assert block[pos, token] == naive_sat_violation(formula.clauses, edited)
        pos, token = int(rng.integers(n)), int(rng.integers(2))
        tracker.commit(pos, token)
        work[pos] = token
        assert tracker.value() == naive_sat_violation(formula.clauses, work)


def assert_enumeration_matches_oracle(formula):
    expected = satisfying_assignments_by_chunks(formula)
    got = satisfying_assignments(formula)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert is_satisfiable(formula) == (expected.shape[0] > 0)


@settings(max_examples=300, deadline=None)
@given(cnf_formulas())
@example(CnfFormula(1, ((1,),)))                      # one code in a partial word
@example(CnfFormula(3, ((1, -1), (2, 2, -3))))        # tautology, repeated variable
@example(CnfFormula(5, ((1, 2, 3, 4, 5),)))           # partial word, 31 of 32 codes
@example(CnfFormula(6, ((-6,), (1, -1))))             # exactly one word
@example(CnfFormula(7, ((7,), (-7, 1))))              # first word-index variable
@example(CnfFormula(12, ((12, 1), (-12, -1))))        # highest word-index bit
@example(CnfFormula(4, ((2,), (-2, 3), (-3,))))       # unsatisfiable by propagation
@example(CnfFormula(8, ((8,), (-8,))))                # unsatisfiable over many words
def test_satisfying_assignments_match_the_chunked_oracle(formula):
    assert_enumeration_matches_oracle(formula)


def clauses_per_block(formula):
    """Clauses per block of ``sat._satisfying_words`` (one variable row is
    2^(n-6) words, and every clause is padded to the widest)."""
    width = max(map(len, formula.clauses))
    return max(sat._BLOCK_WORDS // (width << max(formula.num_vars - 6, 0)), 1)


@st.composite
def multi_block_cnf_formulas(draw):
    """Formulas over 13-18 variables with clauses of 1-5 literals, one of
    them 5 wide, and more clauses than fit in one block."""
    n = draw(st.integers(13, 18))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    per_block = sat._BLOCK_WORDS // (5 << (n - 6))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=5).map(tuple),
                            min_size=per_block, max_size=2 * per_block + 6))
    widest = tuple(draw(st.lists(literal, min_size=5, max_size=5)))
    clauses.insert(draw(st.integers(0, len(clauses))), widest)
    return CnfFormula(n, tuple(clauses))


def mixed_width_formula(num_vars, num_clauses, seed):
    rng = np.random.default_rng(seed)
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.choice(num_vars, size=int(rng.integers(1, 6)), replace=False) + 1
        clauses.append(tuple(int(v) for v in chosen * rng.choice((-1, 1), size=chosen.size)))
    return CnfFormula(num_vars, tuple(clauses))


@settings(max_examples=40, deadline=None)
@given(multi_block_cnf_formulas())
@example(mixed_width_formula(20, 12, seed=4))
@example(mixed_width_formula(16, 40, seed=5))
def test_multi_block_enumeration_matches_the_chunked_oracle(formula):
    assert len(formula.clauses) > clauses_per_block(formula)
    assert_enumeration_matches_oracle(formula)


def test_enumeration_stopped_after_the_first_block_matches_the_chunked_oracle():
    # x16 and not x16 in the first block; the clauses after it would be
    # satisfiable on their own
    tail = tuple((v, -(v % 15 + 1), v % 13 + 2) for v in range(1, 16)) * 2
    formula = CnfFormula(16, ((16, 1, 2), (16,), (-16,)) + tail)
    per_block = clauses_per_block(formula)
    assert 3 <= per_block < len(formula.clauses)
    first_block = CnfFormula(16, formula.clauses[:per_block])
    assert satisfying_assignments_by_chunks(first_block).shape[0] == 0
    assert satisfying_assignments_by_chunks(CnfFormula(16, tail)).shape[0] > 0
    assert_enumeration_matches_oracle(formula)


def test_a_formula_is_evaluated_once_and_its_codes_are_read_only(monkeypatch):
    calls = []
    real = sat._satisfying_words
    monkeypatch.setattr(sat, "_satisfying_words",
                        lambda *args: calls.append(args) or real(*args))
    formula = mixed_width_formula(9, 20, seed=6)
    assert is_satisfiable(formula)
    support = satisfying_assignments(formula)
    assert len(calls) == 1
    assert satisfying_assignments(formula).tobytes() == support.tobytes()
    assert len(calls) == 1
    with pytest.raises(ValueError):
        formula._codes[0] = 0
    # an equal formula built on its own evaluates to the same assignments
    twin = mixed_width_formula(9, 20, seed=6)
    assert twin == formula and twin is not formula
    assert satisfying_assignments(twin).tobytes() == support.tobytes()
    assert len(calls) == 2
    assert_enumeration_matches_oracle(formula)


def row_builds(monkeypatch):
    """The word indices of each variable table that ``sat._satisfying_words``
    builds from now on, in order."""
    built = []
    real = sat._variable_rows
    monkeypatch.setattr(sat, "_variable_rows",
                        lambda n, words: built.append(words.copy()) or real(n, words))
    return built


def oracle_words(formula):
    """The chunked oracle's satisfying assignments, packed as
    ``sat._satisfying_words`` packs them."""
    n = formula.num_vars
    codes = satisfying_assignments_by_chunks(formula) @ (1 << np.arange(n))
    bits = np.zeros(max(1 << n, 64), dtype=np.uint8)
    bits[codes] = 1
    return np.packbits(bits, bitorder="little").view("<u8").astype(np.uint64)


def test_satisfying_assignments_match_the_chunked_oracle_at_the_cap(monkeypatch):
    formula = sat.random_formula(20, 70, np.random.default_rng(11))
    assert formula.num_vars == ENUM_VAR_CAP
    built = row_builds(monkeypatch)
    twin = CnfFormula(20, formula.clauses)
    assert_enumeration_matches_oracle(twin)
    assert twin._codes.tobytes() == formula._codes.tobytes()
    # the frontier never spans every word, and its word indices ascend
    assert len(built) >= 3
    assert all(len(words) < 1 << 14 for words in built)
    assert all((words[1:] > words[:-1]).all() for words in built)


def narrowing_formulas():
    """Three (60, 3) 16-variable formulas, each spanning many blocks, the
    first two satisfiable."""
    rng = np.random.default_rng(3)
    formulas = [sat.random_formula(16, 60, rng) for _ in range(2)]
    formulas.append(sat._loop_draw(16, 60, rng))
    return formulas


def test_multi_block_formulas_narrow_to_the_words_each_holds(monkeypatch):
    formulas = narrowing_formulas()
    built = row_builds(monkeypatch)
    expected = [oracle_words(f) for f in formulas]
    for formula, packed in zip(formulas, expected):
        words = sat._satisfying_words(16, formula._literals)
        assert words.dtype == np.uint64 and words.shape == (1 << 10,)
        assert words.tobytes() == packed.tobytes()
    # each formula grows its own frontier, which never spans all 2^10 words,
    # so each satisfiable formula's words are scattered from its frontier
    assert len(built) >= 3 and all(len(w) < 1 << 10 for w in built)


def test_enumeration_sorts_a_copy_of_the_callers_clauses():
    # a formula drawn by the loop, so no enumeration runs before the call
    literals = sat._loop_draw(16, 60, np.random.default_rng(3))._literals.copy()
    before = literals.copy()
    levels = np.maximum(np.abs(literals).max(axis=1) - 6, 0)
    assert (np.diff(levels) < 0).any()  # the sort reorders this table
    assert literals.flags.writeable  # so a sort in place would not raise
    sat._satisfying_words(16, literals)
    assert literals.tobytes() == before.tobytes()


def test_one_block_formulas_read_one_shared_all_words_table():
    table = sat._all_word_rows(9)
    assert not table.flags.writeable
    assert sat._all_word_rows(9) is table
    assert table.tobytes() == sat._variable_rows(9, np.arange(8, dtype=np.uint64)).tobytes()


@st.composite
def frontier_formulas(draw):
    """A formula over 1-16 variables with 1-4 literals per clause, and a
    block size: unit clauses, tautologies, and in some formulas only
    variables 7 and up. The small blocks make even the 6- and 7-variable
    formulas grow frontiers."""
    n = draw(st.sampled_from((6, 7))) if draw(st.booleans()) else draw(st.integers(1, 16))
    width = draw(st.integers(1, 4))
    low = draw(st.sampled_from((1, 7))) if n >= 7 else 1
    literal = st.integers(low, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = []
    for _ in range(draw(st.integers(1, 40))):
        clause = draw(st.lists(literal, min_size=1, max_size=width))
        if len(clause) < width and draw(st.booleans()):
            clause.append(-clause[0])  # a tautology
        clauses.append(tuple(clause))
    return CnfFormula(n, tuple(clauses)), draw(st.sampled_from((sat._BLOCK_WORDS, 64, 1)))


@settings(max_examples=80, deadline=None)
@given(frontier_formulas())
# a 7-variable formula too large for one block; one word, with a tautology,
# and an unsatisfiable one; near-tautological at the cap, levels 0 and 14
@example((CnfFormula(7, ((7,), (-7, 1)) * 4200), sat._BLOCK_WORDS))
@example((CnfFormula(6, ((1, -1), (2, 3, -4, 5))), 1))
@example((CnfFormula(6, ((6,), (-6,))), 1))
@example((CnfFormula(20, ((-7, 8, 20), (1, 2, 3))), sat._BLOCK_WORDS))
def test_frontier_words_match_the_oracle(case):
    formula, block = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sat, "_BLOCK_WORDS", block)
        words = sat._satisfying_words(formula.num_vars, formula._literals)
    assert words.dtype == np.uint64 and words.shape == (1 << max(formula.num_vars - 6, 0),)
    assert words.tobytes() == oracle_words(formula).tobytes()


def test_dimacs_roundtrip():
    f = CnfFormula(3, ((1, -2, 3), (-1, 2, -3)))
    text = render_dimacs(f)
    assert parse_dimacs(text) == f
    assert "p cnf 3 2" in text


def test_dimacs_parsing_flexibility():
    text = "c comment\np cnf 3 2\n1 -2 3 0 -1\n2 -3 0\n"
    f = parse_dimacs(text)
    assert f.clauses == ((1, -2, 3), (-1, 2, -3))


def test_dimacs_errors():
    with pytest.raises(ParseError):
        parse_dimacs("1 2 0\n")  # clause before header
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n1 x 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 2\n1 2 0\n")  # clause count mismatch
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 1\n5 0\n")  # literal out of range


@pytest.mark.parametrize("text, message", [
    ("p dnf 2 1\n1 2 0\n", "line 1: bad header 'p dnf"),
    ("p cnf two 1\n1 2 0\n", "line 1: bad header counts"),
    ("c only a comment\n", "missing 'p cnf' header"),
    # it re-declared both counts, after earlier clauses were checked against the first
    ("p cnf 2 1\n1 2 0\np cnf 3 2\n3 0\n", "line 3: second header 'p cnf 3 2'"),
    # the first field must be exactly "p"
    ("pq cnf 2 1\n1 2 0\n", "line 1: bad header 'pq cnf 2 1'"),
    # counts below 1 are the file's fault, named by line, not a ConfigError
    ("c none\np cnf 0 0\n", "line 2: header counts below 1 in 'p cnf 0 0'"),
    ("p cnf -1 1\n1 0\n", "line 1: header counts below 1"),
    ("p cnf 2 0\n", "line 1: header counts below 1"),
], ids=["header", "header-counts", "no-header", "second-header", "header-prefix",
        "zero-counts", "negative-variables", "zero-clauses"])
def test_dimacs_header_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_dimacs(text)


def test_dimacs_comment_with_a_form_feed_is_one_line():
    assert parse_dimacs("c a\fb\np cnf 2 1\n1 -2 0\n") == CnfFormula(2, ((1, -2),))
    with pytest.raises(ParseError, match="line 3: bad literal 'x'"):
        parse_dimacs("c a\fb\vc\x1cd\np cnf 2 1\n1 x 0\n")


def test_dimacs_skips_a_lone_zero_and_ends_an_unterminated_last_clause():
    assert parse_dimacs("p cnf 3 2\n0\n1 -2 0\n2 3\n") == CnfFormula(3, ((1, -2), (2, 3)))


# --- random formulas: the decode against the per-clause loop -----------------

def assert_same_stream(a, b):
    """The two generators give the same next 32-bit words and doubles."""
    words = [rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist() for rng in (a, b)]
    assert words[0] == words[1]
    assert a.random() == b.random()


def pre_drawn(bit_generator, seed, pre_draws):
    """A generator after ``pre_draws`` 32-bit draws: an odd count leaves a
    buffered half word in PCG64."""
    rng = np.random.Generator(bit_generator(seed))
    rng.integers(0, 2**32, size=pre_draws, dtype=np.uint32)
    return rng


def batch_words(rng, num_vars, num_clauses, count):
    """The 32-bit words ``count`` clause-loop draws read, as random_formula reads them."""
    width = len(sat._clause_bounds(num_vars))
    return rng.integers(0, 2**32, size=(count * num_clauses, width), dtype=np.uint32)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_vars=st.integers(3, 20),
       num_clauses=st.integers(1, 80), count=st.integers(1, 3), pre_draws=st.integers(0, 2),
       bit_generator=st.sampled_from([np.random.PCG64, np.random.MT19937]))
@example(seed=0, num_vars=3, num_clauses=45, count=3, pre_draws=1,
         bit_generator=np.random.PCG64)
def test_decode_draws_matches_the_clause_loop(seed, num_vars, num_clauses, count, pre_draws,
                                              bit_generator):
    words = batch_words(pre_drawn(bit_generator, seed, pre_draws), num_vars, num_clauses,
                        count)
    literals = sat._decode_draws(num_vars, num_clauses, words)
    assert literals.shape[1:] == (num_clauses, 3) and len(literals) <= count
    loop_rng = pre_drawn(bit_generator, seed, pre_draws)
    for table in literals:
        assert tuple(map(tuple, table.tolist())) == sat._loop_draw(
            num_vars, num_clauses, loop_rng).clauses
    # the decoded draws read exactly their own words, so the generator
    # rewound to them stands where the loop does after those draws
    used_rng = pre_drawn(bit_generator, seed, pre_draws)
    batch_words(used_rng, num_vars, num_clauses, len(literals))
    assert_same_stream(used_rng, loop_rng)


def forced_rejection_rng(seed):
    """A PCG64 generator whose next 32-bit word is 0 (its buffered half word)."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    state.update(has_uint32=1, uinteger=0)
    rng.bit_generator.state = state
    return rng


def test_random_formula_falls_back_to_the_loop_on_a_lemire_rejection():
    # at n=7 Floyd's first bound is 5: the word 0 leaves a low half of 0,
    # below 2^32 mod 5 = 1, so the loop rejects it and reads another word
    assert len(sat._decode_draws(7, 45, batch_words(forced_rejection_rng(3), 7, 45, 1))) == 0
    rng, loop_rng = forced_rejection_rng(3), forced_rejection_rng(3)
    formula = sat.random_formula(7, 45, rng, require_satisfiable=False)
    assert formula == sat._loop_draw(7, 45, loop_rng)
    assert rng.bit_generator.state == loop_rng.bit_generator.state
    # without the forced word the same seed's words decode
    assert len(sat._decode_draws(7, 45, batch_words(np.random.default_rng(3), 7, 45, 1))) == 1


@pytest.mark.parametrize("num_vars", [3, 7])
def test_a_risky_word_stops_the_decode_at_its_draw(num_vars):
    # the word 1 leaves a low half equal to its bound, which Lemire's method
    # never rejects; the word 0 leaves 0, below every bound
    width = len(sat._clause_bounds(num_vars))
    clean = batch_words(np.random.default_rng(11), num_vars, 5, 3)
    full = sat._decode_draws(num_vars, 5, clean)
    assert len(full) == 3
    for column in range(width):
        words = clean.copy()
        words[:, column] = 1
        assert len(sat._decode_draws(num_vars, 5, words)) == 3
        for clause in (0, 5, 9, 14):  # first and last clauses of the draws
            words = clean.copy()
            words[clause, column] = 0
            stopped = sat._decode_draws(num_vars, 5, words)
            assert stopped.tolist() == full[:clause // 5].tolist()


def test_from_2_32_variables_every_draw_takes_the_loop():
    # choice draws 64-bit words there, so no 32-bit word decodes
    num_vars = 1 << 32
    assert len(sat._decode_draws(num_vars, 4, batch_words(np.random.default_rng(5),
                                                          num_vars, 4, 1))) == 0
    rng, loop_rng = np.random.default_rng(5), np.random.default_rng(5)
    formula = sat.random_formula(num_vars, 4, rng, require_satisfiable=False)
    assert formula == sat._loop_draw(num_vars, 4, loop_rng)
    assert_same_stream(rng, loop_rng)


# --- random formulas: the batched rejection draws against the per-draw loop --

@st.composite
def formula_shapes(draw):
    """(variables, clauses), at most 4.4 clauses per variable at 20 variables,
    where a draw's truth table takes about 10 ms and most draws are satisfiable."""
    num_vars = draw(st.integers(3, 20))
    return num_vars, draw(st.integers(1, 4 * num_vars + 8))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=formula_shapes(), pre_draws=st.integers(0, 2),
       bit_generator=st.sampled_from([np.random.PCG64, np.random.MT19937]),
       require_satisfiable=st.booleans())
@example(seed=7, shape=(7, 45), pre_draws=1, bit_generator=np.random.PCG64,
         require_satisfiable=True)
@example(seed=2, shape=(3, 20), pre_draws=1, bit_generator=np.random.MT19937,
         require_satisfiable=True)
@example(seed=5, shape=(20, 88), pre_draws=2, bit_generator=np.random.PCG64,
         require_satisfiable=True)
def test_random_formula_matches_the_per_draw_loop(seed, shape, pre_draws, bit_generator,
                                                  require_satisfiable):
    rng = pre_drawn(bit_generator, seed, pre_draws)
    loop_rng = pre_drawn(bit_generator, seed, pre_draws)
    formula = sat.random_formula(*shape, rng, require_satisfiable)
    assert formula == random_formula_by_draw(*shape, loop_rng, require_satisfiable)
    assert_same_stream(rng, loop_rng)


def mt_rng_with_zero_word(seed, index):
    """An MT19937 generator whose 32-bit output ``index`` (< 624) is 0: with
    its position reset, output ``i`` is key word ``i`` tempered, and tempering
    maps 0 to 0."""
    rng = np.random.Generator(np.random.MT19937(seed))
    state = rng.bit_generator.state
    key = state["state"]["key"].copy()
    key[index] = 0
    state["state"] = {"key": key, "pos": 0}
    rng.bit_generator.state = state
    return rng


def test_mt_rng_with_zero_word_sets_that_output():
    words = mt_rng_with_zero_word(4, 9).integers(0, 2**32, size=10, dtype=np.uint32)
    assert words[9] == 0 and words[:9].all()


def test_a_lemire_risky_draw_inside_a_batch_falls_back_alone(monkeypatch):
    # at n=7 a draw reads 45 * 8 words, so word 440 is the first word of
    # clause 10 of draw 1; the word 0 is below Floyd's first bound, 5
    assert sat._BATCH_DRAWS > 2
    assert len(sat._decode_draws(7, 45, batch_words(mt_rng_with_zero_word(0, 440), 7, 45,
                                                    3))) == 1
    loop_rng = mt_rng_with_zero_word(0, 440)
    expected = random_formula_by_draw(7, 45, loop_rng)
    loop_draws, checks = [], []
    real_loop, real_check = sat._loop_draw, sat.is_satisfiable
    monkeypatch.setattr(sat, "_loop_draw",
                        lambda *args: loop_draws.append(args) or real_loop(*args))
    monkeypatch.setattr(sat, "is_satisfiable",
                        lambda formula: checks.append(formula) or real_check(formula))
    rng = mt_rng_with_zero_word(0, 440)
    assert sat.random_formula(7, 45, rng) == expected
    assert_same_stream(rng, loop_rng)
    # draw 0 came from the batch and was rejected; only draw 1 took the loop
    assert len(checks) > 2 and not real_check(checks[0])
    assert len(loop_draws) == 1


def test_random_formula_truth_tables_each_checked_draw_on_its_own(monkeypatch):
    # at (7, 45) a batch decodes _BATCH_DRAWS draws; only the draws checked
    # are truth-tabled, each as one (clauses, 3) table
    tables, checks = [], []
    real_words, real_check = sat._satisfying_words, sat.is_satisfiable
    monkeypatch.setattr(sat, "_satisfying_words",
                        lambda n, literals: tables.append(literals.shape)
                        or real_words(n, literals))
    monkeypatch.setattr(sat, "is_satisfiable",
                        lambda formula: checks.append(formula) or real_check(formula))
    formula = sat.random_formula(7, 45, np.random.default_rng(8))
    assert len(checks) > 1 and checks[-1] is formula
    assert tables == [(45, 3)] * len(checks)


@pytest.mark.parametrize("seed, position", [(0, 0), (2, 1), (3, 2), (4, 3), (8, 4), (18, 5)])
def test_the_rewind_rereads_the_used_draws_at_every_batch_position(monkeypatch, seed,
                                                                   position):
    # at (7, 45) a batch holds _BATCH_DRAWS draws; each seed's accepted draw
    # sits at ``position`` in its batch, the last one leaving no draw unused
    checks = []
    real_check = sat.is_satisfiable
    monkeypatch.setattr(sat, "is_satisfiable",
                        lambda formula: checks.append(formula) or real_check(formula))
    rng = np.random.default_rng(seed)
    formula = sat.random_formula(7, 45, rng)
    assert (len(checks) - 1) % sat._BATCH_DRAWS == position
    loop_rng = np.random.default_rng(seed)
    assert formula == random_formula_by_draw(7, 45, loop_rng)
    assert_same_stream(rng, loop_rng)


def test_random_formula_gives_up_after_exactly_the_cap(monkeypatch):
    # 200 clauses over 3 variables leave a sign pattern uncovered with
    # probability below 1e-10, so every draw is unsatisfiable
    checks = []
    real_check = sat.is_satisfiable
    monkeypatch.setattr(sat, "is_satisfiable",
                        lambda formula: checks.append(formula) or real_check(formula))
    with pytest.raises(GenerationError, match=f"after {sat.REJECTION_CAP} draws"):
        sat.random_formula(3, 200, np.random.default_rng(2))
    assert len(checks) == sat.REJECTION_CAP
    # at a cap of 21 the last batch is part full; the generator ends where
    # the per-draw loop's does (its 1000 draws take seconds)
    monkeypatch.setattr(sat, "REJECTION_CAP", 21)
    loop_rng = np.random.default_rng(2)
    with pytest.raises(GenerationError):
        random_formula_by_draw(3, 200, loop_rng)
    checks.clear()
    rng = np.random.default_rng(2)
    with pytest.raises(GenerationError, match="after 21 draws"):
        sat.random_formula(3, 200, rng)
    assert len(checks) == 21 and 21 % min(sat._BATCH_DRAWS, 21) != 0
    assert_same_stream(rng, loop_rng)


def test_drawn_formula_caches_read_only_copies_of_its_batch_rows(monkeypatch):
    batches = []
    real_decode, real_words = sat._decode_draws, sat._satisfying_words
    # the generator's words and the decoded literal tables of each batch
    monkeypatch.setattr(sat, "_decode_draws", lambda *args: batches.extend(
        [args[2], real_decode(*args)]) or batches[-1])
    monkeypatch.setattr(sat, "_satisfying_words",
                        lambda *args: batches.append(real_words(*args)) or batches[-1])
    formula = sat.random_formula(7, 45, np.random.default_rng(7))
    assert len(batches) >= 3 and len(batches[1]) > 1
    fresh = CnfFormula(formula.num_vars, formula.clauses)
    for name in ("_literals", "_codes"):
        cached = formula.__dict__[name]
        assert not cached.flags.writeable and cached.base is None
        assert not any(np.shares_memory(cached, batch) for batch in batches)
        assert cached.tobytes() == getattr(fresh, name).tobytes()
    # the caches hold: checking and enumerating the result evaluate no clause
    calls = len(batches)
    assert is_satisfiable(formula) and satisfying_assignments(formula).shape[0] > 0
    assert len(batches) == calls


def test_build_instance_matches_the_clause_loop_on_the_sat_preset():
    base = presets()["sat"]
    for seed in (1, 7, 99):
        cfg = replace(base, seed=seed)
        for index in range(100):
            expected = random_formula_by_draw(cfg.sat_vars, cfg.sat_clauses,
                                              instance_rng(seed, index))
            assert render_dimacs(build_instance(cfg, index).data) == render_dimacs(expected)
