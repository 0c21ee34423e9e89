import time

import numpy as np
import pytest

from mdsearch.constraints.sudoku import (
    SOLUTION_CAP,
    SudokuBoard,
    UnitDuplicates,
    UnitTables,
    completions,
    digit_vocab,
    parse_sudoku_line,
    random_puzzle,
    random_solution,
    read_puzzles,
    render_sudoku_line,
    unit_tables,
)
from mdsearch.errors import ConfigError, ContractError, GenerationError, ParseError

from oracles import (
    completions_by_backtracking,
    naive_sudoku_violation,
    random_solution_by_backtracking,
    sudoku_cell_units,
)

VALID_4X4 = np.array([
    [1, 2, 3, 4],
    [3, 4, 1, 2],
    [2, 1, 4, 3],
    [4, 3, 2, 1],
])


def test_unit_structure():
    for box in (2, 3, 4):
        side = box * box
        tables = unit_tables(box)
        assert unit_tables(box) is tables  # built once per box size
        assert UnitTables._fields == ("units", "cell_units", "unit_ids")
        assert tables.units.shape == (3 * side, side)  # 27 units for the classic 9x9
        expected = sudoku_cell_units(box)
        assert np.array_equal(tables.cell_units, expected)
        # each unit lists its cells in ascending order, and each cell is in its three units
        assert (np.diff(tables.units, axis=1) > 0).all()
        for cell in range(side * side):
            assert all(cell in tables.units[unit] for unit in expected[:, cell])
        assert np.array_equal(np.array(tables.unit_ids).T, tables.cell_units)
        assert all(type(i) is int for ids in tables.unit_ids for i in ids)
        for table in (tables.units, tables.cell_units):
            with pytest.raises(ValueError):
                table[0, 0] = -1


def test_violation_examples():
    evaluator = UnitDuplicates(2)
    assert evaluator.violation(VALID_4X4.ravel() - 1) == 0
    grid = VALID_4X4.copy()
    grid[0] = [1, 1, 2, 3]  # duplicate 1 in the first row
    assert evaluator.violation(grid.ravel() - 1) == naive_sudoku_violation(grid)
    with pytest.raises(ContractError):  # a blank is no digit
        evaluator.violation(np.zeros((4, 4), dtype=int).ravel() - 1)
    with pytest.raises(ContractError):
        UnitDuplicates(2).violation(np.full(16, 9))


def test_violation_matches_naive_oracle():
    rng = np.random.default_rng(0)
    evaluator = UnitDuplicates(2)
    for _ in range(500):
        grid = rng.integers(1, 5, size=(4, 4))
        assert evaluator.violation(grid.ravel() - 1) == naive_sudoku_violation(grid)
    evaluator9 = UnitDuplicates(3)
    for _ in range(100):
        grid = rng.integers(1, 10, size=(9, 9))
        assert evaluator9.violation(grid.ravel() - 1) == naive_sudoku_violation(grid)


def test_violations_reject_tokens_outside_the_alphabet():
    evaluator = UnitDuplicates(2)
    good = VALID_4X4.ravel() - 1
    for token in (-1, 4, 99):
        bad = good.copy()
        bad[5] = token
        with pytest.raises(ContractError):
            evaluator.violations(np.stack([good, bad]))
    with pytest.raises(ContractError):
        evaluator.violations(good[None, :15])  # wrong cell count
    with pytest.raises(ContractError):
        evaluator.violations(good)  # a batch is two-dimensional


def test_violation_transpose_invariant():
    rng = np.random.default_rng(1)
    evaluator = UnitDuplicates(2)
    for _ in range(100):
        grid = rng.integers(1, 5, size=(4, 4))
        assert evaluator.violation(grid.ravel() - 1) == evaluator.violation(grid.T.ravel() - 1)


def sudoku_delta(grid, cell, new_digit):
    """Duplicate-count change from rewriting one cell, by ``peek_block``."""
    tracker = UnitDuplicates(2).tracker(grid.ravel() - 1)
    pos = cell[0] * 4 + cell[1]
    return tracker.peek_block([pos], 4)[0, new_digit - 1] - tracker.value()


def test_delta_examples():
    assert sudoku_delta(VALID_4X4, (0, 0), 1) == 0  # rewrite to itself
    assert sudoku_delta(VALID_4X4, (0, 0), 2) > 0   # introduces duplicates
    grid = VALID_4X4.copy()
    delta = sudoku_delta(grid, (0, 1), 1)
    # duplicate 1 lands in row 0 and box 0; column 1 had no 1 there
    assert delta == naive_sudoku_violation(_edited(grid, 0, 1, 1)) - 0


def _edited(grid, r, c, digit):
    out = grid.copy()
    out[r, c] = digit
    return out


def test_tracker_matches_recomputation():
    rng = np.random.default_rng(2)
    evaluator = UnitDuplicates(2)
    for _ in range(20):
        grid = rng.integers(1, 5, size=(4, 4))
        tracker = evaluator.tracker(grid.ravel() - 1)
        work = grid.copy()
        for _ in range(50):
            r, c = int(rng.integers(4)), int(rng.integers(4))
            digit = int(rng.integers(1, 5))
            expected = naive_sudoku_violation(_edited(work, r, c, digit))
            assert tracker.peek_block([r * 4 + c], 4)[0, digit - 1] == expected
            if rng.random() < 0.5:
                tracker.commit(r * 4 + c, digit - 1)
                work[r, c] = digit
                assert tracker.value() == naive_sudoku_violation(work)


def test_board_and_line_roundtrip():
    line = ".1..2..13.1.14.3"
    board = parse_sudoku_line(line)
    assert board.box == 2
    assert render_sudoku_line(board) == line
    assert parse_sudoku_line(render_sudoku_line(board)) == board
    with pytest.raises(ParseError):
        parse_sudoku_line("123")
    with pytest.raises(ParseError):
        parse_sudoku_line("x" * 16)


def test_board_validation():
    with pytest.raises(ConfigError):
        SudokuBoard(2, np.zeros((3, 3), dtype=int))
    with pytest.raises(ConfigError):
        SudokuBoard(2, np.full((4, 4), 9))


def test_read_puzzles(tmp_path):
    path = tmp_path / "puzzles.txt"
    path.write_text("# header\n.1..2..13.1.14.3\n\n1234341221434321\n", encoding="utf-8")
    boards = read_puzzles(path)
    assert len(boards) == 2
    path.write_text(".1..2..13.1.14.3\nbadline\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_puzzles(path)
    assert "line 2" in str(err.value)


def test_read_puzzles_counts_lines_of_a_crlf_file_with_comments(tmp_path):
    # a form feed in a comment is not a line break, as when the file was iterated
    path = tmp_path / "puzzles.txt"
    path.write_bytes(b"# boards\x0cnotes\r\n1234341221434321\r\n\r\n"
                     b"# next\r\n12343412214343x1\r\n")
    with pytest.raises(ParseError, match="bad cell character") as err:
        read_puzzles(path)
    assert err.value.line == 5


def test_completions_and_generator():
    rng = np.random.default_rng(3)
    # blanks=0: the puzzle is its own unique completion and is valid
    full = random_puzzle(2, 0, rng)
    assert UnitDuplicates(2).violation(full.grid.ravel() - 1) == 0
    assert len(completions(full)) == 1

    puzzle = random_puzzle(2, 8, rng)
    sols = completions(puzzle)
    assert sols, "generated puzzle must accept its seed solution"
    evaluator = UnitDuplicates(2)
    givens = puzzle.given_positions()
    tokens = puzzle.tokens()
    for sol in sols:
        assert evaluator.violation(sol) == 0
        assert np.array_equal(sol[givens], tokens[givens])


def test_random_solution_is_valid_9x9():
    grid = random_solution(3, np.random.default_rng(4))
    assert UnitDuplicates(3).violation(grid.ravel() - 1) == 0


def test_completion_cap():
    # an empty 4x4 board has 288 solutions; the cap truncates enumeration
    empty = SudokuBoard(2, np.zeros((4, 4), dtype=int))
    assert len(completions(empty)) == 288
    assert len(completions(empty, limit=10)) == 10


@pytest.mark.parametrize("box", [2, 3])
def test_random_solution_matches_the_backtracking_oracle(box):
    # the same grids, and the same generator state afterwards, so the holes
    # random_puzzle draws next fall in the same cells
    side = box * box
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        grid = random_solution(box, rng)
        expected = random_solution_by_backtracking(box, ref)
        assert grid.dtype == np.int64 and np.array_equal(grid, expected)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(rng.choice(side * side, size=side, replace=False),
                              ref.choice(side * side, size=side, replace=False))


def assert_same_completions(got, expected):
    assert len(got) == len(expected)
    for sol, ref in zip(got, expected):
        assert sol.dtype == np.int64 and np.array_equal(sol, ref)


@pytest.mark.parametrize("box, blanks", [(2, 0), (2, 8), (3, 0), (3, 8), (3, 40)])
def test_completions_match_the_backtracking_oracle_in_order(box, blanks):
    # the exact posterior sums support rows in this order, and a limit keeps
    # a prefix of it
    rng = np.random.default_rng(100 + blanks)
    for _ in range(5):
        board = random_puzzle(box, blanks, rng)
        for limit in (SOLUTION_CAP, 2):
            assert_same_completions(completions(board, limit),
                                    completions_by_backtracking(box, board.grid, limit))


def test_completions_of_the_empty_4x4_match_the_oracle():
    empty = SudokuBoard(2, np.zeros((4, 4), dtype=int))
    expected = completions_by_backtracking(2, empty.grid, SOLUTION_CAP)
    assert len(expected) == 288
    assert_same_completions(completions(empty), expected)
    assert_same_completions(completions(empty, limit=10), expected[:10])


def test_givens_without_a_completion_give_none():
    # the first row leaves its last cell only the 4, which its column holds
    grid = np.zeros((4, 4), dtype=int)
    grid[0, :3] = [1, 2, 3]
    grid[1, 3] = 4
    board = SudokuBoard(2, grid)
    assert completions(board) == []
    assert completions_by_backtracking(2, board.grid, SOLUTION_CAP) == []


@pytest.mark.parametrize("bad", [2.5, 2.0, True, None, "2", -1, 1])
def test_sudoku_sizes_must_be_integers(bad):
    # 2.5 gave a "6.25x6.25" grid message, True a numpy TypeError; digit_vocab
    # gave -1, 1 and True a one-symbol vocabulary
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match="box size"):
        SudokuBoard(bad, VALID_4X4)
    with pytest.raises(ConfigError, match="box size"):
        UnitDuplicates(bad)
    with pytest.raises(ConfigError, match="box size"):
        digit_vocab(bad)
    with pytest.raises(ConfigError, match="box size"):
        random_puzzle(bad, 3, rng)
    if not (type(bad) is int and bad == 1):  # one blank is a valid count
        with pytest.raises(ConfigError, match="blank count"):
            random_puzzle(2, bad, rng)
    assert SudokuBoard(np.int64(2), VALID_4X4) == SudokuBoard(2, VALID_4X4)
    assert random_puzzle(np.int64(2), np.int64(3), np.random.default_rng(1)) == \
        random_puzzle(2, 3, np.random.default_rng(1))


def test_random_solution_gives_up_on_box_5_within_its_budget():
    # row-major backtracking was still running after 20 s at box 5
    started = time.perf_counter()
    with pytest.raises(GenerationError):
        random_solution(5, np.random.default_rng(0))
    with pytest.raises(GenerationError):
        random_puzzle(5, 10, np.random.default_rng(1))
    assert time.perf_counter() - started < 20


@pytest.mark.parametrize("seed", [4, 31, 44])
def test_random_solution_restarts_box_4_streams_past_the_budget(seed):
    # each of these streams tries more than FILL_NODE_CAP cells in its first
    # attempt (seed 44 ran for over 10 s without a budget)
    grid = random_solution(4, np.random.default_rng(seed))
    assert grid.shape == (16, 16)
    assert UnitDuplicates(4).violations(grid.reshape(1, -1) - 1)[0] == 0


def test_generator_blank_count_bounds():
    # every cell may be blank, as SudokuBoard and parse_sudoku_line allow
    board = random_puzzle(2, 16, np.random.default_rng(0))
    assert board.grid.shape == (4, 4) and not board.grid.any()
    with pytest.raises(ConfigError, match="blank count"):
        random_puzzle(2, 17, np.random.default_rng(0))


def test_digit_vocab_hex_rendering():
    vocab = digit_vocab(3)
    assert vocab.symbols[:9] == ("1", "2", "3", "4", "5", "6", "7", "8", "9")
    vocab16 = digit_vocab(4)
    assert vocab16.symbols[9] == "A"
    assert vocab16.size == 16


def test_digit_vocab_refuses_a_box_too_large_to_render():
    # 36 digits at box 6; the digit characters stop at 32
    with pytest.raises(ConfigError, match="too large to render"):
        digit_vocab(6)
