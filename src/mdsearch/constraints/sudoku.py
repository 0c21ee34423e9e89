"""Generalized Sudoku: duplicate counting, solver, generator, and line io.

Boards use digits ``1 .. b*b`` with 0 for blanks; candidate sequences use
token ids ``digit - 1`` flattened row-major. A board of box size ``b`` has
``3 * b * b`` units (rows, columns, boxes).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import ConfigError, GenerationError, ParseError, check_count, check_integers
from ..vocab import Vocab
from .base import Constraint, ViolationTracker

SOLUTION_CAP = 10_000
# Cells per :func:`random_solution` attempt, and attempts: box 3 took at most
# 821 cells over 62,000 generator streams, box 4 takes more than 20,000 on about
# 15% of streams, and box 5 would run for hours.
FILL_NODE_CAP = 20_000
FILL_ATTEMPTS = 10

_DIGIT_CHARS = "123456789ABCDEFGHIJKLMNOPQRSTUVW"


def digit_vocab(box: int) -> Vocab:
    side = box * box
    if side > len(_DIGIT_CHARS):
        raise ConfigError(f"box size {box} too large to render")
    return Vocab(tuple(_DIGIT_CHARS[:side]))


class SudokuBoard:
    """A puzzle: box size plus a grid with 0 marking blanks.

    Non-blank cells are the givens; they are frozen during sampling.
    """

    def __init__(self, box: int, grid: np.ndarray):
        side = check_count(box, "box size", 2) ** 2
        # cells are 0 (blank) or 1..side
        grid = check_integers(grid, "cells", side + 1, ConfigError).copy()
        if grid.shape != (side, side):
            raise ConfigError(f"grid must be {side}x{side}, got {grid.shape}")
        grid.setflags(write=False)
        self.box = box
        self.grid = grid

    @property
    def side(self) -> int:
        return self.box * self.box

    def given_positions(self) -> np.ndarray:
        """Flat indices of the givens, ascending."""
        return np.flatnonzero(self.grid.ravel() != 0)

    def tokens(self) -> np.ndarray:
        """Flat token array; blanks become -1."""
        return self.grid.ravel() - 1

    def __eq__(self, other):
        return (isinstance(other, SudokuBoard) and self.box == other.box
                and np.array_equal(self.grid, other.grid))

    def __repr__(self):
        return f"SudokuBoard(box={self.box}, givens={len(self.given_positions())})"


def unit_indices(box: int) -> np.ndarray:
    """Flat cell indices of every row, column, and box unit."""
    side = box * box
    cells = np.arange(side * side).reshape(side, side)
    rows = [cells[r] for r in range(side)]
    cols = [cells[:, c] for c in range(side)]
    boxes = [cells[r:r + box, c:c + box].ravel()
             for r in range(0, side, box) for c in range(0, side, box)]
    return np.array(rows + cols + boxes)


@lru_cache(maxsize=16)
def unit_tables(box: int) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int, int], ...]]:
    """The unit tables of one box size, built once and shared read-only.

    Returns ``units``, the (units, side) :func:`unit_indices`; ``cell_units``,
    the (3, cells) row, column and box unit of each cell; and the same unit
    ids as one ``(row, column, box)`` tuple of plain ints per cell, which the
    backtracking loops of :func:`random_solution` and :func:`completions` read.
    """
    side = box * box
    units = unit_indices(box)
    ids = np.arange(len(units))[:, None]
    cell_units = np.empty((3, side * side), dtype=np.int64)
    cell_units[ids // side, units] = ids
    units.setflags(write=False)
    cell_units.setflags(write=False)
    return units, cell_units, tuple(zip(*cell_units.tolist()))


@lru_cache(maxsize=16)
def _bin_offsets(box: int, rows: int) -> np.ndarray:
    """Read-only ``row * slots + unit * side`` for every unit slot of ``rows``
    candidates, in :func:`unit_indices` order (slots = units * side)."""
    side = box * box
    units = 3 * side
    out = (np.arange(rows)[:, None] * (units * side)
           + np.repeat(np.arange(units) * side, side))
    out.setflags(write=False)
    return out


class UnitDuplicates(Constraint):
    """Total duplicate count over all units: sum of max(0, count - 1)."""

    name = "units"

    def __init__(self, box: int):
        self.box = check_count(box, "box size", 2)
        self.side = box * box
        self.alphabet, self.length = self.side, self.side * self.side
        # cell_units (3, cells) gives the three units an edit touches
        self.units, self.cell_units, _ = unit_tables(box)
        self._unit_cells = self.units.ravel()

    def _unit_histograms(self, values):
        """Digit counts (M, units, side) of every unit of every row of ``values``
        (M, cells), by one ``bincount`` over ``row * slots + unit * side + token``."""
        rows, slots = len(values), self._unit_cells.size
        flat = values.take(self._unit_cells, axis=1)
        flat += _bin_offsets(self.box, rows)
        hist = np.bincount(flat.ravel(), minlength=rows * slots)
        return hist.reshape(rows, len(self.units), self.side)

    def _violations(self, values):
        # sum(max(0, count - 1)) over the units, read off as the unit slots
        # minus the digits present
        hist = self._unit_histograms(values)
        return np.subtract(self._unit_cells.size, np.count_nonzero(hist, axis=(1, 2)),
                           dtype=np.float64)

    def tracker(self, values):
        return UnitTracker(self, values)


class UnitTracker(ViolationTracker):
    """Per-unit digit histograms; an edit touches exactly three units."""

    def _rebuild(self, values):
        self.hist = self.constraint._unit_histograms(values[None])[0]
        return int(self.hist.size - np.count_nonzero(self.hist))

    def _peek_block(self, positions, num_tokens):
        """Leaving ``old`` and entering ``token`` over each cell's three units, by ``take``."""
        units = self.constraint.cell_units.take(positions, axis=1)
        old = self.values[positions]
        enter = (self.hist >= 1).view(np.int8).take(units, axis=0)
        leave = (self.hist >= 2).view(np.int8).take(units * num_tokens + old)
        delta = enter[0] + enter[1] + enter[2] - (leave[0] + leave[1] + leave[2])[:, None]
        out = np.add(delta, self._value, dtype=np.float64)
        out[np.arange(positions.size), old] = self._value
        return out


def completions(board: SudokuBoard, limit: int = SOLUTION_CAP) -> list[np.ndarray]:
    """All full solutions consistent with the givens, up to ``limit``.

    Deterministic backtracking with a most-constrained-cell heuristic. The
    board and the digits used in each unit are held as plain Python ints (a
    token list and one bitmask per unit). Blanks are scanned in ascending
    order: the first with no option ends the branch, the first with one is
    taken at once, and otherwise the first with the fewest options. Its
    tokens are tried in ascending order, so solutions come out in a fixed
    order, each as a flat int64 token array, and ``limit`` keeps a prefix of
    that order.
    """
    check_count(limit, "solution limit")
    side = board.side
    cell_units = unit_tables(board.box)[2]
    tokens = board.tokens().tolist()
    unit_used = [0] * (3 * side)
    for pos, tok in enumerate(tokens):
        if tok >= 0:
            for ui in cell_units[pos]:
                unit_used[ui] |= 1 << tok
    full = (1 << side) - 1
    blanks = [pos for pos, tok in enumerate(tokens) if tok < 0]
    out: list[np.ndarray] = []

    def recurse():
        if len(out) >= limit:
            return
        best_pos, best_opts, best_count = -1, 0, side + 1
        for pos in blanks:
            if tokens[pos] >= 0:
                continue
            r, c, b = cell_units[pos]
            opts = full & ~(unit_used[r] | unit_used[c] | unit_used[b])
            count = opts.bit_count()
            if count == 0:
                return
            if count < best_count:
                best_pos, best_opts, best_count = pos, opts, count
                if count == 1:
                    break
        if best_pos < 0:
            out.append(np.array(tokens, dtype=np.int64))
            return
        r, c, b = cell_units[best_pos]
        for tok in range(side):
            bit = 1 << tok
            if not best_opts & bit:
                continue
            tokens[best_pos] = tok
            unit_used[r] |= bit
            unit_used[c] |= bit
            unit_used[b] |= bit
            recurse()
            tokens[best_pos] = -1
            unit_used[r] &= ~bit
            unit_used[c] &= ~bit
            unit_used[b] &= ~bit
            if len(out) >= limit:
                return

    recurse()
    return out


def random_solution(box: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform-ish random complete grid (digits), by randomized backtracking.

    Cells are filled in row-major order. Each takes the tokens its three
    units leave free, as a list in ascending order shuffled by
    ``rng.shuffle``, and tries them in that order. The tokens and the digits
    used in each unit are held as plain Python ints (a token list and one
    bitmask per unit). After ``FILL_NODE_CAP`` cells it starts again from an
    empty grid, and after ``FILL_ATTEMPTS`` starts it raises
    :class:`GenerationError`. Returns an int64 (side, side) digit grid.
    """
    side = check_count(box, "box size", 2) ** 2
    cells = side * side
    cell_units = unit_tables(box)[2]
    tokens = [-1] * cells
    unit_used = [0] * (3 * side)  # fill restores it whenever it returns False

    def fill(index):
        nonlocal budget
        if index == cells:
            return True
        if not budget:  # every open branch unwinds
            return False
        budget -= 1
        r, c, b = cell_units[index]
        used = unit_used[r] | unit_used[c] | unit_used[b]
        options = [tok for tok in range(side) if not used >> tok & 1]
        if not options:
            return False
        rng.shuffle(options)
        for tok in options:
            bit = 1 << tok
            tokens[index] = tok
            unit_used[r] |= bit
            unit_used[c] |= bit
            unit_used[b] |= bit
            if fill(index + 1):
                return True
            unit_used[r] &= ~bit
            unit_used[c] &= ~bit
            unit_used[b] &= ~bit
        return False

    for _ in range(FILL_ATTEMPTS):
        budget = FILL_NODE_CAP
        if fill(0):  # an empty grid always has a completion, so False is the budget
            return np.array(tokens, dtype=np.int64).reshape(side, side) + 1
    raise GenerationError(f"no {side}x{side} grid in {FILL_ATTEMPTS} x {FILL_NODE_CAP} cells")


def random_puzzle(box: int, blanks: int, rng: np.random.Generator) -> SudokuBoard:
    """Blank ``blanks`` random cells of a random full grid.

    The seed solution guarantees at least one completion; uniqueness is not
    enforced.
    """
    side = check_count(box, "box size", 2) ** 2
    check_count(blanks, "blank count", 0, side * side)
    grid = random_solution(box, rng).ravel()
    holes = rng.choice(side * side, size=blanks, replace=False)
    grid[holes] = 0
    return SudokuBoard(box, grid.reshape(side, side))


def parse_sudoku_line(line: str) -> SudokuBoard:
    """Board from one line of ``b**4`` characters; ``.`` or ``0`` is blank."""
    line = line.strip()
    box = round(len(line) ** 0.25)
    if box < 2 or box ** 4 != len(line):
        raise ParseError(f"line length {len(line)} is not a 4th power >= 16")
    vocab = digit_vocab(box)
    cells = []
    for ch in line:
        if ch in ".0":
            cells.append(0)
        else:
            try:
                cells.append(vocab.index(ch) + 1)
            except KeyError:
                raise ParseError(f"bad cell character {ch!r}") from None
    side = box * box
    return SudokuBoard(box, np.array(cells).reshape(side, side))


def render_sudoku_line(board: SudokuBoard) -> str:
    vocab = digit_vocab(board.box)
    return "".join("." if v == 0 else vocab.symbols[v - 1]
                   for v in board.grid.ravel())


def read_puzzles(path) -> list[SudokuBoard]:
    boards = []
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                boards.append(parse_sudoku_line(line))
            except ParseError as exc:
                raise ParseError(str(exc), line_no) from None
    return boards
