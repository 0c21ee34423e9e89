"""Black-box violation evaluators for the supported tasks."""

from .base import (
    Constraint,
    ViolationReport,
    ViolationTracker,
)
from .peptide import (
    PeptideSpec,
    peptide_constraints,
    residue_vocab,
)
from .sat import (
    ClauseViolations,
    CnfFormula,
    assignment_vocab,
    is_satisfiable,
    load_dimacs,
    parse_dimacs,
    random_formula,
    render_dimacs,
    satisfying_assignments,
)
from .sudoku import (
    SudokuBoard,
    UnitDuplicates,
    completions,
    digit_vocab,
    parse_sudoku_line,
    random_puzzle,
    random_solution,
    read_puzzles,
    render_sudoku_line,
)

__all__ = [
    "Constraint",
    "ViolationReport",
    "ViolationTracker",
    "PeptideSpec",
    "peptide_constraints",
    "residue_vocab",
    "ClauseViolations",
    "CnfFormula",
    "assignment_vocab",
    "is_satisfiable",
    "load_dimacs",
    "parse_dimacs",
    "random_formula",
    "render_dimacs",
    "satisfying_assignments",
    "SudokuBoard",
    "UnitDuplicates",
    "completions",
    "digit_vocab",
    "parse_sudoku_line",
    "random_puzzle",
    "random_solution",
    "read_puzzles",
    "render_sudoku_line",
]
