"""Task definitions binding alphabets, conditioning data, and evaluators.

Conditioning (a CNF formula, Sudoku givens) is held as side data plus an
editable region rather than as literal prefix tokens: frozen positions carry
the givens and are never masked or edited, which gives the same constrained
generation semantics without widening the sampled sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .constraints import peptide, sat, sudoku
from .constraints.base import Constraint
from .denoise import (
    CorruptedDenoiser,
    DataDistribution,
    Denoiser,
    ExactPosteriorDenoiser,
    UniformDenoiser,
    load_table,
)
from .errors import ConfigError, check_count
from .vocab import EditableRegion, Vocab


@dataclass(eq=False)
class Instance:
    """One generation problem: alphabet, frozen conditioning, evaluators."""

    name: str
    vocab: Vocab
    region: EditableRegion
    constraints: tuple[Constraint, ...]
    frozen_values: np.ndarray | None = None
    data: Any = None
    renderer: Callable[[np.ndarray], str] | None = field(default=None, repr=False)

    @property
    def length(self) -> int:
        return self.region.length

    def render(self, values: np.ndarray) -> str:
        if self.renderer is not None:
            return self.renderer(values)
        return self.vocab.render(values)


def sat_instance(formula: sat.CnfFormula, name: str = "sat") -> Instance:
    """Assignment bits for a CNF formula; the formula itself is side data."""
    vocab = sat.assignment_vocab()
    return Instance(
        name=name,
        vocab=vocab,
        region=EditableRegion.all_editable(formula.num_vars),
        constraints=(sat.ClauseViolations(formula),),
        data=formula,
    )


def sudoku_instance(board: sudoku.SudokuBoard, name: str = "sudoku") -> Instance:
    """Board cells with the givens frozen to their token values."""
    vocab = sudoku.digit_vocab(board.box)
    tokens = board.tokens()
    frozen_positions = board.given_positions()
    frozen_values = np.where(tokens >= 0, tokens, 0)
    region = EditableRegion.with_frozen(board.side ** 2, set(map(int, frozen_positions)))
    return Instance(
        name=name,
        vocab=vocab,
        region=region,
        constraints=(sudoku.UnitDuplicates(board.box),),
        frozen_values=frozen_values,
        data=board,
    )


def peptide_instance(spec: peptide.PeptideSpec | None = None, slots: int = 50,
                     name: str = "peptide") -> Instance:
    """Unconditional peptide slots; evaluators read up to the terminator."""
    spec = spec or peptide.PeptideSpec()
    vocab = peptide.residue_vocab()
    check_count(slots, "slot count", 1)
    return Instance(
        name=name,
        vocab=vocab,
        region=EditableRegion.all_editable(slots),
        constraints=peptide.peptide_constraints(spec, vocab),
        data=spec,
        renderer=lambda values: peptide.peptide_string(values, vocab),
    )


def exact_distribution(instance: Instance) -> DataDistribution:
    """Enumerable stand-in for the task's data distribution.

    SAT enumerates satisfying assignments; Sudoku enumerates completions of
    the givens (capped, uniform over those found). Unconditional tasks have
    no enumerable target.
    """
    if isinstance(instance.data, sat.CnfFormula):
        support = sat.satisfying_assignments(instance.data)
        if support.shape[0] == 0:
            raise ConfigError(f"{instance.name}: formula is unsatisfiable")
        return DataDistribution(support)
    if isinstance(instance.data, sudoku.SudokuBoard):
        solutions = sudoku.completions(instance.data)
        if not solutions:
            raise ConfigError(f"{instance.name}: puzzle has no completion")
        return DataDistribution(np.array(solutions))
    raise ConfigError(f"{instance.name}: no enumerable data distribution")


def build_denoiser(instance: Instance, kind: str, epsilon: float = 0.5) -> Denoiser:
    """Denoiser factory for the kinds accepted on the command line.

    ``exact`` and ``noisy`` need an enumerable task; ``noisy`` mixes the
    exact posterior with uniform noise at weight ``epsilon``;
    ``table:PATH`` loads a lookup table.
    """
    if kind.startswith("table:"):
        return load_table(kind.split(":", 1)[1], instance.vocab)
    if kind == "uniform":
        return UniformDenoiser(instance.vocab)
    if kind in ("exact", "noisy"):
        exact = ExactPosteriorDenoiser(exact_distribution(instance), instance.vocab)
        return exact if kind == "exact" else CorruptedDenoiser(exact, epsilon)
    raise ConfigError(f"unknown denoiser kind {kind!r}")
