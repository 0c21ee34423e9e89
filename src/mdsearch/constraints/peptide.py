"""Peptide property evaluators: length window, net charge, hydrophobic ratio.

Peptides live in a fixed number of sequence slots over the 20 standard
residues plus a terminator token; everything at and after the first
terminator is outside the logical peptide and ignored by the evaluators.
Net charge is a residue count model: positive residues contribute +1,
negative residues -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..errors import ConfigError, check_count, check_reals, is_integer
from ..vocab import Vocab
from .base import Constraint

RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
TERMINATOR = "-"
HYDROPHOBIC = frozenset("AVILMFWC")
POSITIVE = frozenset("KRH")
NEGATIVE = frozenset("DE")


def residue_vocab() -> Vocab:
    return Vocab(tuple(RESIDUES) + (TERMINATOR,))


@dataclass(frozen=True)
class PeptideSpec:
    """Feasibility thresholds for antimicrobial-style peptides; the residue
    sets are the module's constants, read as class attributes."""

    min_length: int = 10
    max_length: int = 50
    charge_min: int = 2
    charge_max: int = 9
    hydro_min: float = 0.30
    hydrophobic: ClassVar[frozenset] = HYDROPHOBIC
    positive: ClassVar[frozenset] = POSITIVE
    negative: ClassVar[frozenset] = NEGATIVE

    def __post_init__(self):
        check_count(self.min_length, "min_length")
        check_count(self.max_length, "max_length")
        if not (is_integer(self.charge_min) and is_integer(self.charge_max)):
            raise ConfigError(f"charge bounds must be integers, got "
                              f"{self.charge_min!r} and {self.charge_max!r}")
        if check_reals(self.hydro_min, "hydro_min", 0, 1).ndim:
            raise ConfigError("hydro_min must be one number")
        if self.min_length > self.max_length or self.charge_min > self.charge_max:
            raise ConfigError("length and charge windows need low <= high")


def _membership_weights(vocab: Vocab, residues) -> np.ndarray:
    return np.array([1 if sym in residues else 0 for sym in vocab.symbols],
                    dtype=np.int64)


def _terminator_id(vocab: Vocab) -> int:
    """The terminator's token; :class:`ConfigError` if ``vocab`` has none."""
    if TERMINATOR not in vocab.symbols:
        raise ConfigError(f"peptide vocabulary {vocab.symbols} has no terminator {TERMINATOR!r}")
    return vocab.index(TERMINATOR)


def _lengths(values: np.ndarray, term_id: int) -> np.ndarray:
    """Logical length of each row of (M, L) ``values``: its first terminator
    slot, found once by ``argmax``, or the slot count. A terminator column
    past the last slot stands for "none", and keeps ``argmax`` off an empty
    axis at 0 slots."""
    is_term = np.empty((len(values), values.shape[1] + 1), dtype=bool)
    is_term[:, -1] = True
    np.equal(values, term_id, out=is_term[:, :-1])
    return is_term.argmax(axis=1)


def peptide_string(values: np.ndarray, vocab: Vocab) -> str:
    """Residues before the first terminator, as single-letter codes."""
    values = np.asarray(values)
    return vocab.render(values[:_lengths(values[None], _terminator_id(vocab))[0]])


class _PrefixWindow(Constraint):
    """A hinge on the logical prefix: its length and a weighted token count.

    Subclasses pass one weight per token and define ``_nu(length, count)``
    elementwise, so one body serves batches, rebuilds and edit blocks.
    """

    def __init__(self, spec: PeptideSpec, vocab: Vocab, weights: np.ndarray):
        self.spec = spec
        self.term_id = _terminator_id(vocab)
        self.weights = weights
        self.alphabet = len(weights)

    def _nu(self, length, count) -> np.ndarray:
        raise NotImplementedError

    def _violations(self, values):
        """The hinge of each row's logical length and of the weighted count
        of its tokens before that length."""
        length = _lengths(values, self.term_id)
        inside = np.arange(values.shape[1]) < length[:, None]
        return self._nu(length, np.add.reduce(self.weights[values] * inside, axis=1))

    def _rebuild(self, values):
        """The first and second terminator slots plus a per-token weight
        cumsum, so every edit's new prefix statistics come out in O(1)."""
        terms = (values == self.term_id).ravel().nonzero()[0]
        slots = len(values)
        first = int(terms[0]) if terms.size else slots
        second = int(terms[1]) if terms.size > 1 else slots
        cum = np.concatenate(([0], self.weights[values].cumsum()))
        return (first, second, cum), self._nu(first, cum[first])

    def _peek_block(self, cache, values, value, positions, num_tokens):
        """(logical length, weighted count) of every edit, then the hinge."""
        first, second, cum = cache
        old = values[positions]
        tokens = np.arange(num_tokens)
        new_first = np.empty((len(positions), num_tokens), dtype=np.int_)
        new_first.fill(first)
        new_first[:, self.term_id] = np.minimum(first, positions)
        at_first = positions == first
        new_first[at_first] = np.where(tokens == self.term_id, first, second)
        counts = cum[new_first]
        inside = positions[:, None] < new_first
        counts = counts + inside * (self.weights[tokens][None, :] - self.weights[old][:, None])
        return self._nu(new_first, counts)


def _hinge(x, lo, hi) -> np.ndarray:
    """``max(0, lo - x) + max(0, x - hi)`` as float64: with ``lo <= hi`` at
    most one side is positive, so it is the larger side, floored at 0."""
    return np.maximum(np.maximum(lo - x, x - hi), 0.0)


class LengthWindow(_PrefixWindow):
    """Hinge distance of the logical length to the allowed window."""

    name = "length"

    def __init__(self, spec: PeptideSpec, vocab: Vocab):
        super().__init__(spec, vocab, np.zeros(vocab.size, dtype=np.int64))

    def _violations(self, values):
        """The hinge of the logical length alone: no token counts are read."""
        return self._nu(_lengths(values, self.term_id), None)

    def _nu(self, length, count):
        return _hinge(length, self.spec.min_length, self.spec.max_length)


class ChargeWindow(_PrefixWindow):
    """Hinge distance of the net residue charge to the allowed window."""

    name = "charge"

    def __init__(self, spec: PeptideSpec, vocab: Vocab):
        super().__init__(spec, vocab, _membership_weights(vocab, spec.positive)
                         - _membership_weights(vocab, spec.negative))

    def _nu(self, length, count):
        return _hinge(count, self.spec.charge_min, self.spec.charge_max)


class HydrophobicFraction(_PrefixWindow):
    """Shortfall of the hydrophobic residue fraction below the minimum."""

    name = "hydrophobicity"

    def __init__(self, spec: PeptideSpec, vocab: Vocab):
        super().__init__(spec, vocab, _membership_weights(vocab, spec.hydrophobic))

    def _nu(self, length, count):
        # an empty prefix counts no residue: its fraction 0 / 1 is 0
        return np.maximum(0.0, self.spec.hydro_min - count / np.maximum(length, 1))


def peptide_constraints(spec: PeptideSpec, vocab: Vocab):
    """The three evaluators in report order: length, charge, hydrophobicity."""
    return (LengthWindow(spec, vocab), ChargeWindow(spec, vocab),
            HydrophobicFraction(spec, vocab))
