"""Violation evaluators, incremental trackers, and aggregation reports.

Evaluation protocol: a constraint scores a batch of candidates, one per row,
with :meth:`Constraint.violations`. Built-in constraints implement only that
batched form and derive the scalar :meth:`Constraint.violation` from it.
A black-box constraint may define only ``violation``; the default
``violations`` then loops over the rows.

Refinement reaches a constraint through its tracker, a cache of the current
candidate validated when the tracker is built and rebuilt on every commit,
which checks only the new position and token. The tracker scores the whole
single-edit neighborhood at once with :meth:`ViolationTracker.peek_block`;
there is no other edit path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError


def token_rows(values, alphabet: int, length: int | None = None) -> np.ndarray:
    """``values`` as an (M, L) integer array with every token in the alphabet.

    Raises :class:`ContractError` on another shape, on a row length other
    than ``length`` (when given), and on tokens outside ``range(alphabet)``.
    """
    values = np.asarray(values)
    if values.ndim != 2 or (length is not None and values.shape[1] != length):
        want = "L" if length is None else length
        raise ContractError(f"expected (M, {want}) candidates, got shape {values.shape}")
    if not np.issubdtype(values.dtype, np.integer):
        raise ContractError(f"candidates must hold integer tokens, got {values.dtype}")
    if values.size and (values.min() < 0 or values.max() >= alphabet):
        raise ContractError(f"token outside the alphabet of size {alphabet}")
    return values


def block_positions(positions, length: int) -> np.ndarray:
    """``positions`` as an int64 array; :class:`ContractError` if out of range."""
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size and (positions.min() < 0 or positions.max() >= length):
        raise ContractError(f"position out of range for length {length}")
    return positions


class ViolationTracker:
    """Tracks one constraint's violation under single-token edits.

    The tracker owns a private copy of the candidate; callers must mirror
    every ``commit`` on their own copy to stay in sync. Subclasses define
    :meth:`_rebuild` and :meth:`peek_block` only.
    """

    # token range (and length) checked when built and per commit, if set
    alphabet: int | None = None
    length: int | None = None

    def __init__(self, constraint: "Constraint", values: np.ndarray):
        self.constraint = constraint
        values = np.asarray(values)
        if not np.issubdtype(values.dtype, np.integer):
            raise ContractError(f"candidates must hold integer tokens, got {values.dtype}")
        self.values = np.array(values, dtype=np.int64)
        if self.alphabet is not None:
            token_rows(self.values[None, :], self.alphabet, self.length)
        self._value = self._rebuild(self.values)

    def _rebuild(self, values: np.ndarray):
        """Recompute the cache from ``values`` and return its violation.

        Without an ``alphabet``, raise :class:`ContractError` on a bad token
        before touching the cache.
        """
        raise NotImplementedError

    def value(self) -> float:
        """Violation of the tracked candidate."""
        return self._value

    def peek_block(self, positions, num_tokens: int) -> np.ndarray:
        """Violations for every (position, token) pair; rows follow ``positions``.

        Entry ``[i, token]`` is the violation of the candidate with
        ``positions[i]`` replaced by ``token``, computed in one vectorized call.
        """
        raise NotImplementedError

    def commit(self, pos: int, token: int) -> None:
        """Apply the edit to the tracked candidate.

        The edit is rebuilt on a copy, so a rejected one (position out of
        range, token outside the alphabet) raises :class:`ContractError` and
        leaves the tracker unchanged.
        """
        if not 0 <= pos < len(self.values):
            raise ContractError(f"position {pos} out of range")
        if self.alphabet is not None and not 0 <= token < self.alphabet:
            raise ContractError(f"token {token} outside the alphabet of size {self.alphabet}")
        values = self.values.copy()
        values[pos] = token
        self._value = self._rebuild(values)
        self.values = values


class FullRecomputeTracker(ViolationTracker):
    """Fallback tracker for evaluators without an incremental variant."""

    def _rebuild(self, values):
        return float(self.constraint.violation(values))

    def peek_block(self, positions, num_tokens):
        """One ``violations`` call over every single edit of the candidate."""
        positions = block_positions(positions, len(self.values))
        edits = np.tile(self.values, (positions.size * num_tokens, 1))
        edits[np.arange(len(edits)), np.repeat(positions, num_tokens)] = np.tile(
            np.arange(num_tokens), positions.size)
        scores = np.asarray(self.constraint.violations(edits), dtype=np.float64)
        return scores.reshape(positions.size, num_tokens)


class Constraint:
    """A black-box, non-negative violation over fully specified candidates.

    Subclasses define :meth:`violations` (the built-in constraints do) or
    only :meth:`violation`; each form is derived from the other.
    """

    name = "constraint"

    def violation(self, values: np.ndarray) -> float:
        """Violation of one candidate: :meth:`violations` on a batch of one."""
        if type(self).violations is Constraint.violations:
            raise NotImplementedError("define violation or violations")
        return float(self.violations(np.asarray(values)[None, :])[0])

    def violations(self, values: np.ndarray) -> np.ndarray:
        """Violations of every row of ``values`` (M, L), as an (M,) array."""
        return np.array([float(self.violation(row)) for row in np.asarray(values)],
                        dtype=np.float64)

    def tracker(self, values: np.ndarray) -> ViolationTracker:
        """Incremental edit tracker; defaults to full recomputation."""
        return FullRecomputeTracker(self, values)


@dataclass(frozen=True)
class ViolationReport:
    """Per-constraint violations with their aggregation weights."""

    values: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.weights):
            raise ContractError("violation vector and weights differ in arity")

    @property
    def total(self) -> float:
        return float(sum(w * v for w, v in zip(self.weights, self.values)))

    @property
    def feasible(self) -> bool:
        return all(v == 0 for v in self.values)
