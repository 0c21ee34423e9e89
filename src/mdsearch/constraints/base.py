"""Violation evaluators, incremental trackers, and aggregation reports.

A constraint scores a batch of candidates, one per row, with
:meth:`Constraint.violations`; for refinement, its tracker caches one
candidate and scores every single edit at once with :meth:`ViolationTracker.peek_block`.

A constraint states its ``alphabet`` (tokens per position) and candidate
``length`` once, as attributes; ``None``, as on a black box, leaves that
bound open. This module checks every input against them, by the rules of
:mod:`mdsearch.errors`: each batch of candidates, each tracked candidate,
each edit block and each committed edit; it also checks the violations
each batch returns. Then it calls the unchecked hooks a built-in
constraint defines: ``_violations`` on the constraint, ``_rebuild`` and
``_peek_block`` on its tracker. A black box may define only ``violation``
instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, check_count, check_integers


def token_rows(values, alphabet: int | None, length: int | None = None) -> np.ndarray:
    """``values`` as an (M, L) int64 array of tokens in ``range(alphabet)``.

    Raises :class:`ContractError` on another shape or row length and on other
    tokens; a bound of ``None`` is not checked.
    """
    values = np.asarray(values)
    if values.ndim != 2 or (length is not None and values.shape[1] != length):
        want = "L" if length is None else length
        raise ContractError(f"expected (M, {want}) candidates, got shape {values.shape}")
    return check_integers(values, "tokens", alphabet)


class ViolationTracker:
    """Tracks one constraint's violation under single-token edits.

    The tracker owns a private copy of the candidate; callers must mirror
    every ``commit`` on their own copy to stay in sync. Subclasses define
    :meth:`_rebuild` and :meth:`_peek_block` only, and see checked input.
    """

    def __init__(self, constraint: "Constraint", values: np.ndarray):
        self.constraint = constraint
        row = token_rows(np.asarray(values)[None], constraint.alphabet, constraint.length)
        self.values = row[0].copy()
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
        alphabet = self.constraint.alphabet
        if alphabet is not None and num_tokens != alphabet:
            raise ContractError(f"{num_tokens} tokens for an alphabet of {alphabet}")
        return self._peek_block(check_integers(positions, "positions", len(self.values)),
                                num_tokens)

    def _peek_block(self, positions: np.ndarray, num_tokens: int) -> np.ndarray:
        """:meth:`peek_block` on checked positions."""
        raise NotImplementedError

    def commit(self, pos: int, token: int) -> None:
        """Apply the edit to the tracked candidate.

        The edit is rebuilt on a copy, so a rejected one (a position or token
        that is not an integer in range) raises :class:`ContractError` and
        leaves the tracker unchanged.
        """
        check_count(pos, "position", 0, len(self.values), ContractError)
        check_count(token, "token", 0, self.constraint.alphabet, ContractError)
        values = self.values.copy()
        values[pos] = token
        self._value = self._rebuild(values)
        self.values = values


class FullRecomputeTracker(ViolationTracker):
    """Fallback tracker for evaluators without an incremental variant."""

    def _rebuild(self, values):
        return float(self.constraint.violations(values[None])[0])

    def _peek_block(self, positions, num_tokens):
        """One ``violations`` call over every single edit of the candidate."""
        edits = np.tile(self.values, (positions.size * num_tokens, 1))
        edits[np.arange(len(edits)), np.repeat(positions, num_tokens)] = np.tile(
            np.arange(num_tokens), positions.size)
        return self.constraint.violations(edits).reshape(positions.size, num_tokens)


class Constraint:
    """A black-box, non-negative violation over fully specified candidates.

    Subclasses define :meth:`_violations` (the built-in constraints do) or
    only :meth:`violation`; each form is derived from the other.
    """

    name = "constraint"
    alphabet: int | None = None
    length: int | None = None

    def violation(self, values: np.ndarray) -> float:
        """Violation of one candidate: :meth:`violations` on a batch of one."""
        if type(self)._violations is Constraint._violations:
            raise NotImplementedError("define violation or _violations")
        return float(self.violations(np.asarray(values)[None, :])[0])

    def violations(self, values: np.ndarray) -> np.ndarray:
        """Violations of every row of ``values`` (M, L) as an (M,) float array.

        Both sides are checked: the rows by :func:`token_rows`, and the output
        (:class:`ContractError` unless of shape (M,) and ``>= 0``, which NaN
        is not).
        """
        values = token_rows(values, self.alphabet, self.length)
        nu = np.asarray(self._violations(values), dtype=np.float64)
        if nu.shape != (len(values),) or not nu.min(initial=0.0) >= 0:  # NaN fails too
            raise ContractError(f"{self.name}: violations must be {len(values)} non-negative "
                                f"numbers (NaN is not), got shape {nu.shape}")
        return nu

    def _violations(self, values: np.ndarray) -> np.ndarray:
        """:meth:`violations` of checked rows; by default one ``violation`` per row."""
        return np.array([float(self.violation(row)) for row in values], dtype=np.float64)

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
