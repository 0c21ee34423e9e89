"""Violation evaluators, the edit tracker, and the report record.

A constraint scores a batch of candidates, one per row, with
:meth:`Constraint.violations`; for refinement, its tracker caches one
candidate and scores every single edit at once with :meth:`ViolationTracker.peek_block`.

A constraint defines one scoring hook, ``_violations`` on checked (M, L)
rows; ``violations`` and ``violation`` derive from it, and a subclass that
defines either of them is refused. A constraint states its ``alphabet``
(tokens per position) and candidate ``length`` once, as attributes;
``None``, as on a black box, leaves that bound open. This module checks
every input against them, by the rules of :mod:`mdsearch.errors`: each
batch of candidates, each tracked candidate, each edit block and each
committed edit. It also checks the violations every batch returns, by one
rule (:func:`_checked_output`). Then it calls the unchecked hooks:
``_violations``, and ``_rebuild``, ``_peek_block`` and ``_commit`` for the
tracker, which by default recompute through ``violations``. The proposal
pool's draws alone may skip the batch check, where it would pass them;
that decision is :func:`drawn_violations`, and their violations are
checked all the same. Weights and totals belong to :mod:`mdsearch.search`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, check_count, check_integers, check_sequence


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


def _checked_output(constraint: "Constraint", nu, rows: int) -> np.ndarray:
    """``nu`` as a float64 array, unless it is not ``rows`` non-negative
    numbers of shape (rows,) (NaN is not): then :class:`ContractError`
    naming the constraint."""
    nu = np.asarray(nu, dtype=np.float64)
    # NaN fails the bound too
    if nu.shape != (rows,) or not np.minimum.reduce(nu, axis=None, initial=0.0) >= 0:
        raise ContractError(f"{constraint.name}: violations must be {rows} non-negative "
                            f"numbers (NaN is not), got shape {nu.shape}")
    return nu


def drawn_violations(constraint: "Constraint", draws: np.ndarray,
                     num_tokens: int) -> np.ndarray:
    """:meth:`Constraint.violations` of int64 draws over ``num_tokens``
    tokens that :func:`~mdsearch.search.proposal_draws` built, skipping
    :func:`token_rows` where it would pass them; the output check always
    runs."""
    if ((constraint.alphabet is None or constraint.alphabet >= num_tokens)
            and (constraint.length is None or constraint.length == draws.shape[1])):
        return _checked_output(constraint, constraint._violations(draws), len(draws))
    return constraint.violations(draws)


class ViolationTracker:
    """Tracks one constraint's violation under single-token edits.

    The tracker checks every input and holds a private copy of the
    candidate, the constraint's ``_rebuild`` cache of it and its violation;
    callers must mirror every ``commit`` on their own copy to stay in sync.
    """

    def __init__(self, constraint: "Constraint", values: np.ndarray):
        self.constraint = constraint
        row = token_rows(np.asarray(values)[None], constraint.alphabet, constraint.length)
        self.values = row[0].copy()
        self._cache, self._value = constraint._rebuild(self.values)

    def value(self) -> float:
        """Violation of the tracked candidate."""
        return self._value

    def peek_block(self, positions, num_tokens: int) -> np.ndarray:
        """Violations for every (position, token) pair; rows follow ``positions``.

        Entry ``[i, token]`` is the violation of the candidate with
        ``positions[i]`` replaced by ``token``, computed in one vectorized call.
        ``num_tokens`` is a count of at least 1, equal to the constraint's
        ``alphabet`` where it states one; else :class:`ContractError`.
        """
        check_count(num_tokens, "token count", 1, error=ContractError)
        alphabet = self.constraint.alphabet
        if alphabet is not None and num_tokens != alphabet:
            raise ContractError(f"{num_tokens} tokens for an alphabet of {alphabet}")
        positions = check_sequence(positions, "positions", len(self.values))
        return self.constraint._peek_block(self._cache, self.values, self._value,
                                           positions, num_tokens)

    def commit(self, pos: int, token: int) -> None:
        """Apply the edit to the tracked candidate.

        The constraint's ``_commit`` derives the new cache and violation
        without modifying the tracked ones, which are replaced only after it
        returns. So a rejected edit (a position or token that is not an
        integer in range, or one the constraint refuses) raises
        :class:`ContractError` and leaves the tracker unchanged.
        """
        check_count(pos, "position", 0, len(self.values), ContractError)
        check_count(token, "token", 0, self.constraint.alphabet, ContractError)
        cache, value = self.constraint._commit(self._cache, self.values, self._value,
                                               pos, token)
        values = self.values.copy()
        values[pos] = token
        self._cache, self._value, self.values = cache, value, values


class Constraint:
    """A black-box, non-negative violation over fully specified candidates.

    Subclasses define :meth:`_violations`, and may not define
    :meth:`violation` or :meth:`violations`, which derive from it. The
    tracker hooks :meth:`_rebuild`, :meth:`_peek_block` and :meth:`_commit`
    recompute by default.
    """

    name = "constraint"
    alphabet: int | None = None
    length: int | None = None

    def __init_subclass__(cls, **kwargs):
        """Refuse a subclass that defines ``violation`` or ``violations``
        with :class:`ContractError`, so that every scorer checks what it scores."""
        super().__init_subclass__(**kwargs)
        defined = sorted(vars(cls).keys() & {"violation", "violations"})
        if defined:
            raise ContractError(f"{cls.__name__} defines {' and '.join(defined)}; "
                                "a constraint defines only _violations")

    def violation(self, values: np.ndarray) -> float:
        """Violation of one candidate: :meth:`violations` on a batch of one."""
        return float(self.violations(np.asarray(values)[None])[0])

    def violations(self, values: np.ndarray) -> np.ndarray:
        """Violations of every row of ``values`` (M, L) as an (M,) float array:
        :meth:`_violations` with both sides checked, the rows by
        :func:`token_rows` and the output by :func:`_checked_output`
        (:class:`ContractError` unless of shape (M,) and ``>= 0``, which NaN
        is not)."""
        values = token_rows(values, self.alphabet, self.length)
        return _checked_output(self, self._violations(values), len(values))

    def _violations(self, values: np.ndarray) -> np.ndarray:
        """Violations of rows that :func:`token_rows` has passed; the one
        hook every constraint defines."""
        raise NotImplementedError(f"{type(self).__name__} must define _violations")

    def tracker(self, values: np.ndarray) -> ViolationTracker:
        """Incremental edit tracker of ``values``, scored by this constraint's hooks."""
        return ViolationTracker(self, values)

    def _rebuild(self, values: np.ndarray):
        """(cache, violation) of one checked candidate; by default no cache
        and one :meth:`violations` call on a batch of one."""
        return None, float(self.violations(values[None])[0])

    def _peek_block(self, cache, values: np.ndarray, value, positions: np.ndarray,
                    num_tokens: int) -> np.ndarray:
        """:meth:`ViolationTracker.peek_block` of checked positions from the
        candidate, its :meth:`_rebuild` cache and its violation; by default
        one :meth:`violations` call over every single edit, row
        ``i * num_tokens + token`` setting ``positions[i]`` to ``token``."""
        rows = np.arange(positions.size * num_tokens)
        edits = values[None].repeat(rows.size, 0)
        edits[rows, positions.repeat(num_tokens)] = rows % num_tokens
        return self.violations(edits).reshape(positions.size, num_tokens)

    def _commit(self, cache, values: np.ndarray, value, pos: int, token: int):
        """(cache, violation) of the candidate ``values`` with the checked edit
        ``values[pos] = token``, from its :meth:`_rebuild` cache and violation.
        It modifies neither ``cache`` nor ``values``; by default it rebuilds an
        edited copy."""
        edited = values.copy()
        edited[pos] = token
        return self._rebuild(edited)


@dataclass(frozen=True)
class ViolationReport:
    """Per-constraint violations and the weighted total its scorer summed
    (see :mod:`mdsearch.search`)."""

    values: tuple[float, ...]
    total: float

    @property
    def feasible(self) -> bool:
        return all(v == 0 for v in self.values)
