"""Denoiser interface and exact desk-scale implementations.

A denoiser maps a partially masked sequence to an ``(L, |V|)`` row-stochastic
matrix over clean tokens: the mask id receives no probability mass, and rows
at unmasked positions are one-hot on the observed token. All implementations
here ignore the step index ``t``: conditioning on the observed tokens fully
determines the posterior of the absorbing process, so ``t`` is carried only
for interface compatibility with learned models.
"""

from __future__ import annotations

import numpy as np

from .errors import (ConfigError, ContractError, DenoiserContractError, ParseError,
                     check_integers, check_reals, check_sequence, read_text)
from .vocab import Vocab

ROW_TOL = 1e-9


def probability_rows(rows: np.ndarray) -> bool:
    """True when every entry of the 2-D float array ``rows`` lies in ``[0, 1]``
    and every row sums to 1, each within ``ROW_TOL``; NaN and inf fail both
    tests. Entries are bounded first, so the sum cannot overflow. Each test
    bounds one maximum, which NaN propagates to."""
    return bool(np.maximum.reduce(np.abs(rows - 0.5), axis=None, initial=0.0) <= 0.5 + ROW_TOL
                and np.maximum.reduce(np.abs(np.add.reduce(rows, axis=1) - 1.0),
                                      initial=0.0) <= ROW_TOL)


def check_rows(rows: np.ndarray, values: np.ndarray, vocab: Vocab) -> np.ndarray:
    """Validate denoiser output against its contract; returns the array.

    The sequence ``values`` is the caller's: it must pass
    :func:`~mdsearch.errors.check_sequence`, else a plain
    :class:`ContractError`. The rows are the denoiser's:
    :class:`DenoiserContractError` unless of shape ``(len(values), |V|)``,
    :func:`probability_rows` and one-hot on the observed tokens.
    """
    values = check_sequence(values, "observed tokens", vocab.mask_id + 1)
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape != (len(values), vocab.size):
        raise DenoiserContractError(
            f"rows have shape {rows.shape}, expected ({len(values)}, {vocab.size})")
    if not probability_rows(rows):
        raise DenoiserContractError("rows are negative, non-finite or not normalized")
    observed = (values != vocab.mask_id).nonzero()[0]
    if observed.size:
        hot = rows[observed, values[observed]]
        if np.minimum.reduce(hot) < 1.0 - ROW_TOL:
            raise DenoiserContractError("rows at unmasked positions must be one-hot")
    return rows


def _uniform_rows(values: np.ndarray, vocab: Vocab) -> np.ndarray:
    values = check_sequence(values, "observed tokens", vocab.mask_id + 1)
    rows = np.empty((len(values), vocab.size))
    rows.fill(1.0 / vocab.size)
    return _clamp_observed(rows, values, vocab)


def _clamp_observed(rows: np.ndarray, values: np.ndarray, vocab: Vocab) -> np.ndarray:
    """One-hot ``rows`` at the observed positions of ``values``, a sequence
    that :func:`~mdsearch.errors.check_sequence` has passed."""
    observed = (values != vocab.mask_id).nonzero()[0]
    rows[observed] = 0.0
    rows[observed, values[observed]] = 1.0
    return rows


class Denoiser:
    """Interface: deterministic map from (sequence, step) to token rows.

    ``sample`` does not query the denoiser at plain reverse steps where no
    position unmasks; the rows of such a step would go unused.
    """

    def __init__(self, vocab: Vocab):
        self.vocab = vocab

    def denoise(self, values: np.ndarray, t: int) -> np.ndarray:
        raise NotImplementedError


class UniformDenoiser(Denoiser):
    """Uninformed proposals: uniform rows at masked positions."""

    def denoise(self, values, t):
        return _uniform_rows(values, self.vocab)


class DataDistribution:
    """Finite support of fully specified sequences, uniform over its rows.

    Stands in for the unknown data distribution at desk scale. A repeated
    row counts once per copy, so repeating a row weights it. The support is
    made read-only.
    """

    def __init__(self, support: np.ndarray):
        support = check_integers(support, "support", error=ConfigError).copy()
        if support.ndim != 2 or support.shape[0] == 0:
            raise ConfigError("support must be a non-empty (S, L) array")
        support.setflags(write=False)
        self.support = support


class ExactPosteriorDenoiser(Denoiser):
    """Denoiser backed by exact enumeration over a finite support.

    Row ``i`` is the marginal of the support at position ``i`` restricted to
    elements agreeing with every unmasked position of ``values``. When no
    support element is consistent (search edits can leave the support), the
    masked rows fall back to uniform so sampling can proceed.

    One read-only ``(S, L)`` table is built once, here: entry ``[s, i]`` of
    ``bins`` is ``support[s, i] + i * |V|``, the flat ``(L, |V|)`` cell that
    support row ``s`` counts in at position ``i``. Its consistent rows feed
    one ``bincount``, and each count is divided by the number ``n`` of
    consistent rows, which every position's counts sum to.
    """

    def __init__(self, dist: DataDistribution, vocab: Vocab):
        super().__init__(vocab)
        check_integers(dist.support, "support", vocab.size, ConfigError)
        self.dist = dist
        length = dist.support.shape[1]
        self.bins = dist.support + np.arange(length) * vocab.size
        self.bins.setflags(write=False)

    def denoise(self, values, t):
        values = check_integers(values, "values")
        support, vocab = self.dist.support, self.vocab
        if values.shape != support.shape[1:]:
            raise ContractError(f"values of shape {values.shape} for support {support.shape}")
        observed = (values != vocab.mask_id).ravel().nonzero()[0]
        consistent = np.logical_and.reduce(support[:, observed] == values[observed], axis=1)
        n = np.add.reduce(consistent)
        if n == 0:
            return _uniform_rows(values, vocab)
        counts = np.bincount(self.bins.compress(consistent, axis=0).ravel(), None,
                             values.size * vocab.size)
        # observed rows are one-hot: every consistent row agrees there
        return counts.reshape(values.size, vocab.size) / n


class CorruptedDenoiser(Denoiser):
    """Mixture of a base denoiser with uniform noise at masked positions.

    Simulates an imperfect model so that search has violations to repair;
    observed positions are re-clamped to one-hot after mixing.
    """

    def __init__(self, base: Denoiser, epsilon: float):
        epsilon = check_reals(epsilon, "mixing weight", 0, 1)
        if epsilon.ndim:
            raise ConfigError(f"mixing weight must be one number, got shape {epsilon.shape}")
        super().__init__(base.vocab)
        self.base = base
        self.epsilon = float(epsilon)

    def denoise(self, values, t):
        values = check_sequence(values, "observed tokens", self.vocab.mask_id + 1)
        rows = np.asarray(self.base.denoise(values, t), dtype=np.float64)
        if rows.shape != (len(values), self.vocab.size):
            raise DenoiserContractError(f"base rows have shape {rows.shape}")
        rows = (1.0 - self.epsilon) * rows + self.epsilon / self.vocab.size
        return _clamp_observed(rows, values, self.vocab)


class TableDenoiser(Denoiser):
    """Denoiser whose rows are looked up from a text table.

    Keys are the rendered query sequence (``?`` marks masks); unlisted keys
    or positions fall back to uniform. Observed positions are clamped.
    """

    def __init__(self, vocab: Vocab, table: dict[str, dict[int, np.ndarray]]):
        super().__init__(vocab)
        self.table = table

    def denoise(self, values, t):
        values = check_sequence(values, "observed tokens", self.vocab.mask_id + 1)
        rows = np.empty((len(values), self.vocab.size))
        rows.fill(1.0 / self.vocab.size)
        for pos, row in self.table.get(self.vocab.render(values), {}).items():
            rows[pos] = row
        return _clamp_observed(rows, values, self.vocab)


def load_table(path, vocab: Vocab) -> TableDenoiser:
    """Parse a denoiser table file.

    One record per line: ``pattern<TAB>pos<TAB>p_0,p_1,...`` where the
    pattern uses vocabulary symbols with ``?`` for masks. ``#`` starts a
    comment. Rows must pass :func:`probability_rows`; duplicate keys are rejected.
    An unreadable file (missing, a directory, not UTF-8) is a :class:`ConfigError`.
    """
    if any(len(s) != 1 for s in vocab.symbols):
        raise ConfigError("table patterns require single-character symbols")
    table: dict[str, dict[int, np.ndarray]] = {}
    for line_no, raw in enumerate(read_text(path, "table").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError("expected pattern<TAB>pos<TAB>probs", line_no)
        pattern, pos_text, probs_text = parts
        try:
            vocab.parse(pattern)
        except (ContractError, ConfigError) as exc:
            raise ParseError(str(exc), line_no) from None
        try:
            pos = int(pos_text)
        except ValueError:
            raise ParseError(f"bad position {pos_text!r}", line_no) from None
        if pos < 0 or pos >= len(pattern):
            raise ParseError(f"position {pos} outside pattern", line_no)
        try:
            row = np.array([float(x) for x in probs_text.split(",")])
        except ValueError:
            raise ParseError("bad probability value", line_no) from None
        if row.shape != (vocab.size,):
            raise ParseError(
                f"expected {vocab.size} probabilities, got {row.size}", line_no)
        if not probability_rows(row[None]):
            raise ParseError("row is not a probability distribution", line_no)
        if pos in table.get(pattern, {}):
            raise ParseError(f"duplicate entry for {pattern!r} position {pos}", line_no)
        table.setdefault(pattern, {})[pos] = row
    return TableDenoiser(vocab, table)
