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
                     check_integers)
from .vocab import Vocab

ROW_TOL = 1e-9


def check_rows(rows: np.ndarray, values: np.ndarray, vocab: Vocab) -> np.ndarray:
    """Validate denoiser output against its contract; returns the array.

    Checks shape, non-negativity and row normalization within ``ROW_TOL``
    (both tests fail on NaN and infinite entries), and one-hot consistency
    with the observed tokens.
    """
    rows = np.asarray(rows, dtype=np.float64)
    values = np.asarray(values)
    if rows.shape != (len(values), vocab.size):
        raise DenoiserContractError(
            f"rows have shape {rows.shape}, expected ({len(values)}, {vocab.size})")
    if not (rows >= -ROW_TOL).all():
        raise DenoiserContractError("rows contain negative or NaN entries")
    if not (np.abs(rows.sum(axis=1) - 1.0) <= ROW_TOL).all():
        raise DenoiserContractError("rows are not normalized")
    observed = np.flatnonzero(values != vocab.mask_id)
    if observed.size and (rows[observed, values[observed]] < 1.0 - ROW_TOL).any():
        raise DenoiserContractError("rows at unmasked positions must be one-hot")
    return rows


def _uniform_rows(values: np.ndarray, vocab: Vocab) -> np.ndarray:
    rows = np.full((len(values), vocab.size), 1.0 / vocab.size)
    return _clamp_observed(rows, values, vocab)


def _clamp_observed(rows: np.ndarray, values: np.ndarray, vocab: Vocab) -> np.ndarray:
    observed = np.flatnonzero(np.asarray(values) != vocab.mask_id)
    try:
        rows[observed] = 0.0
        rows[observed, np.asarray(values)[observed]] = 1.0
    except IndexError as exc:  # no range reduction: a negative token wraps
        raise ContractError(f"observed tokens: {exc}") from None
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
    """Finite weighted support of fully specified sequences.

    Stands in for the unknown data distribution at desk scale. Arrays are
    made read-only so instances can be shared across sampler threads.
    """

    def __init__(self, support: np.ndarray, weights: np.ndarray | None = None):
        support = check_integers(support, "support", error=ConfigError).copy()
        if support.ndim != 2 or support.shape[0] == 0:
            raise ConfigError("support must be a non-empty (S, L) array")
        if weights is None:
            weights = np.full(support.shape[0], 1.0 / support.shape[0])
        else:
            weights = np.array(weights, dtype=np.float64)
            if weights.shape != (support.shape[0],):
                raise ConfigError("weights must align with the support")
            with np.errstate(over="ignore", invalid="ignore"):  # inf, -inf or overflow
                total = weights.sum()  # a non-finite sum would normalise to NaN or zeros
            if not (np.isfinite(total) and (weights > 0).all()):
                raise ConfigError("weights must be positive with a finite sum")
            weights = weights / total
        support.setflags(write=False)
        weights.setflags(write=False)
        self.support = support
        self.weights = weights
        self._bin_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def length(self) -> int:
        return self.support.shape[1]

    def bin_tables(self, num_tokens: int) -> tuple[np.ndarray, np.ndarray]:
        """The (S, L) posterior bin table and the matching (S, L) weights, read-only.

        Entry ``[s, i]`` of the bin table is ``support[s, i] + i * num_tokens``,
        the flat ``(L, num_tokens)`` cell that support row ``s`` adds its
        weight to at position ``i``; the weights repeat ``weights[s]`` along
        the row. Built on first use per alphabet size and kept: 16 bytes
        per support cell.
        """
        tables = self._bin_tables.get(num_tokens)
        if tables is None:
            bins = self.support + np.arange(self.length) * num_tokens
            spread = np.repeat(self.weights, self.length).reshape(self.support.shape)
            bins.setflags(write=False)
            spread.setflags(write=False)
            tables = self._bin_tables[num_tokens] = (bins, spread)
        return tables


def exact_posterior(dist: DataDistribution, values: np.ndarray,
                    vocab: Vocab) -> np.ndarray:
    """Exact per-position marginals conditioned on the observed tokens.

    Row ``i`` is the marginal of the support at position ``i`` restricted to
    elements agreeing with every unmasked position of ``values``. When no
    support element is consistent (search edits can leave the support), the
    masked rows fall back to uniform so sampling can proceed. The support
    must lie inside the alphabet, as :class:`ExactPosteriorDenoiser`
    checks once when it is built.

    The consistent rows of :meth:`DataDistribution.bin_tables` feed one
    ``bincount``, which sums each cell in support-row order.
    """
    values = check_integers(values, "values")
    if values.shape != (dist.length,):
        raise ContractError(f"values of shape {values.shape} for support length {dist.length}")
    observed = np.flatnonzero(values != vocab.mask_id)
    consistent = (dist.support[:, observed] == values[observed]).all(axis=1)
    if not consistent.any():
        return _uniform_rows(values, vocab)
    bins, spread = dist.bin_tables(vocab.size)
    rows = np.bincount(bins.compress(consistent, axis=0).ravel(),
                       spread.compress(consistent, axis=0).ravel(),
                       dist.length * vocab.size)
    rows = rows.reshape(dist.length, vocab.size)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows  # observed rows are one-hot: every consistent row agrees there


class ExactPosteriorDenoiser(Denoiser):
    """Denoiser backed by exact enumeration over a finite support."""

    def __init__(self, dist: DataDistribution, vocab: Vocab):
        super().__init__(vocab)
        check_integers(dist.support, "support", vocab.size, ConfigError)
        dist.bin_tables(vocab.size)  # built here, at set-up, not while sampling
        self.dist = dist

    def denoise(self, values, t):
        return exact_posterior(self.dist, values, self.vocab)


class CorruptedDenoiser(Denoiser):
    """Mixture of a base denoiser with uniform noise at masked positions.

    Simulates an imperfect model so that search has violations to repair;
    observed positions are re-clamped to one-hot after mixing.
    """

    def __init__(self, base: Denoiser, epsilon: float):
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigError(f"mixing weight {epsilon} outside [0, 1]")
        super().__init__(base.vocab)
        self.base = base
        self.epsilon = epsilon

    def denoise(self, values, t):
        rows = np.asarray(self.base.denoise(values, t), dtype=np.float64)
        rows = (1.0 - self.epsilon) * rows + self.epsilon / self.vocab.size
        return _clamp_observed(rows, values, self.vocab)


def corrupt(base: Denoiser, epsilon: float) -> Denoiser:
    """Blend ``base`` with uniform noise: ``(1-eps) * base + eps * uniform``."""
    return CorruptedDenoiser(base, epsilon)


class TableDenoiser(Denoiser):
    """Denoiser whose rows are looked up from a text table.

    Keys are the rendered query sequence (``?`` marks masks); unlisted keys
    or positions fall back to uniform. Observed positions are clamped.
    """

    def __init__(self, vocab: Vocab, table: dict[str, dict[int, np.ndarray]]):
        super().__init__(vocab)
        self.table = table

    def denoise(self, values, t):
        rows = np.full((len(values), self.vocab.size), 1.0 / self.vocab.size)
        for pos, row in self.table.get(self.vocab.render(values), {}).items():
            rows[pos] = row
        return _clamp_observed(rows, values, self.vocab)


def load_table(path, vocab: Vocab) -> TableDenoiser:
    """Parse a denoiser table file.

    One record per line: ``pattern<TAB>pos<TAB>p_0,p_1,...`` where the
    pattern uses vocabulary symbols with ``?`` for masks. ``#`` starts a
    comment. Rows must be stochastic; duplicate keys are rejected.
    """
    if any(len(s) != 1 for s in vocab.symbols):
        raise ConfigError("table patterns require single-character symbols")
    table: dict[str, dict[int, np.ndarray]] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
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
            if np.any(row < 0) or abs(row.sum() - 1.0) > ROW_TOL:
                raise ParseError("row is not a probability distribution", line_no)
            if pos in table.get(pattern, {}):
                raise ParseError(f"duplicate entry for {pattern!r} position {pos}", line_no)
            table.setdefault(pattern, {})[pos] = row
    return TableDenoiser(vocab, table)
