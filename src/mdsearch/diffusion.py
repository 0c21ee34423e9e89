"""Absorbing noise schedule and its draws.

The forward process independently replaces tokens with the mask id; a token
survives unmasked through step ``t`` with probability ``alpha_t``. Reverse
steps unmask: a masked position either keeps its mask (weight ``stay_prob``)
or commits a clean token (weight ``commit_prob``), with the two weights
summing to one at every step. The sampler draws each position's unmask step
once from these weights (:func:`first_hitting_steps`) and each committed
token from its row (:func:`sample_rows`); the reverse step kernels that
commit live in :mod:`mdsearch.search`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ContractError, check_count, check_reals


@dataclass(frozen=True)
class NoiseSchedule:
    """Survival probabilities ``alphas[0..T]`` with fixed endpoints 1 and 0."""

    alphas: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.alphas, tuple):
            raise ConfigError(f"survival probabilities {self.alphas!r} must be a tuple")
        a = check_reals(self.alphas, "survival probabilities", 0, 1)
        if a.ndim != 1 or len(a) < 2:
            raise ConfigError("schedule needs at least one step")
        if a[0] != 1.0 or a[-1] != 0.0:
            raise ConfigError("schedule must start at 1 and end at 0")
        if not (np.diff(a) < 0).all():
            raise ConfigError("schedule must be strictly decreasing")

    @property
    def steps(self) -> int:
        return len(self.alphas) - 1

    def alpha(self, t: int) -> float:
        return self.alphas[check_count(t, "step", 0, self.steps + 1, ContractError)]


def linear_schedule(steps: int) -> NoiseSchedule:
    """Schedule with survival falling linearly from 1 to 0 over ``steps``."""
    check_count(steps, "step count", 1)
    return NoiseSchedule(tuple(1.0 - t / steps for t in range(steps + 1)))


class ReverseCoeffs(NamedTuple):
    """Mixture weights of a reverse step at a masked position."""

    stay_prob: float
    commit_prob: float


def reverse_coeffs(t: int, schedule: NoiseSchedule) -> ReverseCoeffs:
    """Weights for staying masked vs committing a token when moving t -> t-1.

    ``stay_prob = (1 - alpha_{t-1}) / (1 - alpha_t)`` and
    ``commit_prob = (alpha_{t-1} - alpha_t) / (1 - alpha_t)``; they sum to
    one, and the final step (t=1) always commits because ``alpha_0 = 1``.
    """
    check_count(t, "reverse step", 1, schedule.steps + 1, ContractError)
    a_prev = schedule.alpha(t - 1)
    a_t = schedule.alpha(t)
    denom = 1.0 - a_t
    return ReverseCoeffs((1.0 - a_prev) / denom, (a_prev - a_t) / denom)


def sample_rows(rows: np.ndarray, rng: np.random.Generator,
                count: int | None = None) -> np.ndarray:
    """Categorical draws per row via inverse CDF, one uniform per draw.

    Returns one draw per row, or with ``count`` an array of shape
    ``(count, len(rows))`` holding ``count`` independent draws per row, as
    int64. A draw is the number of a row's first ``|V| - 1`` cumulative sums
    at or below its uniform times the row total. A single draw per row reads
    each row's CDF in place; ``count`` draws read the transposed CDF, built
    by one ``np.add.accumulate`` down a transposed copy of the rows (the same
    sequential sums, bit for bit), so that every comparison runs over
    contiguous memory. For rows
    without negative entries (every built-in denoiser's) this is the
    smallest token whose cumulative sum exceeds the uniform, capped at the
    last token; a row with entries down to ``-ROW_TOL``, which
    :func:`~mdsearch.denoise.probability_rows` admits, could give another token.

    With ``count``, the hits are counted in the narrowest unsigned type
    that holds ``|V| - 1`` (``np.min_scalar_type``): one byte up to 256
    tokens, widening past that, so no count can wrap. A single draw per row
    counts in the default integer, which is faster for one row of hits.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if count is None:
        cdf = rows.cumsum(axis=1)
        u = rng.random(rows.shape[0]) * cdf[:, -1]
        return np.add.reduce(cdf[:, :-1] <= u[:, None], axis=1)
    cdf_t = np.add.accumulate(rows.T.copy(), axis=0)
    u = rng.random((count, rows.shape[0])) * cdf_t[-1]
    hits = np.min_scalar_type(rows.shape[1] - 1)
    return np.add.reduce(cdf_t[:-1, None, :] <= u, axis=0, dtype=hits).astype(np.int64)


def first_hitting_steps(schedule: NoiseSchedule, count: int,
                        rng: np.random.Generator) -> np.ndarray:
    """The step at which each of ``count`` masked positions unmasks.

    Under the plain reverse chain the steps are independent with
    ``P(t) = alpha_{t-1} - alpha_t``; one uniform per position is inverted
    through the schedule, so ``u`` in ``[alpha_t, alpha_{t-1})`` gives ``t``.
    """
    check_count(count, "position count", 0, error=ContractError)
    rising = np.asarray(schedule.alphas[::-1])
    return schedule.steps + 1 - rising.searchsorted(rng.random(count), side="right")

