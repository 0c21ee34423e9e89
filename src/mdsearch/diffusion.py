"""Absorbing noise schedule and the reverse step kernels.

The forward process independently replaces tokens with the mask id; a token
survives unmasked through step ``t`` with probability ``alpha_t``. Reverse
steps unmask: a masked position either keeps its mask (weight ``stay_prob``)
or commits a clean token (weight ``commit_prob``), with the two weights
summing to one at every step. The sampler draws each position's unmask step
once from these weights (:func:`first_hitting_steps`); the kernels only
commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ContractError, check_count, check_integers


@dataclass(frozen=True)
class NoiseSchedule:
    """Survival probabilities ``alphas[0..T]`` with fixed endpoints 1 and 0."""

    alphas: tuple[float, ...]

    def __post_init__(self):
        a = self.alphas
        if len(a) < 2:
            raise ConfigError("schedule needs at least one step")
        if a[0] != 1.0 or a[-1] != 0.0:
            raise ConfigError("schedule must start at 1 and end at 0")
        if any(not (0.0 <= x <= 1.0) for x in a):
            raise ConfigError("survival probabilities must lie in [0, 1]")
        if any(a[i + 1] >= a[i] for i in range(len(a) - 1)):
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
    at or below its uniform times the row total, read from the transposed
    CDF so that every comparison runs over contiguous memory. For rows
    without negative entries (every built-in denoiser's) this is the
    smallest token whose cumulative sum exceeds the uniform, capped at the
    last token; a row with negative entries inside ``ROW_TOL`` could give
    another token.
    """
    rows = np.asarray(rows, dtype=np.float64)
    cdf_t = np.cumsum(rows, axis=1).T.copy()
    if count is None:
        u = rng.random(rows.shape[0]) * cdf_t[-1]
        return (cdf_t[:-1] <= u).sum(axis=0)
    u = rng.random((count, rows.shape[0])) * cdf_t[-1]
    return (cdf_t[:-1, None, :] <= u).sum(axis=0)


def first_hitting_steps(schedule: NoiseSchedule, count: int,
                        rng: np.random.Generator) -> np.ndarray:
    """The step at which each of ``count`` masked positions unmasks.

    Under the plain reverse chain the steps are independent with
    ``P(t) = alpha_{t-1} - alpha_t``; one uniform per position is inverted
    through the schedule, so ``u`` in ``[alpha_t, alpha_{t-1})`` gives ``t``.
    """
    check_count(count, "position count", 0, error=ContractError)
    rising = np.asarray(schedule.alphas[::-1])
    return schedule.steps + 1 - np.searchsorted(rising, rng.random(count), side="right")


def vanilla_reverse_step(x_t: np.ndarray, rows: np.ndarray, committing: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """Plain reverse commit: each position in ``committing`` (from
    :func:`first_hitting_steps`) draws a token from its row; the rest carry
    over. ``rows`` must already satisfy :func:`~mdsearch.denoise.check_rows`.
    """
    out = check_integers(x_t, "x_t").copy()
    try:
        out[committing] = sample_rows(rows[committing], rng)
    except (IndexError, ValueError) as exc:  # no range reduction: a negative position wraps
        raise ContractError(f"reverse step: {exc}") from None
    return out


def guided_reverse_step(refined: np.ndarray, remaining: np.ndarray,
                        mask_id: int) -> np.ndarray:
    """Reverse transition committing toward a search-refined candidate.

    Every position takes the refined candidate's value (search may have
    revised unmasked ones) except ``remaining``, the positions whose unmask
    step from :func:`first_hitting_steps` is still to come, which keep the
    mask. Draws no random numbers.
    """
    out = check_integers(refined, "refined candidate").copy()
    if np.any(out == mask_id):
        raise ContractError("refined candidate must be fully specified")
    try:
        out[remaining] = mask_id
    except IndexError as exc:  # no range reduction: a negative position wraps
        raise ContractError(f"remaining positions: {exc}") from None
    return out
