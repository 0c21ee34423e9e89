import numpy as np
import pytest

from mdsearch.denoise import ROW_TOL, UniformDenoiser, probability_rows
from mdsearch.diffusion import (
    NoiseSchedule,
    first_hitting_steps,
    linear_schedule,
    reverse_coeffs,
    sample_rows,
)
from mdsearch.errors import ConfigError, ContractError
from mdsearch.search import guided_reverse_step, vanilla_reverse_step
from mdsearch.vocab import EditableRegion, Vocab, masked_positions

from oracles import forward_corrupt, sample_rows_by_sum

AB = Vocab(("A", "B"))


def test_linear_schedule_values():
    assert linear_schedule(4).alphas == (1.0, 0.75, 0.5, 0.25, 0.0)
    assert linear_schedule(1).alphas == (1.0, 0.0)
    for steps in (1, 3, 7, 64):
        sched = linear_schedule(steps)
        assert sched.alphas[0] == 1.0 and sched.alphas[-1] == 0.0
        assert sched.steps == steps
    with pytest.raises(ConfigError):
        linear_schedule(0)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, None])
def test_linear_schedule_rejects_step_counts_that_are_not_integers(bad):
    # 2.5 raised TypeError from range(), and True built one step
    with pytest.raises(ConfigError, match="step count"):
        linear_schedule(bad)
    assert linear_schedule(np.int64(2)) == linear_schedule(2)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        NoiseSchedule((1.0, 0.5, 0.5, 0.0))  # not strictly decreasing
    with pytest.raises(ConfigError):
        NoiseSchedule((0.9, 0.0))
    with pytest.raises(ConfigError):
        NoiseSchedule((1.0, 0.1))


def test_schedule_refuses_a_mutable_container():
    # a list was kept, so editing it afterwards changed the draws silently;
    # it also made the schedule unhashable
    alphas = [1.0, 0.5, 0.0]
    with pytest.raises(ConfigError, match="must be a tuple"):
        NoiseSchedule(alphas)
    assert hash(NoiseSchedule((1.0, 0.5, 0.0))) == hash(linear_schedule(2))


def test_schedule_alpha_refuses_a_step_past_the_last():
    sched = linear_schedule(3)
    assert sched.alpha(3) == 0.0
    with pytest.raises(ContractError, match="step"):
        sched.alpha(4)


def test_reverse_coeffs_linear():
    sched = linear_schedule(4)
    coeffs = reverse_coeffs(4, sched)
    assert coeffs.stay_prob == 0.75 and coeffs.commit_prob == 0.25
    first = reverse_coeffs(1, sched)
    assert first.stay_prob == 0.0 and first.commit_prob == 1.0
    for t in range(1, 5):
        c = reverse_coeffs(t, sched)
        assert abs(c.stay_prob + c.commit_prob - 1.0) < 1e-12
    with pytest.raises(ContractError):
        reverse_coeffs(0, sched)
    with pytest.raises(ContractError):
        reverse_coeffs(5, sched)


def test_forward_corrupt_endpoints():
    sched = linear_schedule(4)
    region = EditableRegion.all_editable(5)
    seq = np.array([0, 1, 0, 1, 1])
    rng = np.random.default_rng(0)
    assert np.array_equal(forward_corrupt(seq, 0, sched, region, rng, AB.mask_id), seq)
    out = forward_corrupt(seq, 4, sched, region, rng, AB.mask_id)
    assert np.all(out == AB.mask_id)
    with pytest.raises(ContractError):
        forward_corrupt(seq, 5, sched, region, rng, AB.mask_id)


def test_forward_corrupt_frozen_untouched():
    sched = linear_schedule(2)
    region = EditableRegion.with_frozen(4, {0})
    seq = np.array([1, 0, 1, 0])
    out = forward_corrupt(seq, 2, sched, region, np.random.default_rng(1), AB.mask_id)
    assert out[0] == 1
    assert np.all(out[1:] == AB.mask_id)


def test_forward_corrupt_marginal():
    # masked fraction at alpha=0.5 over a long sequence
    sched = linear_schedule(2)  # alpha_1 = 0.5
    region = EditableRegion.all_editable(10_000)
    seq = np.zeros(10_000, dtype=np.int64)
    out = forward_corrupt(seq, 1, sched, region, np.random.default_rng(2), AB.mask_id)
    fraction = (out == AB.mask_id).mean()
    assert abs(fraction - 0.5) < 0.02


def test_forward_corrupt_rejects_masked_input():
    sched = linear_schedule(2)
    region = EditableRegion.all_editable(3)
    with pytest.raises(ContractError):
        forward_corrupt(np.array([0, AB.mask_id, 1]), 1, sched, region,
                        np.random.default_rng(0), AB.mask_id)


def test_sample_rows_deterministic_categorical():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = sample_rows(rows, np.random.default_rng(0))
    assert np.array_equal(out, [0, 1])


def test_sample_rows_count_draws_per_row():
    rows = np.array([[0.0, 1.0], [0.25, 0.75]])
    out = sample_rows(rows, np.random.default_rng(1), count=4000)
    assert out.shape == (4000, 2)
    assert np.all(out[:, 0] == 1)
    assert abs(out[:, 1].mean() - 0.75) < 0.03


class LargestUniform:
    """A generator whose every uniform is the largest double below 1."""

    def random(self, shape):
        return np.full(shape, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("num_tokens", range(2, 22))
def test_sample_rows_matches_the_inverse_cdf_oracle(num_tokens):
    rng = np.random.default_rng(num_tokens)
    for case in range(20):
        length = int(rng.integers(1, 60))
        rows = rng.random((length, num_tokens))
        rows[:, rng.random(num_tokens) < 0.3] = 0.0  # zero-probability columns
        hot = (rng.random(length) < 0.3) | (rows.sum(axis=1) == 0)
        rows[hot] = 0.0
        rows[hot, rng.integers(0, num_tokens, hot.sum())] = 1.0  # one-hot rows
        rows /= rows.sum(axis=1, keepdims=True)
        for count in (None, 1, 32):
            got = sample_rows(rows, np.random.default_rng([num_tokens, case]), count)
            want = sample_rows_by_sum(rows, np.random.default_rng([num_tokens, case]),
                                      count)
            assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
            top = sample_rows(rows, LargestUniform(), count)
            assert top.tobytes() == sample_rows_by_sum(rows, LargestUniform(),
                                                       count).tobytes()


@pytest.mark.parametrize("num_tokens", [2, 9, 21, 256, 257])
def test_sample_rows_counts_every_hit_at_alphabet_sizes_around_one_byte(num_tokens):
    # hits are counted in the narrowest unsigned type that holds |V| - 1: past
    # 256 tokens a one-byte count would wrap the last token's draw to 0
    rng = np.random.default_rng(num_tokens)
    rows = rng.random((40, num_tokens)) ** 4
    rows[:, -1] += rows.sum(axis=1)  # the largest uniform draws the last token
    rows /= rows.sum(axis=1, keepdims=True)
    for row in rows[::2]:  # entries down to -ROW_TOL, which the row contract admits
        low = rng.choice(num_tokens - 1, size=min(3, num_tokens - 1), replace=False)
        row[low] = -ROW_TOL * rng.random(low.size)
        # at two tokens the other entry would pass 1 + ROW_TOL
        row[low[0]] = -ROW_TOL if num_tokens > 2 else -0.5 * ROW_TOL
        row[-1] += 1.0 - row.sum()
    assert probability_rows(rows) and (rows < 0).any()
    for count in (None, 32):
        got = sample_rows(rows, np.random.default_rng(1), count)
        want = sample_rows_by_sum(rows, np.random.default_rng(1), count)
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
        top = sample_rows(rows, LargestUniform(), count)
        assert top.dtype == np.int64 and (top == num_tokens - 1).all()
        assert top.tobytes() == sample_rows_by_sum(rows, LargestUniform(), count).tobytes()


def test_first_hitting_steps_marginals():
    # P(t) = alpha_{t-1} - alpha_t on a non-linear schedule
    sched = NoiseSchedule((1.0, 0.9, 0.5, 0.2, 0.0))
    n = 100_000
    hits = first_hitting_steps(sched, n, np.random.default_rng(4))
    assert hits.min() >= 1 and hits.max() <= 4
    freq = np.bincount(hits, minlength=5)[1:] / n
    assert 0.5 * np.abs(freq - [0.1, 0.4, 0.3, 0.2]).sum() < 0.01
    assert first_hitting_steps(sched, 0, np.random.default_rng(4)).size == 0


def test_vanilla_no_masks_identity():
    seq = np.array([0, 1, 1])
    rows = np.eye(2)[seq]
    committing = np.array([], dtype=np.int64)
    out = vanilla_reverse_step(seq, rows, committing, np.random.default_rng(0), AB)
    assert np.array_equal(out, seq)


def test_vanilla_final_step_commits_everything():
    seq = np.full(6, AB.mask_id)
    pattern = np.array([0, 1, 1, 0, 0, 1])
    rows = np.eye(2)[pattern]
    out = vanilla_reverse_step(seq, rows, np.arange(6), np.random.default_rng(0), AB)
    assert np.array_equal(out, pattern)
    # only the committing positions unmask, each from its own row
    out = vanilla_reverse_step(seq, rows, np.array([1, 4]), np.random.default_rng(0), AB)
    assert masked_positions(out, AB.mask_id).tolist() == [0, 2, 3, 5]
    assert out[1] == 1 and out[4] == 0


def test_vanilla_unmask_probability():
    # one masked position, one-hot row, unmask step t=4 of T=4 with
    # probability alpha_3 - alpha_4 = 0.25
    sched = linear_schedule(4)
    seq = np.array([0, AB.mask_id])
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    rng = np.random.default_rng(42)
    hits = 0
    for _ in range(10_000):
        committing = np.flatnonzero(first_hitting_steps(sched, 1, rng) == 4) + 1
        hits += vanilla_reverse_step(seq, rows, committing, rng, AB)[1] == 1
    assert abs(hits / 10_000 - 0.25) < 0.02


def test_guided_deterministic_branches():
    refined = np.array([1, 0, 1])
    # nothing left to unmask: output equals the refined candidate exactly
    out = guided_reverse_step(refined, np.array([], dtype=np.int64), AB.mask_id)
    assert np.array_equal(out, refined)
    assert out.dtype == np.int64
    # positions whose unmask step is still to come keep the mask
    out = guided_reverse_step(refined, np.array([2, 0]), AB.mask_id)
    assert out.tolist() == [AB.mask_id, 0, AB.mask_id]
    assert refined.tolist() == [1, 0, 1]


def test_guided_rejects_masked_candidate():
    with pytest.raises(ContractError):
        guided_reverse_step(np.array([0, AB.mask_id]), np.array([1]), AB.mask_id)


@pytest.mark.parametrize("refined", [[5, 1], [0, -1]])
def test_guided_rejects_tokens_off_the_alphabet(refined):
    # they were committed as they were
    with pytest.raises(ContractError, match="outside range"):
        guided_reverse_step(np.array(refined), np.array([], dtype=np.int64), AB.mask_id)


@pytest.mark.parametrize("x_t", [[7, AB.mask_id], [-1, AB.mask_id],
                                 [AB.mask_id + 1, AB.mask_id]])
def test_vanilla_rejects_tokens_off_the_alphabet(x_t):
    # the carried-over token came out unchanged
    with pytest.raises(ContractError, match="outside range"):
        vanilla_reverse_step(np.array(x_t), np.full((2, 2), 0.5), np.array([1]),
                             np.random.default_rng(0), AB)


@pytest.mark.parametrize("x_t", [[[2, 2, 2]], [2]], ids=["one-row-of-three", "one-position"])
def test_vanilla_refuses_a_sequence_without_one_row_per_position(x_t):
    # the drawn token filled a whole row, or rows for 3 positions served 1
    with pytest.raises(ContractError):
        vanilla_reverse_step(np.array(x_t), np.full((3, 2), 0.5), np.array([0]),
                             np.random.default_rng(0), AB)


@pytest.mark.parametrize("committing", [[3], [[0], [1]]], ids=["past-the-end", "2-d"])
def test_vanilla_refuses_committing_positions_it_cannot_index(committing):
    # numpy's IndexError or ValueError, named as the reverse step's
    with pytest.raises(ContractError, match="^reverse step"):
        vanilla_reverse_step(np.full(3, AB.mask_id), np.full((3, 2), 0.5), np.array(committing),
                             np.random.default_rng(0), AB)


def test_guided_refuses_a_candidate_that_is_not_one_sequence():
    # the mask filled the whole row
    with pytest.raises(ContractError, match="one sequence"):
        guided_reverse_step(np.array([[0, 1, 0]]), np.array([0]), AB.mask_id)


NOT_POSITIONS = pytest.mark.parametrize(
    "positions", [np.array([True, False, True]), None, [[1], [1, 2]]],
    ids=["bool", "none", "ragged"])


@NOT_POSITIONS
def test_vanilla_refuses_committing_positions_that_are_not_integers(positions):
    # numpy read the bools as a mask: positions 0 and 2 committed
    with pytest.raises(ContractError, match="committing positions must be integers"):
        vanilla_reverse_step(np.full(3, AB.mask_id), np.full((3, 2), 0.5), positions,
                             np.random.default_rng(0), AB)


@NOT_POSITIONS
def test_guided_refuses_remaining_positions_that_are_not_integers(positions):
    # numpy read the bools as a mask (position 0 kept the mask) and None as a
    # new axis (every position kept it); the ragged list raised numpy's ValueError
    with pytest.raises(ContractError, match="remaining positions must be integers"):
        guided_reverse_step(np.array([0, 1, 1]), positions, AB.mask_id)


NOT_FLAT = pytest.mark.parametrize(
    "positions", [np.array([[0, 1]]), np.array(1)], ids=["one-row-of-two", "0-d"])


@NOT_FLAT
def test_vanilla_refuses_committing_positions_that_are_not_1d(positions):
    # numpy read the row of two as positions 0 and 1 and committed both
    with pytest.raises(ContractError, match="committing positions must be 1-D"):
        vanilla_reverse_step(np.full(3, AB.mask_id), np.full((3, 2), 0.5), positions,
                             np.random.default_rng(0), AB)


@NOT_FLAT
def test_guided_refuses_remaining_positions_that_are_not_1d(positions):
    # numpy read the row of two as positions 0 and 1 and masked both
    with pytest.raises(ContractError, match="remaining positions must be 1-D"):
        guided_reverse_step(np.array([1, 0, 1]), positions, AB.mask_id)


def test_monotone_unmasking_vanilla():
    sched = linear_schedule(8)
    rng = np.random.default_rng(3)
    x = np.full(12, AB.mask_id)
    hits = first_hitting_steps(sched, 12, rng)
    masked = set(range(12))
    for t in range(8, 0, -1):
        rows = UniformDenoiser(AB).denoise(x, t)
        x = vanilla_reverse_step(x, rows, np.flatnonzero(hits == t), rng, AB)
        now = set(masked_positions(x, AB.mask_id).tolist())
        assert now <= masked
        masked = now
    assert not masked
