import numpy as np
import pytest

from mdsearch.denoise import (
    CorruptedDenoiser,
    DataDistribution,
    ExactPosteriorDenoiser,
    UniformDenoiser,
    check_rows,
    corrupt,
    exact_posterior,
    load_table,
)
from mdsearch.errors import ConfigError, DenoiserContractError, ParseError
from mdsearch.vocab import Vocab

from oracles import enumerate_posterior, posterior_by_position

AB = Vocab(("A", "B"))
M = AB.mask_id


def test_uniform_denoiser():
    den = UniformDenoiser(AB)
    rows = den.denoise(np.array([M, M]), 3)
    assert np.allclose(rows, 0.5)
    rows = den.denoise(np.array([0, M]), 3)
    assert np.array_equal(rows[0], [1.0, 0.0])
    assert np.allclose(rows[1], 0.5)
    check_rows(rows, np.array([0, M]), AB)


def test_check_rows_rejections():
    seq = np.array([0, M])
    with pytest.raises(DenoiserContractError):
        check_rows(np.array([[1.0, 0.0]]), seq, AB)  # wrong shape
    with pytest.raises(DenoiserContractError):
        check_rows(np.array([[1.0, 0.0], [0.6, 0.6]]), seq, AB)  # unnormalized
    with pytest.raises(DenoiserContractError):
        check_rows(np.array([[0.0, 1.0], [0.5, 0.5]]), seq, AB)  # not one-hot at 0
    with pytest.raises(DenoiserContractError):
        check_rows(np.array([[1.0, 0.0], [1.2, -0.2]]), seq, AB)  # negative
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DenoiserContractError):
            check_rows(np.array([[1.0, 0.0], [bad, 0.5]]), seq, AB)  # not finite


def test_data_distribution_validation():
    with pytest.raises(ConfigError):
        DataDistribution(np.empty((0, 3), dtype=np.int64))
    with pytest.raises(ConfigError):
        DataDistribution(np.array([[0, 1]]), weights=np.array([0.0]))
    dist = DataDistribution(np.array([[0, 1], [1, 0]]), weights=np.array([3.0, 1.0]))
    assert np.allclose(dist.weights, [0.75, 0.25])
    with pytest.raises(ValueError):
        dist.support[0, 0] = 1  # read-only after construction


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_data_distribution_rejects_non_finite_weights(bad):
    # they normalised to NaN, and the error surfaced only at sample time
    with pytest.raises(ConfigError, match="finite"):
        DataDistribution(np.array([[0, 1], [1, 0]]), weights=np.array([1.0, bad]))


def test_data_distribution_rejects_weights_whose_sum_overflows():
    # they normalised to all zeros, with only numpy's overflow warning
    with pytest.raises(ConfigError, match="finite"):
        DataDistribution(np.array([[0, 1], [1, 0]]), weights=np.array([1e308, 1e308]))
    big = DataDistribution(np.array([[0, 1], [1, 0]]), weights=np.array([1e307, 3e307]))
    assert big.weights.tolist() == [0.25, 0.75]


def test_data_distribution_rejects_opposite_infinite_weights_without_a_warning():
    # their sum is NaN, which numpy reports with an "invalid value" warning
    with pytest.raises(ConfigError, match="finite"):
        DataDistribution(np.array([[0, 1], [1, 0]]), weights=np.array([np.inf, -np.inf]))


def test_exact_posterior_unique_completion():
    # support {AB, BA}, observing A at position 0 forces B at position 1
    dist = DataDistribution(np.array([[0, 1], [1, 0]]))
    rows = exact_posterior(dist, np.array([0, M]), AB)
    assert np.array_equal(rows[0], [1.0, 0.0])
    assert np.array_equal(rows[1], [0.0, 1.0])


def test_exact_posterior_symmetry_and_fallback():
    dist = DataDistribution(np.array([[0, 1], [1, 0]]))
    rows = exact_posterior(dist, np.array([M, M]), AB)
    assert np.allclose(rows, 0.5)
    # inconsistent evidence: AA is outside the support
    rows = exact_posterior(dist, np.array([0, 0]), AB)
    assert np.array_equal(rows[0], [1.0, 0.0])
    assert np.array_equal(rows[1], [1.0, 0.0])
    rows = exact_posterior(dist, np.array([M, M, M][:2]), AB)
    check_rows(rows, np.array([M, M]), AB)


def test_exact_posterior_inconsistent_masked_rows_uniform():
    dist = DataDistribution(np.array([[0, 1, 0]]))
    rows = exact_posterior(dist, np.array([1, M, M]), AB)
    assert np.array_equal(rows[0], [0.0, 1.0])  # clamped to the observation
    assert np.allclose(rows[1:], 0.5)


def test_exact_posterior_disjunction_marginal():
    # satisfying assignments of (x1 or x2): {01, 10, 11} -> P(x1=1) = 2/3
    dist = DataDistribution(np.array([[0, 1], [1, 0], [1, 1]]))
    rows = exact_posterior(dist, np.array([M, M]), AB)
    assert abs(rows[0, 1] - 2 / 3) < 1e-12


def test_exact_posterior_matches_enumeration_oracle():
    rng = np.random.default_rng(0)
    vocab = Vocab(("A", "B", "C"))
    for _ in range(50):
        size = int(rng.integers(1, 40))
        length = int(rng.integers(1, 6))
        support = rng.integers(0, 3, size=(size, length))
        weights = rng.random(size) + 0.1
        dist = DataDistribution(support, weights=weights)
        x = rng.integers(0, 4, size=length)  # 3 == mask
        observed = {i: int(v) for i, v in enumerate(x) if v != 3}
        expected = enumerate_posterior(support, dist.weights, observed, 3)
        rows = exact_posterior(dist, x, vocab)
        if expected is None:
            masked = [i for i in range(length) if i not in observed]
            assert np.allclose(rows[masked], 1 / 3)
        else:
            masked = [i for i in range(length) if i not in observed]
            assert np.allclose(rows[masked], expected[masked], atol=1e-12)
        check_rows(rows, x, vocab)


def test_exact_posterior_matches_enumeration_on_large_support():
    rng = np.random.default_rng(7)
    vocab = Vocab(("A", "B", "C", "D"))
    support = rng.integers(0, 4, size=(4096, 6))
    weights = rng.random(4096) + 0.05
    dist = DataDistribution(support, weights=weights)
    for _ in range(10):
        x = rng.integers(0, 5, size=6)  # 4 == mask
        observed = {i: int(v) for i, v in enumerate(x) if v != 4}
        expected = enumerate_posterior(support, dist.weights, observed, 4)
        rows = exact_posterior(dist, x, vocab)
        masked = [i for i in range(6) if i not in observed]
        if expected is None:
            assert np.allclose(rows[masked], 0.25)
        else:
            assert np.allclose(rows[masked], expected[masked], atol=1e-12)


def test_exact_posterior_is_step_independent():
    dist = DataDistribution(np.array([[0, 1], [1, 0], [1, 1]]))
    den = ExactPosteriorDenoiser(dist, AB)
    x = np.array([M, M])
    assert np.array_equal(den.denoise(x, 1), den.denoise(x, 17))


def test_corrupt_mixture():
    dist = DataDistribution(np.array([[0, 0]]))
    base = ExactPosteriorDenoiser(dist, AB)
    x = np.array([M, M])
    assert np.array_equal(corrupt(base, 0.0).denoise(x, 1), base.denoise(x, 1))
    assert np.allclose(corrupt(base, 1.0).denoise(x, 1), 0.5)
    rows = corrupt(base, 0.5).denoise(x, 1)  # one-hot base mixed halfway
    assert np.allclose(rows, [[0.75, 0.25], [0.75, 0.25]])
    with pytest.raises(ConfigError):
        corrupt(base, 1.5)


@pytest.mark.parametrize("bad", [2.0, -0.1, float("nan")])
def test_corrupted_denoiser_rejects_a_mixing_weight_outside_the_unit_interval(bad):
    # built directly, without corrupt(), a weight of 2 would give negative rows
    base = UniformDenoiser(AB)
    with pytest.raises(ConfigError, match="outside"):
        CorruptedDenoiser(base, bad)
    with pytest.raises(ConfigError, match="outside"):
        corrupt(base, bad)


def test_corrupt_stays_stochastic_and_clamped():
    dist = DataDistribution(np.array([[0, 1], [1, 0]]))
    base = ExactPosteriorDenoiser(dist, AB)
    x = np.array([0, M])
    for eps in (0.0, 0.1, 0.5, 0.9, 1.0):
        rows = corrupt(base, eps).denoise(x, 2)
        check_rows(rows, x, AB)


def test_load_table_lookup_and_fallback(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("# comment\n??\t0\t0.25,0.75\n", encoding="utf-8")
    den = load_table(path, AB)
    rows = den.denoise(np.array([M, M]), 1)
    assert np.array_equal(rows[0], [0.25, 0.75])
    assert np.allclose(rows[1], 0.5)  # position without an entry
    rows = den.denoise(np.array([0, M]), 1)  # pattern not in the table
    assert np.array_equal(rows[0], [1.0, 0.0])
    assert np.allclose(rows[1], 0.5)


def test_load_table_clamps_observed(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("A?\t0\t0.25,0.75\nA?\t1\t0.1,0.9\n", encoding="utf-8")
    den = load_table(path, AB)
    rows = den.denoise(np.array([0, M]), 1)
    assert np.array_equal(rows[0], [1.0, 0.0])  # observation wins
    assert np.array_equal(rows[1], [0.1, 0.9])


def test_load_table_errors(tmp_path):
    cases = [
        ("??\t0\t0.5,0.6\n", "line 1"),          # non-stochastic
        ("??\t0\n", "line 1"),                    # missing field
        ("?X\t0\t0.5,0.5\n", "line 1"),           # bad symbol
        ("??\t7\t0.5,0.5\n", "line 1"),           # bad position
        ("??\t0\t0.5,0.5\n??\t0\t0.5,0.5\n", "line 2"),  # duplicate
    ]
    for text, fragment in cases:
        path = tmp_path / "bad.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_table(path, AB)
        assert fragment in str(err.value)


def test_exact_posterior_bitwise_matches_per_position_oracle():
    rng = np.random.default_rng(8)
    for case in range(300):
        num_tokens = int(rng.integers(2, 6))
        length = int(rng.integers(1, 9))
        vocab = Vocab(tuple("ABCDEF"[:num_tokens]))
        support = rng.integers(0, num_tokens, size=(int(rng.integers(1, 40)), length))
        weights = rng.random(len(support)) + 0.01 if case % 2 else None
        dist = DataDistribution(support, weights)
        # observe a support row's tokens (frozen or committed positions), or
        # random tokens that may match no row and force the uniform fallback
        source = (support[rng.integers(len(support))] if case % 3
                  else rng.integers(0, num_tokens, size=length))
        values = np.where(rng.random(length) < 0.4, source, vocab.mask_id)
        rows = exact_posterior(dist, values, vocab)
        oracle = posterior_by_position(dist.support, dist.weights, values,
                                       num_tokens, vocab.mask_id)
        assert rows.tobytes() == oracle.tobytes()


def test_posterior_tables_are_built_with_the_denoiser_and_read_only():
    vocab = Vocab(tuple("ABC"))
    support = np.array([[0, 1], [2, 2], [1, 0]])
    dist = DataDistribution(support, [1.0, 2.0, 3.0])
    ExactPosteriorDenoiser(dist, vocab)
    assert list(dist._bin_tables) == [vocab.size]
    bins, spread = dist.bin_tables(vocab.size)
    assert dist.bin_tables(vocab.size)[0] is bins
    assert np.array_equal(bins, [[0, 4], [2, 5], [1, 3]])
    assert np.array_equal(spread, np.repeat(dist.weights, 2).reshape(3, 2))
    for table in (bins, spread):
        with pytest.raises(ValueError):
            table[0, 0] = 0
    assert np.array_equal(dist.bin_tables(4)[0], [[0, 5], [2, 6], [1, 4]])
