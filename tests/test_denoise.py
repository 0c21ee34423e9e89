import pickle

import numpy as np
import pytest

from mdsearch.constraints.base import Constraint
from mdsearch.denoise import (
    ROW_TOL,
    CorruptedDenoiser,
    DataDistribution,
    ExactPosteriorDenoiser,
    UniformDenoiser,
    check_rows,
    load_table,
)
from mdsearch.errors import ConfigError, ContractError, DenoiserContractError, ParseError
from mdsearch.constraints.sat import CnfFormula
from mdsearch.search import best_of_pool, proposal_draws, vanilla_reverse_step
from mdsearch.tasks import build_denoiser, sat_instance
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


@pytest.mark.parametrize("token", [-1, 5])
@pytest.mark.parametrize("kind", ["uniform", "exact", "noisy", "table"])
def test_every_built_in_denoiser_refuses_an_observed_token_outside_the_alphabet(
        tmp_path, kind, token):
    # indexing would read -1 as the last token
    table = tmp_path / "table.tsv"
    table.write_text("???\t0\t0.5,0.5\n", encoding="utf-8")
    instance = sat_instance(CnfFormula(3, ((1, 2, 3),)))
    den = build_denoiser(instance, f"table:{table}" if kind == "table" else kind)
    with pytest.raises(ContractError):
        den.denoise(np.array([token, 2, 2]), 1)


@pytest.mark.parametrize("token", [-1, 5, 0.5])
def test_check_rows_refuses_an_observed_token_outside_the_alphabet(token):
    # row 0 is one-hot on the last token, which indexing would read for -1
    rows = np.array([[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ContractError, match="observed tokens"):
        check_rows(rows, np.array([token, M, M]), AB)
    check_rows(rows, np.array([1, M, M]), AB)


@pytest.mark.parametrize("values, rows", [
    (np.int64(M), np.full((1, 2), 0.5)),
    (np.array([True, False]), np.array([[0.0, 1.0], [1.0, 0.0]])),
    (np.array([[M, M]]), np.full((1, 2), 0.5)),
], ids=["scalar", "bool", "two-dimensional"])
def test_check_rows_refuses_a_sequence_that_is_not_one_integer_array(values, rows):
    # a scalar raised a bare TypeError from len(); a bool array read as a mask,
    # and its one-hot rows were blamed on the denoiser; one row of two passed
    with pytest.raises(ContractError) as err:
        check_rows(rows, values, AB)
    assert err.type is ContractError


def test_noisy_denoiser_refuses_base_rows_of_another_shape():
    # clamping an observed position past the base's last row raised a bare IndexError
    class Short(UniformDenoiser):
        def denoise(self, values, t):
            return super().denoise(values, t)[:1]

    with pytest.raises(DenoiserContractError, match="base rows"):
        CorruptedDenoiser(Short(AB), 0.5).denoise(np.array([M, 0]), 1)


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
    dist = DataDistribution(np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        dist.support[0, 0] = 1  # read-only after construction


def test_exact_posterior_unique_completion():
    # support {AB, BA}, observing A at position 0 forces B at position 1
    dist = DataDistribution(np.array([[0, 1], [1, 0]]))
    rows = ExactPosteriorDenoiser(dist, AB).denoise(np.array([0, M]), 0)
    assert np.array_equal(rows[0], [1.0, 0.0])
    assert np.array_equal(rows[1], [0.0, 1.0])


def test_exact_posterior_symmetry_and_fallback():
    dist = DataDistribution(np.array([[0, 1], [1, 0]]))
    rows = ExactPosteriorDenoiser(dist, AB).denoise(np.array([M, M]), 0)
    assert np.allclose(rows, 0.5)
    # inconsistent evidence: AA is outside the support
    rows = ExactPosteriorDenoiser(dist, AB).denoise(np.array([0, 0]), 0)
    assert np.array_equal(rows[0], [1.0, 0.0])
    assert np.array_equal(rows[1], [1.0, 0.0])
    rows = ExactPosteriorDenoiser(dist, AB).denoise(np.array([M, M, M][:2]), 0)
    check_rows(rows, np.array([M, M]), AB)


def test_exact_posterior_inconsistent_masked_rows_uniform():
    dist = DataDistribution(np.array([[0, 1, 0]]))
    rows = ExactPosteriorDenoiser(dist, AB).denoise(np.array([1, M, M]), 0)
    assert np.array_equal(rows[0], [0.0, 1.0])  # clamped to the observation
    assert np.allclose(rows[1:], 0.5)


def test_exact_posterior_disjunction_marginal():
    # satisfying assignments of (x1 or x2): {01, 10, 11} -> P(x1=1) = 2/3
    dist = DataDistribution(np.array([[0, 1], [1, 0], [1, 1]]))
    rows = ExactPosteriorDenoiser(dist, AB).denoise(np.array([M, M]), 0)
    assert abs(rows[0, 1] - 2 / 3) < 1e-12


def test_repeated_support_rows_weight_the_posterior_by_multiplicity():
    # support {AB, AB, BA}: AB counts twice, so P(A at position 0) = 2/3
    dist = DataDistribution(np.array([[0, 1], [0, 1], [1, 0]]))
    rows = ExactPosteriorDenoiser(dist, AB).denoise(np.array([M, M]), 0)
    assert rows.tolist() == [[2 / 3, 1 / 3], [1 / 3, 2 / 3]]
    rows = ExactPosteriorDenoiser(dist, AB).denoise(np.array([M, 1]), 0)
    assert rows.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_exact_posterior_matches_enumeration_oracle():
    rng = np.random.default_rng(0)
    vocab = Vocab(("A", "B", "C"))
    for _ in range(50):
        size = int(rng.integers(1, 40))
        length = int(rng.integers(1, 6))
        # repeated rows weight the posterior by their multiplicity
        support = rng.integers(0, 3, size=(size, length)).repeat(
            rng.integers(1, 4, size=size), axis=0)
        dist = DataDistribution(support)
        x = rng.integers(0, 4, size=length)  # 3 == mask
        observed = {i: int(v) for i, v in enumerate(x) if v != 3}
        expected = enumerate_posterior(support, observed, 3)
        rows = ExactPosteriorDenoiser(dist, vocab).denoise(x, 0)
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
    # 4096 draws from 1024 distinct rows: most rows repeat
    support = rng.integers(0, 4, size=(1024, 6))[rng.integers(0, 1024, size=4096)]
    dist = DataDistribution(support)
    for _ in range(10):
        x = rng.integers(0, 5, size=6)  # 4 == mask
        observed = {i: int(v) for i, v in enumerate(x) if v != 4}
        expected = enumerate_posterior(support, observed, 4)
        rows = ExactPosteriorDenoiser(dist, vocab).denoise(x, 0)
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
    assert np.array_equal(CorruptedDenoiser(base, 0.0).denoise(x, 1), base.denoise(x, 1))
    assert np.allclose(CorruptedDenoiser(base, 1.0).denoise(x, 1), 0.5)
    rows = CorruptedDenoiser(base, 0.5).denoise(x, 1)  # one-hot base mixed halfway
    assert np.allclose(rows, [[0.75, 0.25], [0.75, 0.25]])
    with pytest.raises(ConfigError):
        CorruptedDenoiser(base, 1.5)


@pytest.mark.parametrize("bad", [2.0, -0.1, float("nan")])
def test_corrupted_denoiser_rejects_a_mixing_weight_outside_the_unit_interval(bad):
    # a weight of 2 would give negative rows
    base = UniformDenoiser(AB)
    with pytest.raises(ConfigError, match="outside"):
        CorruptedDenoiser(base, bad)


def test_corrupt_stays_stochastic_and_clamped():
    dist = DataDistribution(np.array([[0, 1], [1, 0]]))
    base = ExactPosteriorDenoiser(dist, AB)
    x = np.array([0, M])
    for eps in (0.0, 0.1, 0.5, 0.9, 1.0):
        rows = CorruptedDenoiser(base, eps).denoise(x, 2)
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
        ("??\t2\t0.5,0.5\n", "line 1"),           # position at the pattern's length
        ("??\t0\t0.5,0.5\n??\t0\t0.5,0.5\n", "line 2"),  # duplicate
    ]
    for text, fragment in cases:
        path = tmp_path / "bad.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_table(path, AB)
        assert fragment in str(err.value)


def test_load_table_counts_lines_of_a_crlf_file_with_comments(tmp_path):
    # a form feed in a comment is not a line break, as when the file was iterated
    path = tmp_path / "table.tsv"
    path.write_bytes(b"# table\x0cnotes\r\n??\t0\t0.5,0.5\r\n\r\n# rows\r\n??\t1\t0.5,0.6\r\n")
    with pytest.raises(ParseError, match="probability distribution") as err:
        load_table(path, AB)
    assert err.value.line == 5


@pytest.mark.parametrize("text, message", [
    ("??\tx\t0.5,0.5\n", "bad position"),
    ("??\t0\t0.5,half\n", "bad probability"),
    ("??\t0\t0.2,0.3,0.5\n", "expected 2 probabilities"),
], ids=["position", "probability", "count"])
def test_load_table_names_the_field_it_cannot_read(tmp_path, text, message):
    path = tmp_path / "bad.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=f"line 1: {message}"):
        load_table(path, AB)


def test_load_table_needs_single_character_symbols(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ConfigError, match="single-character"):
        load_table(path, Vocab(("AA", "B")))


def test_exact_posterior_bitwise_matches_per_position_oracle():
    rng = np.random.default_rng(8)
    for case in range(300):
        num_tokens = int(rng.integers(2, 6))
        length = int(rng.integers(1, 9))
        vocab = Vocab(tuple("ABCDEF"[:num_tokens]))
        support = rng.integers(0, num_tokens, size=(int(rng.integers(1, 40)), length))
        if case % 2:
            support = support.repeat(rng.integers(1, 4, size=len(support)), axis=0)
        dist = DataDistribution(support)
        # observe a support row's tokens (frozen or committed positions), or
        # random tokens that may match no row and force the uniform fallback
        source = (support[rng.integers(len(support))] if case % 3
                  else rng.integers(0, num_tokens, size=length))
        values = np.where(rng.random(length) < 0.4, source, vocab.mask_id)
        rows = ExactPosteriorDenoiser(dist, vocab).denoise(values, 0)
        oracle = posterior_by_position(dist.support, values, num_tokens, vocab.mask_id)
        assert rows.tobytes() == oracle.tobytes()


def test_posterior_tables_are_built_with_the_denoiser_and_read_only():
    vocab = Vocab(tuple("ABC"))
    support = np.array([[0, 1], [2, 2], [1, 0]])
    dist = DataDistribution(support)
    den = ExactPosteriorDenoiser(dist, vocab)
    assert np.array_equal(den.bins, [[0, 4], [2, 5], [1, 3]])
    with pytest.raises(ValueError):
        den.bins[0, 0] = 0
    assert np.array_equal(ExactPosteriorDenoiser(dist, Vocab(tuple("ABCD"))).bins,
                          [[0, 5], [2, 6], [1, 4]])


def test_denoisers_over_one_distribution_leave_it_unchanged():
    # each denoiser owns the tables for its alphabet; the shared record stays as built
    dist = DataDistribution(np.array([[0, 1], [1, 0]]))
    before = pickle.dumps(vars(dist))
    for vocab in (AB, Vocab(tuple("ABC"))):
        rows = ExactPosteriorDenoiser(dist, vocab).denoise(np.full(2, vocab.mask_id), 0)
        assert np.allclose(rows[:, :2], 0.5) and not rows[:, 2:].any()
    assert pickle.dumps(vars(dist)) == before


def test_rows_whose_sum_overflows_are_refused_with_each_callers_error(tmp_path):
    # the entries were summed before they were bounded: 1e308 + 1e308 warned of overflow
    huge = np.array([[1e308, 1e308]])
    with pytest.raises(DenoiserContractError):
        check_rows(huge, np.array([M]), AB)
    with pytest.raises(ContractError) as err:
        proposal_draws(huge, np.array([M]), 1, np.random.default_rng(0), M)
    assert err.type is ContractError
    path = tmp_path / "huge.tsv"
    path.write_text("?\t0\t1e308,1e308\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        load_table(path, AB)


# --- the row contract on both sides of ROW_TOL --------------------------------

ABC = Vocab(("A", "B", "C"))


class NoViolation(Constraint):
    def _violations(self, values):
        return np.zeros(len(values))


def refusals(row, tmp_path):
    """Which of the five row checks refuse ``row`` as the row of a masked position."""
    rows = np.array([[1.0, 0.0, 0.0], row])
    x_t = np.array([0, ABC.mask_id])
    refused = []
    calls = {
        "check_rows": lambda: check_rows(rows, x_t, ABC),
        "proposal_draws": lambda: proposal_draws(rows, x_t, 3, np.random.default_rng(0),
                                                 ABC.mask_id),
        "best_of_pool": lambda: best_of_pool(rows, x_t, 3, (NoViolation(),), None,
                                             np.random.default_rng(0), ABC.mask_id),
        "vanilla_reverse_step": lambda: vanilla_reverse_step(
            x_t, rows, np.array([1]), np.random.default_rng(0), ABC),
    }
    for name, call in calls.items():
        try:
            call()
        except ContractError:  # DenoiserContractError for check_rows and the step
            refused.append(name)
    path = tmp_path / "row.tsv"
    path.write_text("A?\t1\t" + ",".join(map(repr, row)) + "\n", encoding="utf-8")
    try:
        load_table(path, ABC)
    except ParseError:
        refused.append("load_table")
    return refused


EVERY_ROW_CHECK = ["check_rows", "proposal_draws", "best_of_pool", "vanilla_reverse_step",
                   "load_table"]


@pytest.mark.parametrize("row", [[np.nan, 0.5, 0.5], [-3.0, 4.0, 0.0], [0.0, 0.0, 0.0]],
                         ids=["nan", "negative", "zero"])
def test_rows_far_from_a_distribution_are_refused_by_every_check(tmp_path, row):
    # the plain reverse step drew a token from each: 0 from NaN, 1 from negative, 2 from zero
    assert refusals(row, tmp_path) == EVERY_ROW_CHECK


@pytest.mark.parametrize("scale, refused", [(2.0, EVERY_ROW_CHECK), (0.5, [])],
                         ids=["outside", "inside"])
@pytest.mark.parametrize("shape", ["sum-high", "sum-low", "negative-entry"])
def test_rows_just_outside_the_row_tolerance_are_refused_by_every_check(
        tmp_path, shape, scale, refused):
    # loosening the row-sum tolerance to 1e-6, or the entry bound to
    # 0.5 + 1e-6, fails the outside cases; tightening either fails the inside ones
    off = scale * ROW_TOL
    row = {"sum-high": [0.25, 0.25, 0.5 + off],
           "sum-low": [0.25, 0.25, 0.5 - off],
           "negative-entry": [-off, 0.5, 0.5 + off]}[shape]
    assert refusals(row, tmp_path) == refused


@pytest.mark.parametrize("scale", [2.0, 0.5], ids=["outside", "inside"])
def test_observed_rows_just_off_one_hot_are_refused(scale):
    # a one-hot tolerance of 1e-3 fails the outside case; the exact one-hot
    # row beside it fails a check that refuses only when every observed row is off
    off = scale * ROW_TOL
    rows = np.array([[1.0 - off, off, 0.0], [0.0, 1.0, 0.0], [0.25, 0.25, 0.5]])
    x_t = np.array([0, 1, ABC.mask_id])
    if scale > 1:
        with pytest.raises(DenoiserContractError, match="one-hot"):
            check_rows(rows, x_t, ABC)
    else:
        assert np.array_equal(check_rows(rows, x_t, ABC), rows)
