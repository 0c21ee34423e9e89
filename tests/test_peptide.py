import dataclasses

import numpy as np
import pytest

from mdsearch.constraints.peptide import (
    HYDROPHOBIC,
    NEGATIVE,
    POSITIVE,
    PeptideSpec,
    TERMINATOR,
    peptide_constraints,
    peptide_string,
    residue_vocab,
)
from mdsearch.errors import ConfigError, ContractError
from mdsearch.search import aggregate_violation
from mdsearch.vocab import Vocab

from oracles import naive_peptide_report

VOCAB = residue_vocab()
SPEC = PeptideSpec()
TERM = VOCAB.index(TERMINATOR)


def peptide_report(residues: str):
    """Three-component report of a residue string under the default spec."""
    return aggregate_violation(VOCAB.parse(residues + TERMINATOR),
                               peptide_constraints(SPEC, VOCAB))


def tokens(residues: str, slots: int | None = None) -> np.ndarray:
    values = VOCAB.parse(residues)
    if slots is None:
        return values
    out = np.full(slots, TERM, dtype=np.int64)
    out[:len(values)] = values
    return out


def naive_report(values) -> tuple:
    """The naive recount of a token array's logical prefix."""
    return naive_peptide_report(VOCAB.render(values).split(TERMINATOR, 1)[0])


def test_vocab_shape():
    assert VOCAB.size == 21
    assert VOCAB.symbols[-1] == TERMINATOR


def test_logical_length_and_rendering():
    values = tokens("KKLL", slots=8)
    assert peptide_string(values, VOCAB) == "KKLL"
    assert peptide_string(tokens("KKLL"), VOCAB) == "KKLL"  # no terminator present
    assert peptide_string(tokens("", slots=3), VOCAB) == ""
    assert peptide_string(tokens(""), VOCAB) == ""  # no slots


def test_a_vocabulary_without_the_terminator_is_a_config_error():
    # Vocab.index raises KeyError for an unknown symbol; the peptide layer names the gap
    no_terminator = Vocab(("A", "B"))
    with pytest.raises(ConfigError, match="terminator '-'"):
        peptide_constraints(SPEC, no_terminator)
    with pytest.raises(ConfigError, match="terminator '-'"):
        peptide_string(np.array([0, 1]), no_terminator)


def test_feasible_example():
    report = peptide_report("KKLLLAAAWW")
    assert report.values == (0.0, 0.0, 0.0)
    assert report.feasible


def test_charge_hinge_example():
    report = peptide_report("G" * 10)
    assert report.values[1] == 2.0  # charge 0, window starts at +2


def test_length_hinge_example():
    report = peptide_report("KKLLLAAAW")  # nine residues
    assert report.values[0] == 1.0


def test_reports_match_naive_oracle():
    rng = np.random.default_rng(0)
    letters = np.array(list("ACDEFGHIKLMNPQRSTVWY"))
    for _ in range(500):
        n = int(rng.integers(0, 60))
        residues = "".join(rng.choice(letters, size=n))
        report = peptide_report(residues)
        assert report.values == naive_peptide_report(residues)


def test_evaluators_reject_tokens_outside_the_alphabet():
    lysine = VOCAB.index("K")
    # -1 used to read as the terminator's weight and 99 raised IndexError
    negative = np.array([lysine] * 12 + [-1] * 3 + [TERM])
    too_large = np.array([lysine] * 12 + [99] + [TERM])
    for c in peptide_constraints(SPEC, VOCAB):
        for bad in (negative, too_large):
            with pytest.raises(ContractError):
                c.violation(bad)
            with pytest.raises(ContractError):
                c.violations(np.stack([np.full(len(bad), lysine), bad]))
            with pytest.raises(ContractError):
                c.tracker(bad)
        tracker = c.tracker(np.full(12, lysine))
        for pos, token in ((3, -1), (3, VOCAB.size), (-1, lysine), (12, lysine)):
            with pytest.raises(ContractError):
                tracker.commit(pos, token)
        with pytest.raises(ContractError):
            tracker.peek_block([12], VOCAB.size)


def test_count_based_properties_are_order_free():
    rng = np.random.default_rng(1)
    residues = list("KKDDLLAAWWGGHH")
    base = peptide_report("".join(residues))
    for _ in range(20):
        rng.shuffle(residues)
        report = peptide_report("".join(residues))
        assert report.values[1:] == base.values[1:]


def test_unknown_residue_rejected():
    with pytest.raises(ContractError):
        peptide_report("KKLLZ")


def test_trackers_match_full_evaluation():
    rng = np.random.default_rng(2)
    constraints = peptide_constraints(SPEC, VOCAB)
    for _ in range(15):
        values = rng.integers(0, VOCAB.size, size=30)
        trackers = [c.tracker(values) for c in constraints]
        work = values.copy()
        for _ in range(60):
            pos = int(rng.integers(30))
            token = int(rng.integers(VOCAB.size))
            probe = work.copy()
            probe[pos] = token
            for tr, expected in zip(trackers, naive_report(probe)):
                assert tr.peek_block([pos], VOCAB.size)[0, token] == expected
            if rng.random() < 0.4:
                for tr in trackers:
                    tr.commit(pos, token)
                work[pos] = token
                for tr, expected in zip(trackers, naive_report(work)):
                    assert tr.value() == expected


def test_tracker_blocks_match_scalar_peeks():
    """Each block entry equals the naive recount of that one edited peptide."""
    rng = np.random.default_rng(3)
    constraints = peptide_constraints(SPEC, VOCAB)
    for _ in range(10):
        values = rng.integers(0, VOCAB.size, size=20)
        positions = np.arange(20)
        blocks = [c.tracker(values).peek_block(positions, VOCAB.size) for c in constraints]
        for i in range(20):
            for token in range(VOCAB.size):
                edited = values.copy()
                edited[i] = token
                expected = naive_report(edited)
                for block, nu in zip(blocks, expected):
                    assert block[i, token] == nu


def test_terminator_edits_change_length_scope():
    # KKKKKKKKKK-LLLL... : removing the terminator pulls the tail into scope
    values = tokens("KKKKKKKKKK", slots=15)
    values[11:] = VOCAB.index("L")
    constraints = peptide_constraints(SPEC, VOCAB)
    length = constraints[0]
    tracker = length.tracker(values)
    assert tracker.value() == 0.0
    # placing an earlier terminator shortens the peptide below the window
    assert tracker.peek_block([4], VOCAB.size)[0, TERM] == 6.0
    # replacing the terminator with a residue extends to the next one (none -> 15)
    assert tracker.peek_block([10], VOCAB.size)[0, VOCAB.index("A")] == 0.0


def test_empty_peptide():
    report = peptide_report("")
    assert report.values[0] == 10.0
    assert report.values[2] == pytest.approx(0.30)


@pytest.mark.parametrize("fields", [
    {"hydro_min": "a"}, {"hydro_min": float("nan")}, {"hydro_min": 1.5},
    {"hydro_min": np.array([0.3, 0.4])},
    {"charge_min": None}, {"charge_max": 2.5}, {"charge_min": 5, "charge_max": 4},
    {"min_length": 60, "max_length": 5}, {"min_length": -1}, {"max_length": True},
], ids=["hydro-text", "hydro-nan", "hydro-above-one", "hydro-array", "charge-none",
        "charge-fraction", "charge-window", "length-window", "length-negative",
        "length-bool"])
def test_peptide_spec_rejects_malformed_thresholds(fields):
    # text and None failed only at scoring, NaN as a NaN violation, and an
    # empty window was accepted
    with pytest.raises(ConfigError):
        PeptideSpec(**fields)


def test_peptide_spec_residue_sets_are_constants():
    # as fields, PeptideSpec(positive=5) built and failed only at scoring
    assert [f.name for f in dataclasses.fields(PeptideSpec)] == [
        "min_length", "max_length", "charge_min", "charge_max", "hydro_min"]
    spec = PeptideSpec(min_length=5)
    assert (spec.hydrophobic, spec.positive, spec.negative) == (HYDROPHOBIC, POSITIVE, NEGATIVE)
    with pytest.raises(TypeError):
        PeptideSpec(positive=frozenset("K"))


def test_peptide_spec_accepts_negative_charge_bounds():
    spec = PeptideSpec(charge_min=-3, charge_max=-1, hydro_min=0)
    report = aggregate_violation(VOCAB.parse("DE" + TERMINATOR),
                                 peptide_constraints(spec, VOCAB))
    assert report.values[1] == 0.0  # net charge -2 lies inside [-3, -1]
