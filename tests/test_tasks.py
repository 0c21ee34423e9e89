import numpy as np
import pytest

from mdsearch.constraints.sat import CnfFormula, satisfying_assignments
from mdsearch.constraints.sudoku import SudokuBoard, random_puzzle
from mdsearch.denoise import CorruptedDenoiser, ExactPosteriorDenoiser, TableDenoiser, UniformDenoiser
from mdsearch.diffusion import linear_schedule
from mdsearch.errors import ConfigError
from mdsearch.search import PLACEMENTS, SearchConfig, sample
from mdsearch.tasks import (
    Instance,
    build_denoiser,
    exact_distribution,
    peptide_instance,
    sat_instance,
    sudoku_instance,
)
from mdsearch.vocab import EditableRegion, Vocab, masked_positions

AB = Vocab(("A", "B", "C", "D"))
BIN = Vocab(("0", "1"))


def plain_instance(vocab, region, frozen_values=None):
    return Instance("plain", vocab, region, (), frozen_values)


def test_instance_start_all_editable():
    inst = plain_instance(AB, EditableRegion.all_editable(3))
    assert np.array_equal(inst.start, [4, 4, 4])


def test_instance_start_with_frozen():
    inst = plain_instance(AB, EditableRegion.with_frozen(3, {0}), np.array([0, 0, 0]))
    assert np.array_equal(inst.start, [0, 4, 4])


def test_instance_start_sat_shape():
    # assignment bits all editable; the formula lives outside the sequence
    inst = plain_instance(BIN, EditableRegion.all_editable(7))
    assert np.array_equal(inst.start, np.full(7, 2))


def test_instance_frozen_value_errors():
    region = EditableRegion.with_frozen(3, {0})
    with pytest.raises(ConfigError):
        plain_instance(AB, region)  # missing frozen values
    with pytest.raises(ConfigError):
        plain_instance(AB, region, np.array([0, 0]))
    # a frozen value is a token: -1 and mask_id + 1 were copied into the state
    for bad in (AB.mask_id, -1, AB.mask_id + 1):
        with pytest.raises(ConfigError):
            plain_instance(AB, region, np.array([bad, 0, 0]))


def test_instance_start_masks_the_editable_set():
    region = EditableRegion.with_frozen(5, {1, 4})
    inst = plain_instance(AB, region, np.array([0, 1, 0, 0, 2]))
    assert tuple(masked_positions(inst.start, AB.mask_id)) == region.positions


def test_instance_start_is_read_only():
    inst = plain_instance(AB, EditableRegion.with_frozen(3, {0}), np.array([1, 0, 0]))
    with pytest.raises(ValueError):
        inst.start[1] = 0
    assert inst.start.tolist() == [1, 4, 4]


def test_instance_start_keeps_its_values_when_the_caller_edits_theirs():
    values = np.array([1, 0, 0])
    inst = plain_instance(AB, EditableRegion.with_frozen(3, {0}), values)
    values[0] = 2
    assert inst.start.tolist() == [1, 4, 4]


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_all_given_board_samples_a_writeable_copy_of_the_board(placement):
    # every cell given: the chain may return the state it began from
    board = random_puzzle(2, 0, np.random.default_rng(0))
    inst = sudoku_instance(board)
    final, _ = sample(inst, UniformDenoiser(inst.vocab), linear_schedule(4),
                      SearchConfig(placement=placement), np.random.default_rng(1))
    assert final.flags.writeable and final is not inst.start
    assert np.array_equal(final, board.tokens())


def test_sat_instance_shape():
    f = CnfFormula(3, ((1, 2, 3),))
    inst = sat_instance(f)
    assert inst.length == 3
    assert inst.vocab.size == 2
    assert inst.region.frozen == ()
    assert inst.constraints[0].name == "clauses"
    assert inst.render(np.array([0, 1, 1])) == "011"


def test_sudoku_instance_freezes_givens():
    board = random_puzzle(2, 6, np.random.default_rng(0))
    inst = sudoku_instance(board)
    assert inst.length == 16
    frozen = np.array(inst.region.frozen)
    assert np.array_equal(np.sort(board.given_positions()), np.sort(frozen))
    tokens = board.tokens()
    assert np.array_equal(inst.frozen_values[frozen], tokens[frozen])
    solved = exact_distribution(inst).support[0]
    line = inst.render(solved)
    assert len(line) == 16 and "." not in line
    masked = inst.render(inst.start.copy())
    assert [i for i, ch in enumerate(masked) if ch == "?"] == list(inst.region.positions)


def test_peptide_instance_shape():
    inst = peptide_instance(slots=20)
    assert inst.length == 20
    assert inst.vocab.size == 21
    assert tuple(c.name for c in inst.constraints) == (
        "length", "charge", "hydrophobicity")
    term = inst.vocab.index("-")
    values = np.full(20, term, dtype=np.int64)
    values[:3] = [inst.vocab.index(ch) for ch in "KKL"]
    assert inst.render(values) == "KKL"
    with pytest.raises(ConfigError):
        peptide_instance(slots=0)


def test_exact_distribution_contents():
    f = CnfFormula(2, ((1, 2),))
    dist = exact_distribution(sat_instance(f))
    assert sorted(map(tuple, dist.support.tolist())) == sorted(
        map(tuple, satisfying_assignments(f).tolist()))
    with pytest.raises(ConfigError):
        exact_distribution(sat_instance(CnfFormula(1, ((1,), (-1,)))))
    with pytest.raises(ConfigError):
        exact_distribution(peptide_instance(slots=5))
    unsolvable = SudokuBoard(2, np.array([
        [1, 2, 3, 4],
        [3, 4, 1, 2],
        [2, 1, 4, 0],
        [4, 3, 2, 1],
    ]))
    # blanking one cell of a valid grid keeps it solvable
    assert exact_distribution(sudoku_instance(unsolvable)).support.shape[0] == 1


def test_build_denoiser_kinds(tmp_path):
    inst = sat_instance(CnfFormula(2, ((1, 2),)))
    assert isinstance(build_denoiser(inst, "uniform"), UniformDenoiser)
    assert isinstance(build_denoiser(inst, "exact"), ExactPosteriorDenoiser)
    noisy = build_denoiser(inst, "noisy", 0.25)
    assert isinstance(noisy, CorruptedDenoiser)
    assert noisy.epsilon == 0.25
    table = tmp_path / "t.tsv"
    table.write_text("??\t0\t0.5,0.5\n", encoding="utf-8")
    assert isinstance(build_denoiser(inst, f"table:{table}"), TableDenoiser)
    with pytest.raises(ConfigError):
        build_denoiser(inst, "magic")
