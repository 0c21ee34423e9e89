import numpy as np
import pytest

from mdsearch.constraints.sat import CnfFormula, satisfying_assignments
from mdsearch.constraints.sudoku import SudokuBoard, random_puzzle
from mdsearch.denoise import CorruptedDenoiser, ExactPosteriorDenoiser, TableDenoiser, UniformDenoiser
from mdsearch.errors import ConfigError
from mdsearch.tasks import (
    build_denoiser,
    exact_distribution,
    peptide_instance,
    sat_instance,
    sudoku_instance,
)
from mdsearch.vocab import fully_masked


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
    masked = inst.render(fully_masked(inst.region, inst.vocab.mask_id, inst.frozen_values))
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
