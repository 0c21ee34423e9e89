import numpy as np
import pytest

from mdsearch.constraints.base import Constraint
from mdsearch.errors import ContractError
from mdsearch.search import aggregate_violation, refine
from mdsearch.vocab import EditableRegion, Vocab


class Fixed(Constraint):
    def __init__(self, name, value):
        self.name = name
        self._value = value

    def _violations(self, values):
        return np.full(len(values), self._value)


def test_weighted_sum_examples():
    values = np.zeros(3, dtype=np.int64)
    report = aggregate_violation(values, (Fixed("a", 2.0), Fixed("b", 3.0)))
    assert report.total == 5.0
    report = aggregate_violation(values, (Fixed("a", 7.0), Fixed("b", 0.0)),
                                 weights=(0.0, 1.0))
    assert report.total == 0.0
    assert not report.feasible  # zero-weighted violation still infeasible


def test_feasibility_is_zero_vector():
    values = np.zeros(1, dtype=np.int64)
    assert aggregate_violation(values, (Fixed("a", 0.0),)).feasible
    assert not aggregate_violation(values, (Fixed("a", 0.5),)).feasible


def test_weight_arity_checked():
    with pytest.raises(ContractError):
        aggregate_violation(np.zeros(1), (Fixed("a", 1.0),), weights=(1.0, 2.0))
    # one weight, nested: the message names its shape, not its size
    with pytest.raises(ContractError, match=r"weights of shape \(1, 1\) for 1 constraints"):
        aggregate_violation(np.zeros(1), (Fixed("a", 1.0),), weights=[[1.0]])


def test_negative_violation_rejected():
    with pytest.raises(ContractError):
        aggregate_violation(np.zeros(1), (Fixed("a", -1.0),))


def test_negative_violation_of_a_valid_candidate_rejected():
    # integer tokens pass the input check, so only the sign check can fire
    with pytest.raises(ContractError, match="non-negative"):
        aggregate_violation(np.zeros(1, dtype=np.int64), (Fixed("a", -1.0),))


def test_full_recompute_tracker_consistency():
    class CountOnes(Constraint):
        name = "ones"

        def _violations(self, values):
            return (values == 1).sum(axis=1).astype(np.float64)

    values = np.array([0, 1, 1, 0])
    tracker = CountOnes().tracker(values)
    assert CountOnes._rebuild is Constraint._rebuild
    assert CountOnes._peek_block is Constraint._peek_block
    assert tracker.value() == 2.0
    assert tracker.peek_block([0], 2).tolist() == [[2.0, 3.0]]
    assert tracker.value() == 2.0  # peek_block must not mutate
    tracker.commit(0, 1)
    assert tracker.value() == 3.0


class BadOnOneEdit(Constraint):
    """Three bits scored by their zeros, except ``bad`` on ``1 1 0``."""

    name = "bad-on-one-edit"
    alphabet = 2

    def __init__(self, bad):
        self.bad = bad

    def _violations(self, values):
        nu = (values == 0).sum(axis=1).astype(np.float64)
        nu[(values == [1, 1, 0]).all(axis=1)] = self.bad
        return nu


@pytest.mark.parametrize("bad", [np.nan, -1.0])
def test_nan_or_negative_output_is_refused_at_every_entry(bad):
    # NaN passed the batch scorer, whose (nu < 0).any() is False for NaN, and the
    # full-recompute tracker checked no output at all
    zeros = np.zeros(3, dtype=np.int64)
    with pytest.raises(ContractError, match="non-negative"):
        aggregate_violation(zeros, (Fixed("a", bad),))
    with pytest.raises(ContractError, match="non-negative"):
        Fixed("a", bad).tracker(zeros)
    start = np.array([1, 0, 0])
    tracker = BadOnOneEdit(bad).tracker(start)
    assert tracker.value() == 2.0
    with pytest.raises(ContractError, match="non-negative"):
        tracker.peek_block([1], 2)
    # with NaN in its block, argmin picked the NaN cell and refinement
    # stopped at once, although setting bit 2 improves
    with pytest.raises(ContractError, match="non-negative"):
        refine(start, (BadOnOneEdit(bad),), None, Vocab(("0", "1")),
               EditableRegion.all_editable(3), None)


def test_violations_of_the_wrong_shape_are_refused():
    class OneTooMany(Constraint):
        def _violations(self, values):
            return np.zeros(len(values) + 1)

    with pytest.raises(ContractError, match="shape"):
        OneTooMany().violations(np.zeros((2, 3), dtype=np.int64))
