import numpy as np
import pytest

from mdsearch.errors import ConfigError, ContractError
from mdsearch.vocab import (
    EditableRegion,
    Vocab,
    masked_positions,
)

AB = Vocab(("A", "B", "C", "D"))


def test_vocab_basics():
    assert AB.size == 4
    assert AB.mask_id == 4
    assert AB.index("C") == 2
    assert AB.render(np.array([3, 4])) == "D?"
    for value in (-1, 5):
        with pytest.raises(ContractError):
            AB.render(np.array([value]))
    with pytest.raises(KeyError):
        AB.index("Z")


def test_vocab_validation():
    with pytest.raises(ConfigError):
        Vocab(())
    with pytest.raises(ConfigError):
        Vocab(("A", "A"))
    with pytest.raises(ConfigError):
        Vocab(("A", "?"))
    # a list could not be hashed as a denoiser table key, ints could not be
    # rendered, and an empty symbol rendered [0, 1] as "a"
    for symbols in (["0", "1"], (1, 2), ("", "a"), ("a", None), "ab"):
        with pytest.raises(ConfigError, match="tuple of non-empty strings"):
            Vocab(symbols)


def test_render_parse_roundtrip():
    seq = np.array([0, 4, 2, 1])
    assert AB.render(seq) == "A?CB"
    assert np.array_equal(AB.parse("A?CB"), seq)
    with pytest.raises(ContractError):
        AB.parse("AXB")
    with pytest.raises(ContractError):
        AB.render(np.array([9]))


def test_parse_needs_single_character_symbols():
    with pytest.raises(ConfigError, match="single-character"):
        Vocab(("AB", "C")).parse("AB")


def test_region_helpers():
    region = EditableRegion.with_frozen(4, {0, 2})
    assert region.positions == (1, 3)
    assert region.frozen == (0, 2)
    assert EditableRegion.all_editable(3).positions == (0, 1, 2)
    assert EditableRegion(3, frozenset({np.int64(1), np.uint8(2)})).frozen == (0,)
    assert EditableRegion.with_frozen(3, {np.int32(0)}).positions == (1, 2)
    assert EditableRegion.with_frozen(5, np.array([1, 2])).positions == (0, 3, 4)
    for frozen in (np.array([1, 5]), np.array([1.0, 2.0])):
        with pytest.raises(ConfigError, match="frozen position"):
            EditableRegion.with_frozen(5, frozen)
    with pytest.raises(ConfigError):
        EditableRegion(3, frozenset({5}))
    with pytest.raises(ConfigError):
        EditableRegion(0, frozenset())


def test_region_refuses_a_mutable_or_missing_container():
    # a list or set of editable positions was kept, so appending to it
    # afterwards changed the positions; it also made the region unhashable
    for editable in ([0, 1], {0, 1}, None):
        with pytest.raises(ConfigError, match="must be a frozenset"):
            EditableRegion(3, editable)
    with pytest.raises(ConfigError, match="frozen positions"):
        EditableRegion.with_frozen(3, None)
    region = EditableRegion(3, frozenset({0, 1}))
    assert hash(region) == hash(EditableRegion.with_frozen(3, [2]))


@pytest.mark.parametrize("frozen", [{5}, {3}, {-1}, {0, 7}])
def test_region_rejects_frozen_positions_outside_the_sequence(frozen):
    # a frozen position past the end was dropped without a word
    with pytest.raises(ConfigError, match="frozen"):
        EditableRegion.with_frozen(3, frozen)


@pytest.mark.parametrize("position", [1.5, 1.0, True, "1", None])
def test_region_refuses_positions_that_are_not_integers(position):
    # a position of 1.5 was kept as editable while position 1 counted as
    # frozen, so search overwrote the frozen value there
    with pytest.raises(ConfigError, match="editable position"):
        EditableRegion(3, frozenset({0, position}))
    with pytest.raises(ConfigError, match="frozen position"):
        EditableRegion.with_frozen(3, {position})


def test_masked_positions():
    m = AB.mask_id
    assert set(masked_positions(np.array([m, m, m]), m)) == {0, 1, 2}
    assert set(masked_positions(np.array([0, m, 1]), m)) == {1}
    assert masked_positions(np.array([0, 1, 2]), m).size == 0
