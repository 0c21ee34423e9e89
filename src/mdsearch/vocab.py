"""Alphabets, token sequences, and the editable region.

Sequences are plain numpy integer arrays whose entries are either token ids
(dense ``0 .. size-1``) or the reserved ``mask_id == size``. All functions
here are pure: inputs are never mutated.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ContractError, check_count, check_integers, check_sequence

MASK_CHAR = "?"


@dataclass(frozen=True)
class Vocab:
    """Finite ordered alphabet of generable tokens plus a reserved mask id."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not (isinstance(self.symbols, tuple)
                and all(isinstance(s, str) and s for s in self.symbols)):
            raise ConfigError(f"vocabulary symbols {self.symbols!r} must be a tuple of "
                              "non-empty strings")
        if not self.symbols:
            raise ConfigError("vocabulary must contain at least one token")
        if len(set(self.symbols)) != len(self.symbols):
            raise ConfigError("vocabulary symbols must be unique")
        if MASK_CHAR in self.symbols:
            raise ConfigError(f"{MASK_CHAR!r} is reserved for masked positions")

    @cached_property
    def size(self) -> int:
        return len(self.symbols)

    @cached_property
    def mask_id(self) -> int:
        """Reserved id one past the generable range; never a sample value."""
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise KeyError(f"unknown symbol {symbol!r}") from None

    def render(self, values: np.ndarray) -> str:
        """Sequence as a symbol string, masked positions shown as ``?``."""
        values = check_sequence(values, "values", self.mask_id + 1)
        symbols = self.symbols + (MASK_CHAR,)
        return "".join(symbols[v] for v in values.tolist())

    def parse(self, text: str) -> np.ndarray:
        """Inverse of :meth:`render` for single-character alphabets."""
        if any(len(s) != 1 for s in self.symbols):
            raise ConfigError("parse requires single-character symbols")
        lookup = {s: i for i, s in enumerate(self.symbols)}
        lookup[MASK_CHAR] = self.mask_id
        try:
            return np.array([lookup[ch] for ch in text], dtype=np.int64)
        except KeyError as exc:
            raise ContractError(f"unknown symbol {exc.args[0]!r}") from None


@dataclass(frozen=True)
class EditableRegion:
    """Positions the sampler may write; the complement stays frozen forever."""

    length: int
    editable: frozenset[int]

    def __post_init__(self):
        check_count(self.length, "region length", 1)
        if not isinstance(self.editable, frozenset):
            raise ConfigError(f"editable positions {self.editable!r} must be a frozenset")
        for p in self.editable:
            check_count(p, "editable position", 0, self.length)

    @classmethod
    def all_editable(cls, length: int) -> "EditableRegion":
        return cls.with_frozen(length, frozenset())

    @classmethod
    def with_frozen(cls, length: int, frozen: Iterable[int]) -> "EditableRegion":
        """The region of ``length`` positions less ``frozen``, any iterable of
        positions (an array too)."""
        check_count(length, "region length", 1)
        if frozen is None:
            raise ConfigError("frozen positions must be an iterable of positions, got None")
        for p in frozen:
            check_count(p, "frozen position", 0, length)
        return cls(length, frozenset(range(length)) - frozenset(frozen))

    @cached_property
    def positions(self) -> tuple[int, ...]:
        """Editable positions in ascending order (the canonical scan order)."""
        return tuple(sorted(self.editable))

    @cached_property
    def frozen(self) -> tuple[int, ...]:
        return tuple(p for p in range(self.length) if p not in self.editable)


def fully_masked(region: EditableRegion, mask_id: int,
                 frozen_values: np.ndarray | None = None) -> np.ndarray:
    """Initial latent state: mask everywhere editable, frozen values elsewhere.

    Frozen values must be tokens, in ``range(mask_id)``, else :class:`ConfigError`."""
    length = region.length
    out = np.empty(length, dtype=np.int64)
    out.fill(mask_id)
    if region.frozen:
        if frozen_values is None:
            raise ConfigError("frozen positions present but no frozen values given")
        frozen_values = check_integers(frozen_values, "frozen values", error=ConfigError)
        if frozen_values.shape != (length,):
            raise ConfigError(
                f"frozen values have shape {frozen_values.shape}, expected ({length},)")
        idx = np.array(region.frozen)
        out[idx] = check_integers(frozen_values[idx], "frozen values", mask_id, ConfigError)
    return out


def masked_positions(values: np.ndarray, mask_id: int) -> np.ndarray:
    """Indices currently holding the mask id, in ascending order."""
    return (np.asarray(values) == mask_id).ravel().nonzero()[0]

