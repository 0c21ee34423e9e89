"""Exception types and the argument rules every public entry point applies."""

import numpy as np


def is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool, which reads as 0 or 1."""
    return type(value) is not bool and isinstance(value, (int, np.integer))


class ConfigError(ValueError):
    """Invalid configuration value or inconsistent setup."""


class ContractError(ValueError):
    """An argument violates a documented precondition."""


class DenoiserContractError(ContractError):
    """Denoiser output failed validation against the interface contract."""


class ParseError(ValueError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GenerationError(RuntimeError):
    """Instance generator exhausted its rejection budget."""


class SampleError(RuntimeError):
    """A reverse-sampling run aborted; the cause carries the failing step."""


def check_count(value, what: str, low: int = 0, high: int | None = None,
                error: type[ValueError] = ConfigError):
    """``value``, unless it is not an integer (:func:`is_integer`) in
    ``[low, high)``: then ``error`` naming ``what``. ``high=None`` leaves the
    top open. Every count, size, step and index argument goes through here."""
    if not is_integer(value) or value < low or (high is not None and value >= high):
        span = f"of at least {low}" if high is None else f"in [{low}, {high})"
        raise error(f"{what} must be an integer {span}, got {value!r}")
    return value


def check_integers(values, what: str, bound: int | None = None,
                   error: type[ValueError] = ContractError) -> np.ndarray:
    """``values`` as int64, unless they are not integers in ``range(bound)``
    (``None`` tests the dtype only): then ``error`` naming ``what``. An empty
    array passes whatever its dtype: numpy reads ``[]`` as float."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise error(f"{what} must be integers, got {values.dtype}")
    values = values.astype(np.int64, copy=False)
    # one reduction: read as unsigned, negative integers exceed every bound
    if bound is not None and values.size and values.view(np.uint64).max() >= bound:
        raise error(f"{what} outside range({bound})")
    return values
