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
    try:
        values = np.asarray(values)
    except ValueError:  # ragged nesting
        raise error(f"{what} must be integers, got a ragged sequence") from None
    if values.size and values.dtype.kind not in "iu":
        raise error(f"{what} must be integers, got {values.dtype}")
    values = values.astype(np.int64, copy=False)
    # one reduction: read as unsigned, negative integers exceed every bound
    if (bound is not None and values.size
            and np.maximum.reduce(values.view(np.uint64), axis=None) >= bound):
        raise error(f"{what} outside range({bound})")
    return values


def check_sequence(values, what: str, bound: int) -> np.ndarray:
    """``values`` as one int64 sequence, unless it is not a 1-D array of
    integers in ``range(bound)``: then :class:`ContractError` naming ``what``.
    Every entry point that takes a token sequence calls it once, on entry:
    ``bound`` is the mask id plus one for a partially masked sequence, and
    the alphabet size for a fully specified candidate."""
    values = check_integers(values, what, bound)
    if values.ndim != 1:
        raise ContractError(f"{what} must be one sequence, got shape {values.shape}")
    return values


def check_reals(values, what: str, low: float | None = None, high: float | None = None,
                error: type[ValueError] = ConfigError) -> np.ndarray:
    """``values`` as float64, unless they are not finite numbers in ``[low, high]``
    (``None`` leaves that side open): then ``error`` naming ``what``. Only integer and
    float dtypes pass: a bool, text, None, a complex number or ragged nesting does not."""
    try:
        values = np.asarray(values)
    except ValueError:  # ragged nesting
        raise error(f"{what} must be real numbers, got a ragged sequence") from None
    if values.dtype.kind not in "iuf":
        raise error(f"{what} must be real numbers, got {values.dtype}")
    low, high = -np.inf if low is None else low, np.inf if high is None else high
    if not (np.logical_and.reduce(np.isfinite(values), axis=None)
            and np.logical_and.reduce(values >= low, axis=None)
            and np.logical_and.reduce(values <= high, axis=None)):
        raise error(f"{what} not finite or outside [{low}, {high}]: {values}")
    return values.astype(np.float64, copy=False)


def read_text(path, what: str) -> str:
    """The text of the input file ``path`` (UTF-8, universal newlines), unless it is
    missing, a directory or not UTF-8: then :class:`ConfigError` naming ``what``."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
