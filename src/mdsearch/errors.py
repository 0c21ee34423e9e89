"""Exception types and the integer rule shared across the package."""

import numpy as np


def is_integer(value) -> bool:
    """True for a Python or numpy integer, and False for a bool, which would
    read as 0 or 1; every count, size and index check applies this rule."""
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
