"""Exception hierarchy shared across the package.

Every rejected input raises a structured error instead of being clamped or
silently corrected, so callers (and the CLI exit-code mapping) can tell the
failure classes apart.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class EviMmdError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(EviMmdError, ValueError):
    """An argument or field violates a documented precondition/invariant."""


class UnsupportedOperationError(EviMmdError, TypeError):
    """The requested combination of inputs is not supported (e.g. a
    density-branch cross term with a non-Gaussian kernel)."""


class NumericalFailureError(EviMmdError, RuntimeError):
    """A numerical routine hit a non-finite value.

    Carries the last finite iterate, and for outer-loop failures the partial
    run record accumulated so far, so callers can salvage partial results.
    ``run_experiment`` writes that record and sets ``partial_record_path``,
    or ``partial_record_error`` to the error the write raised.
    """

    def __init__(
        self,
        message: str,
        last_iterate: Optional[np.ndarray] = None,
        partial_record=None,
    ):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.partial_record = partial_record
        self.partial_record_path: Optional[str] = None
        self.partial_record_error: Optional[Exception] = None


class ConfigError(EviMmdError, ValueError):
    """A configuration document failed parsing or validation.

    ``field`` names the offending key when known.
    """

    def __init__(self, message: str, field: Optional[str] = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class DatasetError(EviMmdError, ValueError):
    """A CSV dataset is malformed. ``row`` is the 1-based offending line."""

    def __init__(self, message: str, row: Optional[int] = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row
