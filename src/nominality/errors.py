"""Exception hierarchy.

Three families: settings that break a rule of :mod:`nominality.config`
(:class:`ConfigError`, a synthetic-data spec included), data problems (bad
files, bad shapes, degenerate label vectors) and numeric failures (diverging
optimization, singular systems).  The CLI maps these onto exit codes 2, 3
and 4; :func:`decoding` makes a run file that will not decode a :class:`DataError`, and
:func:`shown` bounds the input values a message quotes.  This module imports no other
module of the package, so every module, ``config`` included, can import it.
"""

from __future__ import annotations

import contextlib
import reprlib
import zipfile

SHOWN = 200  # the most characters of an input value that a message quotes
_REPR = reprlib.Repr()  # cuts that no repr of at most SHOWN characters reaches
_REPR.maxlevel = _REPR.maxtuple = _REPR.maxlist = _REPR.maxdict = _REPR.maxset = SHOWN // 2
_REPR.maxstring = _REPR.maxlong = _REPR.maxother = 2 * SHOWN + 3


def shown(value, quote: bool = True) -> str:
    """``repr(value)``, or the text ``value`` if not ``quote`` (a path), whole if it has at most
    :data:`SHOWN` characters, else cut there by ``reprlib`` and followed by the value's length."""
    text = _REPR.repr(value) if quote else value
    if len(text) <= SHOWN:
        return repr(value) if quote else value  # reprlib sorts a dict's keys; repr keeps them
    if isinstance(value, (list, tuple, dict, set)):
        return f"{text[:SHOWN]}... ({len(value)} items)"
    return f"{text[:SHOWN]}... ({len(value if isinstance(value, str) else repr(value))} characters)"


class NominalityError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(NominalityError):
    """Invalid or inconsistent configuration."""


class DataError(NominalityError):
    """Base class for problems with input data."""


class ParseError(DataError):
    """A CSV cell or row could not be parsed.

    Attributes:
        row: zero-based index of the offending data row, if known.
    """

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class LabelError(DataError):
    """A label value is not 0 or 1, or the label column is unusable."""


class EmptyInput(DataError):
    """An input that must be non-empty was empty."""


class ShapeError(DataError):
    """Array dimensions do not match what an operation requires."""


class NonFiniteValue(ShapeError):
    """A series value is not finite, such as a downsampled or scaled value that overflowed.

    Attributes:
        row: zero-based index of the first row that holds such a value.
    """

    def __init__(self, message: str, row: int) -> None:
        super().__init__(message)
        self.row = row


class DegenerateLabels(DataError):
    """Labels contain only one class, so threshold metrics are undefined."""


class NumericError(NominalityError):
    """Base class for numeric failures."""


class TrainingDiverged(NumericError):
    """Training loss became non-finite.

    Attributes:
        epoch: zero-based epoch at which divergence was detected.
    """

    def __init__(self, message: str, epoch: int) -> None:
        super().__init__(message)
        self.epoch = epoch


class SingularSystem(NumericError):
    """A linear system was singular; regularization may be required."""


@contextlib.contextmanager
def decoding(path: str, what: str, again: str = ""):
    """Raise a failure to decode ``path`` (``what``) in the block as :class:`DataError`
    ``<path>: cannot decode <what>: <shown(cause)><again>``: bad JSON, base64 or ``.npy`` bytes,
    a missing, mistyped or out-of-rule value, or nesting deeper than the decoder recurses."""
    try:
        yield
    except (ValueError, EOFError, zipfile.BadZipFile, KeyError, TypeError, AttributeError,
            ConfigError, ShapeError, RecursionError) as exc:
        raise DataError(f"{path}: cannot decode {what}: {shown(exc)}{again}") from None
