"""Semantic exception hierarchy shared by all symrank modules."""


def _shown(value) -> str:
    """An input value as an error message quotes it: its ``repr``, or for a
    value over 60 characters its first 60 characters and its length."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 60:
        return repr(value)
    head = repr(text[:60]) if isinstance(value, str) else text[:60]
    return f"{head}... ({len(text)} characters)"


class SymrankError(ValueError):
    """Base class for all contract violations raised by this package; the
    command line returns ``exit_code`` for it (1: runtime or method failure)."""

    exit_code = 1


class UsageError(SymrankError):
    """Input or a request that the caller must change (exit code 2)."""

    exit_code = 2


class ConfigError(UsageError):
    """An experiment config has an unknown or missing key, or a value out of range."""


# -- dataset construction ------------------------------------------------

class TiesInResponse(UsageError):
    """The response vector contains exact duplicates."""


class DimensionMismatch(UsageError):
    """Array shapes disagree with the declared layout."""


class NonFiniteData(UsageError):
    """An input array contains NaN or infinite entries."""


# -- rank statistics -----------------------------------------------------

class LengthMismatch(SymrankError):
    """Paired vectors have different lengths."""


# -- partitions ----------------------------------------------------------

class EmptySide(SymrankError):
    """A 2-partition side is empty."""


class SizeOutOfRange(UsageError):
    """Requested group size violates the operation's size hypothesis."""


class TooLarge(UsageError):
    """Input exceeds the combinatorial guard for exhaustive search."""


# -- trees ---------------------------------------------------------------

class Unsplittable(SymrankError):
    """Node admits no split (constant response or no admissible threshold)."""


class ColumnMismatch(SymrankError):
    """Prediction input width or column names differ from the tree's training
    columns."""


# -- piecewise monotone transforms ----------------------------------------

class DomainMismatch(UsageError):
    """Two transforms are defined on different domains."""


class NotMonotone(UsageError):
    """A declared-monotone segment failed the construction spot check."""


class MergeableSegments(UsageError):
    """Adjacent segments continue monotonically and should be one segment."""


class IntervalSpansBreakpoint(SymrankError):
    """The query interval crosses a segment boundary."""


class CaseThreePresent(SymrankError):
    """Both transforms have a pre-image on some refined interval."""


# -- symbolic feature generation ------------------------------------------

class PartialOperatorDomain(SymrankError):
    """A partial operator (e.g. division) left its domain on the data."""


# -- selection evaluation --------------------------------------------------

class KTooLarge(UsageError):
    """Requested selection size exceeds the number of features."""


class NoPositives(SymrankError):
    """Ground truth contains no positive labels."""


class SizeMismatch(SymrankError):
    """A repeat selection does not have the declared size."""
