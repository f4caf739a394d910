"""Exception hierarchy shared across the toolkit.

DataError subclasses map to CLI exit code 2, NumericError subclasses to
exit code 3. Usage problems (unknown, missing or misplaced flags) are raised
as UsageError by the CLI itself and map to exit code 1. A bad training-option
value is a BadValueError (exit 2), from a flag or a config file alike; its
message names the flag (--dim) or the file's path:line.
"""


class SymkgeError(Exception):
    """Base class for all toolkit errors."""


class UsageError(SymkgeError):
    """Bad command line or programmatic call."""


class DataError(SymkgeError):
    """Problem with input data, files, or configuration."""


class NumericError(SymkgeError):
    """Numerical failure during training or loss evaluation."""


class EmptyDatasetError(DataError):
    """No triples found where at least one was required."""


class MalformedTripleError(DataError):
    """A triple row did not have exactly three non-empty fields."""


class HopBoundExceededError(DataError):
    """Requested hop bound outside the supported range 1..3."""


class CorruptDictFileError(DataError):
    """Positive-dictionary file failed magic/version/checksum validation."""


class CorruptCheckpointError(DataError):
    """Checkpoint file failed magic/version/checksum validation."""


class KMismatchError(DataError):
    """Positive dictionary was mined with a different hop bound than requested."""


class UnknownEntityError(DataError):
    """Entity id outside the embedding table or graph."""


class SingleClassError(DataError):
    """Probe training data contains a single class."""


class DimMismatchError(DataError):
    """Vectors, or probe weights and an embedding table, disagree on dimensionality."""


class InsufficientSamplesError(DataError):
    """A statistical test needs at least two values per sample."""


class UnknownKeyError(DataError):
    """Unrecognized key in a config file."""


class BadValueError(DataError):
    """A value, from a flag or a file, could not be parsed or is out of range."""


class DegenerateVectorError(NumericError):
    """An embedding vector collapsed to (near-)zero norm."""


class NonFiniteTableError(NumericError):
    """Embedding table holds NaN or infinite values, or its scores overflow."""


class NonFiniteLossError(NumericError):
    """Loss became NaN or infinite; carries the offending epoch/batch."""

    def __init__(self, message: str, epoch: int | None = None, batch_index: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.batch_index = batch_index
