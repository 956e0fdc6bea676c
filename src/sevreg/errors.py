"""Exception types shared across the package."""


class SevregError(Exception):
    """Base class for all package errors."""


class ParameterError(SevregError, ValueError):
    """A hyperparameter or argument is outside its allowed range."""


class DimensionError(SevregError, ValueError):
    """Array shapes disagree with what an operation requires."""


class EmptyInputError(SevregError, ValueError):
    """An operation received an empty sequence where T >= 1 is required."""


class TrainingDivergedError(SevregError, RuntimeError):
    """A training loss became NaN/Inf; carries the loss history so far."""

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = history or []


class FeatureFormatError(SevregError, ValueError):
    """A feature or checkpoint file is malformed; `offset` is the failing byte,
    or None when no byte offset applies."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


class PartitionError(SevregError, ValueError):
    """A corpus cannot be split as requested."""


class MergeError(SevregError, ValueError):
    """Corpora cannot be merged (duplicate utterance ids, bad provenance)."""


class MappingError(SevregError, ValueError):
    """Utterance scores and their speakers do not pair up."""


class DegenerateCorrelationError(SevregError, ValueError):
    """A correlation is undefined (constant input on one side)."""


class TransferError(SevregError, ValueError):
    """Checkpoint weights do not fit the target model; lists offending layers."""

    def __init__(self, message: str, layers=None):
        super().__init__(message)
        self.layers = list(layers or [])


class ConfigError(SevregError, ValueError):
    """A run configuration failed validation."""
