"""Exception types shared across the package.

Every error raised on purpose derives from RaftLabError so callers can
distinguish deliberate contract violations from genuine bugs.
"""


class RaftLabError(Exception):
    """Base class for all deliberate failures in this package."""


class ShapeError(RaftLabError):
    """Operand shapes do not satisfy an operation's contract."""


class DomainError(RaftLabError):
    """A value lies outside the mathematical domain of an operation."""


class DegenerateRepresentationError(RaftLabError):
    """A row that must be normalizable has vanishing norm."""


class EmptyBatchError(RaftLabError):
    """A reduction over the batch axis received zero rows."""


class InsufficientBatchError(RaftLabError):
    """An operation needs more batch rows than it was given."""


class NearOrthogonalError(RaftLabError):
    """A stop-gradient rescaling factor is too close to zero to divide by."""


class ContractError(RaftLabError):
    """A documented precondition of an internal API was violated."""


class ConfigError(RaftLabError):
    """A configuration value is invalid; the message names the field."""


class FormatError(RaftLabError):
    """Bytes on disk do not match the declared file format."""


class EvalError(RaftLabError):
    """An evaluation routine received data it cannot score."""


class SingularMomentError(RaftLabError):
    """A second-moment matrix is numerically singular."""


class TrainingDivergedError(RaftLabError):
    """The training loss became non-finite.

    Carries the step index and, when ``train_run`` had an output
    directory, the path of the diagnostic dump it wrote.
    """

    def __init__(self, message: str, step: int, dump_path=None):
        super().__init__(message)
        self.step = step
        self.dump_path = dump_path
