"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: UsageError -> 1, DataError -> 2,
anything else -> 3.
"""


class OnionGraphError(Exception):
    """Base class for errors raised by this package."""


class UsageError(OnionGraphError):
    """The caller asked for something incoherent (wrong graph kind, mismatched inputs)."""


class DataError(OnionGraphError):
    """The input data violates a precondition (bad records, empty graph, thin tail)."""


class ParseError(DataError):
    """A malformed input line; carries the 1-based line number when known."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class StageError(OnionGraphError):
    """A pipeline stage failed; wraps the original cause with the stage name."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        # rebuilt from (stage, cause), not from the formatted message, so a
        # StageError survives the pickle round trip of a worker process
        return type(self), (self.stage, self.cause)
