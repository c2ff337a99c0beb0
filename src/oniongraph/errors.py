"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: UsageError -> 1, DataError -> 2,
anything else -> 3.
"""

from contextlib import contextmanager


class OnionGraphError(Exception):
    """Base class for errors raised by this package."""


class UsageError(OnionGraphError):
    """The caller asked for something incoherent (wrong graph kind, mismatched inputs)."""


class DataError(OnionGraphError):
    """The input data violates a precondition (bad records, empty graph, thin tail)."""


class ParseError(DataError):
    """A malformed input line; carries the 1-based line number and the
    source (a file name) when known."""

    def __init__(self, message, line_no=None, source=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        if source is not None:
            message = f"{source}: {message}"
        super().__init__(message)
        self.line_no = line_no
        self.source = source


@contextmanager
def open_input(path, newline=None):
    """Open input file `path` as UTF-8 text for the `with` block, in which a
    byte that does not decode (also read by a generator) is a ParseError naming
    the file and its 1-based line, found by reading the bytes again."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            with open(path, "rb") as raw:
                data = raw.read()
            try:  # the reader decodes in order, so it failed at the first bad byte
                data.decode("utf-8")
            except UnicodeDecodeError as first:
                exc = first
            line_no = len((exc.object[: exc.start] + b".").splitlines())  # lines end at \n, \r, \r\n
            bad = exc.object[exc.start : exc.end].hex(" ")
            raise ParseError(f"byte {bad} is not UTF-8 ({exc.reason})", line_no, path) from None


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
