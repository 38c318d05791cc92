"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes, so keep the split stable:
UsageError -> 2, IndeterminateError -> 3, ParseError -> 4.
"""


class ChowformsError(Exception):
    """Base class for all library errors."""


class UsageError(ChowformsError):
    """A precondition of an operation was violated by the caller."""


class DegenerateError(ChowformsError):
    """A degenerate instance where the requested method cannot proceed
    (e.g. an identically vanishing Macaulay minor); a rescue path exists."""


class IndeterminateError(ChowformsError):
    """A Monte Carlo routine exhausted its retry budget without a verdict."""


class ParseError(ChowformsError):
    """Malformed problem file or polynomial expression."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}" + (f", col {column}" if column is not None else "") + f": {message}"
        super().__init__(message)


class InternalError(ChowformsError):
    """An invariant that should be unreachable was violated."""


def quote(token):
    """repr of an input token for an error message: a token longer than
    40 characters is cut to its first 40 and its length."""
    if len(token) <= 40:
        return repr(token)
    return f"{token[:40]!r}... ({len(token)} characters)"
