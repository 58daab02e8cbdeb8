"""Exception hierarchy shared by all solver modules."""


class MpgError(Exception):
    """Base class for all errors raised by this package."""


class ArenaFormatError(MpgError):
    """Malformed arena text or invalid game graph.

    ``line`` is 1-based, ``column`` 1-based; both are 0 when the error is
    not tied to a source position (e.g. programmatic construction).
    """

    def __init__(self, message, line=0, column=0):
        self.line = line
        self.column = column
        if line:
            message = "line %d, col %d: %s" % (line, column, message)
        super().__init__(message)


class MaskError(MpgError):
    """A subgame mask is invalid for its arena (coverage or arc sets)."""


class StrategyError(MpgError):
    """A positional strategy does not fit its arena (length or arcs)."""


class NotNuValuedError(MpgError):
    """The arena handed to the enumeration is not everywhere nu-valued."""


class OracleBoundError(MpgError):
    """The brute-force oracle would exceed its strategy-count budget."""


class InternalError(MpgError):
    """An internal consistency check failed; indicates a bug, not bad input."""
