"""Exception hierarchy shared across the toolkit."""


class KadlabError(Exception):
    """Base class for all toolkit errors."""


class ParseError(KadlabError):
    """Syntax error in a term, test expression, program or data file."""

    def __init__(self, message, *, line=None, column=None, source=None):
        self.message = message
        self.line = line
        self.column = column
        self.source = source
        where = "".join(f"{part}:" for part in (source, line, column)
                        if part is not None)
        super().__init__(f"{where} {message}" if where else message)


class SortError(KadlabError):
    """A term uses complement on a subterm that is not test-sorted."""


class ModelError(KadlabError):
    """Malformed or inconsistent algebra/model data."""


class MissingTableError(ModelError):
    """An operation was requested that the algebra has no table for."""


class EvalError(KadlabError):
    """Term evaluation failed (unbound variable, non-test complement, ...)."""


class BoundError(KadlabError):
    """A size/enumeration bound was exceeded."""
