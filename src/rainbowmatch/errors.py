"""Exception types shared across the toolkit."""


class Error(Exception):
    """Base class for every toolkit error."""


class LoopEdge(Error):
    """An edge joins a vertex to itself."""


class DuplicateEdge(Error):
    """Two edges share the same vertex pair."""


class ImproperColoring(Error):
    """Two edges sharing a vertex carry the same colour."""

    def __init__(self, first, second):
        self.first = tuple(first)
        self.second = tuple(second)
        super().__init__(
            f"edges {self.first} and {self.second} share a vertex and colour {self.first[2]}"
        )


class UnknownEdge(Error):
    """A matching references an edge absent from the host graph."""


class ParseError(Error):
    """Malformed graph or square input."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BudgetExceeded(Error):
    """A search exhausted its node budget before finishing."""


class WrongWitness(Error):
    """A solver's witness is not a rainbow matching of the size it reports."""


class InvalidState(Error):
    """Audit input does not describe a stuck matching state."""


class NotStuck(Error):
    """The rule engine reached its target, leaving nothing to audit."""


class NotCompleteBipartite(Error):
    """Graph is not a balanced complete bipartite graph."""


class WrongColourCount(Error):
    """Colour count differs from the bipartition side size."""


class OrderTooLarge(Error):
    """Square order exceeds the exact-enumeration limit."""


class InfeasibleDegree(Error):
    """Requested minimum degree is impossible for the vertex count."""
