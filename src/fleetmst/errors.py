"""Exception hierarchy shared by all fleetmst modules."""


class GraphError(Exception):
    """Base class for every error raised by this package."""


class IdOutOfRange(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class NonPositiveWeight(GraphError):
    pass


class InvalidWeight(GraphError):
    """Weight is not an exact decimal (e.g. a binary float or 1/3)."""


class ParseError(GraphError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NotASpanningForest(GraphError):
    """A claimed forest failed a structure check; ``problem`` names it."""

    def __init__(self, problem: str):
        super().__init__(problem)
        self.problem = problem


class TooLarge(GraphError):
    pass


class TooManyEdges(GraphError):
    pass


class InvalidSize(GraphError, ValueError):
    """A generator size out of range, such as a lattice side below 2."""


class IsolatedNode(GraphError):
    pass


class InconsistentModel(GraphError):
    pass


class NoProgress(GraphError):
    """A merge round made no progress; indicates an implementation bug."""
