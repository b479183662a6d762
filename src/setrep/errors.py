"""Exception types shared across the package."""


class SetrepError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(SetrepError, ValueError):
    """The edge-list text is malformed (bad header, counts, or tokens)."""


class SelfLoopError(GraphFormatError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphFormatError):
    """The same unordered pair appears more than once."""


class InvalidCoverError(SetrepError, ValueError):
    """A clique list fails to be an edge clique cover of its graph."""


class NoPlaneExists(SetrepError, LookupError):
    """No projective plane of the requested order exists (orders 6 and 10)."""


class NoSuchPlaneConstruction(SetrepError, LookupError):
    """The requested order is outside the range this package can build."""


class TheoremNotApplicable(SetrepError, ValueError):
    """The input graph is outside the hypotheses of the requested result."""
