"""Exception hierarchy shared across the package."""


class SFJError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(SFJError):
    """A graph file could not be parsed (malformed JSON or wrong structure)."""


class GraphValidationError(SFJError):
    """A structurally valid graph violates a model invariant."""


class ConditionsNotMet(SFJError):
    """A hypothesis of the multiconsensus guarantee fails (CLI exit 3)."""


class NoStubbornAgents(ConditionsNotMet):
    """The network has no stubborn agent; none of the analyses apply."""


class UnreachableNodes(ConditionsNotMet):
    """Some agents have no path from any stubborn agent. Detection counts
    beta > 0 and names non-stubborn agents only; the influence solve counts
    1 - beta < 1, so it may also name a stubborn agent whose beta rounds away."""

    def __init__(self, nodes):
        self.nodes = frozenset(nodes)
        super().__init__(f"agents unreachable from every stubborn agent: {sorted(self.nodes)}")


class NotConverged(SFJError):
    """Iteration hit its step budget; carries the partial trace."""

    def __init__(self, trace, message="iteration did not converge"):
        self.trace = trace
        super().__init__(message)


class SingularBlock(SFJError):
    """An SCC's block of I - (I - B) W is singular in floating point, in the
    level solve behind influence_matrix and sfj verify (CLI exit 3). Behind
    the solve's gate only rounding does this (a weight of 1e-20 next to 1)."""


class InfeasibleParameters(SFJError):
    """No network with the requested shape exists."""
