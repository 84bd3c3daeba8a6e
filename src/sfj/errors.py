"""Exception hierarchy shared across the package."""


class SFJError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(SFJError):
    """A graph file could not be parsed (malformed JSON or wrong structure)."""


class GraphValidationError(SFJError):
    """A structurally valid graph violates a model invariant."""


class NoStubbornAgents(SFJError):
    """The network has no stubborn agent; none of the analyses apply."""


class UnreachableNodes(SFJError):
    """Some non-stubborn agents have no path from any stubborn agent."""

    def __init__(self, nodes):
        self.nodes = frozenset(nodes)
        super().__init__(
            f"non-stubborn agents unreachable from every stubborn agent: "
            f"{sorted(self.nodes)}"
        )


class ConditionsNotMet(SFJError):
    """The coverage (C1) or cooperativity (C2) condition does not hold."""


class NotConverged(SFJError):
    """Iteration hit its step budget; carries the partial trace."""

    def __init__(self, trace, message="iteration did not converge"):
        self.trace = trace
        super().__init__(message)


class SingularSystem(SFJError):
    """The steady-state solve is not certified: there is no stubborn agent,
    or some agent no stubborn agent reaches."""


class SingularBlock(SFJError):
    """The block to be eliminated in a Schur complement is not invertible."""


class HypothesisViolated(SFJError):
    """A persuaded agent has a negative in-edge, voiding the cluster guarantee."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        detail = ", ".join(f"{src}->{dst}" for src, dst in self.violations)
        super().__init__(f"negative in-edges at persuaded agents: {detail}")


class InfeasibleParameters(SFJError):
    """No network with the requested shape exists."""
