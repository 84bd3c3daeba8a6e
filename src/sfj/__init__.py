"""Multiconsensus analysis for signed directed influence networks.

The package answers three questions about a signed, weighted digraph of
stubborn and open-minded agents: which agents are topologically persuasive,
which opinion clusters must therefore form under the stubborn-anchored signed
update, and does the prediction survive both the direct influence solve and
iterative simulation under arbitrary reweighting.
"""

from .errors import (
    ConditionsNotMet,
    GraphFormatError,
    GraphValidationError,
    InfeasibleParameters,
    NoStubbornAgents,
    NotConverged,
    SFJError,
    SingularBlock,
    UnreachableNodes,
)
from .graph import (
    Edge,
    NormalizedSystem,
    SignedDigraph,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    normalize,
    save_graph,
)
from .ltp import (
    ClusterPrediction,
    LTPCertificate,
    Violation,
    analyze,
    build_dominator_tree,
    certificate_to_dict,
    detect_ltp_agents,
    predict_clusters,
)
from .dynamics import (
    OpinionTrace,
    influence_matrix,
    simulate,
)
from .verification import (
    RobustnessReport,
    TrialFailure,
    clusters_from_influence,
    clusters_from_trace,
    refines,
    robustness_harness,
)
from .generator import random_multiconsensus_graph
from . import networks

__version__ = "0.1.0"

__all__ = [
    "ClusterPrediction",
    "ConditionsNotMet",
    "Edge",
    "GraphFormatError",
    "GraphValidationError",
    "InfeasibleParameters",
    "LTPCertificate",
    "NormalizedSystem",
    "NoStubbornAgents",
    "NotConverged",
    "OpinionTrace",
    "RobustnessReport",
    "SFJError",
    "SignedDigraph",
    "SingularBlock",
    "TrialFailure",
    "UnreachableNodes",
    "Violation",
    "analyze",
    "build_dominator_tree",
    "certificate_to_dict",
    "clusters_from_influence",
    "clusters_from_trace",
    "detect_ltp_agents",
    "graph_from_dict",
    "graph_to_dict",
    "influence_matrix",
    "load_graph",
    "networks",
    "normalize",
    "predict_clusters",
    "random_multiconsensus_graph",
    "refines",
    "robustness_harness",
    "save_graph",
    "simulate",
]
