"""Build a signed influence network and look at its normalized weights.

A network is a list of agents (each with a stubbornness level and an initial
opinion) plus signed directed edges. Positive weight = cooperative influence,
negative = antagonistic. Run as: python demos/01_build_and_normalize.py
"""

import numpy as np

from sfj import SignedDigraph, UnreachableNodes, analyze, normalize
from sfj.graph import Edge

# Five agents. Agent 1 is fully stubborn, agent 2 mildly so. Agent 3 listens
# to 1 cooperatively and to 2 antagonistically; 4 and 5 form a short chain.
g = SignedDigraph(
    n=5,
    edges=(
        Edge(1, 3, 2.0),
        Edge(2, 3, -1.0),
        Edge(3, 4, 1.0),
        Edge(4, 5, 0.5),
        Edge(5, 4, 0.5),
    ),
    beta=(1.0, 0.4, 0.0, 0.0, 0.0),
    x0=(10.0, -10.0, 0.0, 0.0, 0.0),
)

print("agents:", g.n, " edges:", len(g.edges), " stubborn:", g.stubborn)

# Normalization rescales each agent's in-weights so their magnitudes sum to
# one; only the relative pull of the neighbours matters, never the scale.
# The system keeps W as its nonzeros: entry k is W[rows[k], cols[k]] = vals[k].
sysm = normalize(g)
np.set_printoptions(precision=3, suppress=True)
print("\nnormalized in-weights (row i of W = in-weights of agent i):")
for i in range(g.n):
    mine = sysm.rows == i
    weights = ", ".join(f"{w:+.3f} from agent {j + 1}"
                        for j, w in zip(sysm.cols[mine].tolist(), sysm.vals[mine].tolist()))
    print(f"  agent {i + 1}: {weights}")
print("\nrow magnitude sums:", np.bincount(sysm.rows, np.abs(sysm.vals), g.n))

# Agents 1 and 2 have no in-edges at all, so they hold their opinion via a
# self-loop: each takes weight +1 from itself above.

# Every analysis downstream requires that each non-stubborn agent hears,
# possibly indirectly, from some stubborn agent; analyze checks it first.
print("\nevery non-stubborn agent reachable from a stubborn one; LTP agents:",
      analyze(g).ltp_agents)

# Break that: cut agent 3 out and 4, 5 become an unanchored island.
island = SignedDigraph(
    n=5,
    edges=(Edge(1, 3, 2.0), Edge(2, 3, -1.0), Edge(4, 5, 0.5), Edge(5, 4, 0.5)),
    beta=g.beta,
    x0=g.x0,
)
try:
    analyze(island)
except UnreachableNodes as exc:
    print("after cutting 3 -> 4, analyze raises UnreachableNodes:", sorted(exc.nodes))
