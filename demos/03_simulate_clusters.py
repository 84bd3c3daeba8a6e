"""Iterate the opinion dynamics and watch the clusters form.

The update is x(k+1) = (I - B) W x(k) + B x(0): every agent averages its
neighbours' opinions (sign-flipped across antagonistic edges) and stubborn
agents blend their initial opinion back in. The limit is also available in
closed form through the influence matrix; both routes agree.
Run as: python demos/03_simulate_clusters.py
"""

import numpy as np

from sfj import (
    clusters_from_influence,
    clusters_from_trace,
    influence_matrix,
    networks,
    simulate,
)

g = networks.g2()
trace = simulate(g, tol=1e-12)
print(f"converged after {trace.iterations} steps, residual {trace.residual:.1e}")

np.set_printoptions(precision=4, suppress=True)
print("\nfinal opinions:")
print(trace.final)

print("\nclusters read off the trace:")
for cluster in clusters_from_trace(trace):
    members = sorted(cluster)
    print(f"  {members} -> {trace.final[members[0] - 1]:.6f}")

# The influence matrix maps initial to final opinions: x* = V x(0). Agents
# whose rows of V are equal end with equal opinions for EVERY initial
# condition, which is the stronger, initial-condition-free notion.
# Only stubborn agents' columns of V are nonzero: the limit forgets everyone
# else, so influence_matrix returns those columns alone, one per stubborn agent.
V = influence_matrix(g)
stubborn = np.array(g.stubborn) - 1
print("\ninfluence-matrix clusters:", [sorted(c) for c in clusters_from_influence(V)])
print("limit check |x_final - V x0| =", np.max(np.abs(trace.final - V @ g.x0[stubborn])))
print("columns of V, by stubborn agent:", list(g.stubborn))

with open("g2_trace.csv", "w", newline="") as fh:
    simulate(g, tol=1e-12, out=fh)
print("\nwrote g2_trace.csv (k, x_1..x_n) for external plotting")
