"""Why a persuasive agent and its persuaded set must agree in the limit.

The final opinions are x* = V x(0) with V = (I - (I - B) W)^{-1} B. When
every in-edge of p's persuaded set is positive, each persuaded agent q's row
of V equals p's, so x*_q = x*_p for every initial condition, whatever the
weights are. This demo shows those equal rows on the bundled 12-agent
network, then redraws every weight magnitude and stubbornness level and
shows them stay equal. Run as: python demos/04_persuaded_rows_agree.py
"""

import numpy as np

from sfj import SignedDigraph, analyze, influence_matrix, networks, normalize

g = networks.g2()
cert = analyze(g)
stubborn = np.array(g.stubborn) - 1

np.set_printoptions(precision=4, suppress=True)

# Row sums of the balance rows [I - (I - B) W | -B_s] witness the edge signs:
# agent i's sums to (1 - beta_i)(1 - sum_j w_ij), so all-cooperative rows sum
# to zero and rows with an antagonistic in-edge sum strictly positive.
# Agents 1 and 4 take the negative cross-cluster feeds here.
norm = normalize(g)
print("row sums of the balance rows:")
print((1.0 - norm.beta) * (1.0 - np.bincount(norm.rows, norm.vals, g.n)))


def gaps(V):
    """For each persuaded agent q: max |V[q] - V[p]| over the stubborn columns."""
    return {q: float(np.abs(V[q - 1] - V[p - 1]).max())
            for p in cert.ltp_agents for q in sorted(cert.persuaded[p])}


V = influence_matrix(g)
gap = gaps(V)
print(f"\nV's columns, the only nonzero ones, are the stubborn agents {list(g.stubborn)}")
for p in cert.ltp_agents:
    print(f"\npersuader {p}: row {V[p - 1]}")
    for q in sorted(cert.persuaded[p]):
        print(f"  persuaded {q}: row {V[q - 1]}, "
              f"largest gap {gap[q]:.1e}")
assert max(gap.values()) <= 1e-10

# Keep each edge's sign and the stubborn set; redraw everything else.
rng = np.random.default_rng(4)
worst = 0.0
for _ in range(100):
    weights = np.sign(g.w) * rng.uniform(0.1, 10.0, g.w.size)
    beta = np.zeros(g.n)
    beta[stubborn] = 1.0 - rng.random(stubborn.size)
    redrawn = SignedDigraph(g.n, np.column_stack((g.src, g.dst, weights)), beta, g.x0)
    worst = max(worst, *gaps(influence_matrix(redrawn)).values())
print(f"\nlargest gap over 100 redrawn weightings: {worst:.1e}")
assert worst <= 1e-10

print("\nevery persuaded agent is pinned to its persuader; the four clusters")
print("are forced by topology and signs alone.")
