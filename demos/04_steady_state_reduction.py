"""Why a persuasive agent and its persuaded set must agree in the limit.

The converged opinions satisfy a homogeneous linear system R y = 0. Schur
elimination of all persuaded agents except one (q) collapses q's balance row
to exactly two entries, at q itself and at its persuader p, and they cancel,
so x*_q = x*_p whatever the weights are. One elimination of the whole
persuaded set gives that row for every q at once, from R's rows of the set
alone, each row as its columns and values. This demo shows the algebra on the
bundled 12-agent network. Run as: python demos/04_steady_state_reduction.py
"""

import numpy as np

from sfj import analyze, build_steady_state, networks, reduce_persuaded_set

g = networks.g2()
cert = analyze(g)
sysm = build_steady_state(g)

np.set_printoptions(precision=4, suppress=True)
print("R y = 0 has", g.n + g.m, "unknowns (n agents + m stubborn anchors);",
      "R is never built, only its rows of each persuaded set")

# Row sums of R witness the edge signs: agent i's row sums to
# (1 - beta_i)(1 - sum_j w_ij), so all-cooperative rows sum to zero and rows
# with an antagonistic in-edge sum strictly positive. Agents 1 and 4 take
# the negative cross-cluster feeds here.
norm = sysm.system
print("\nrow sums of the agent block:")
print((1.0 - norm.beta) * (1.0 - np.bincount(norm.rows, norm.vals, g.n)))


def column(c):
    """R's column c: agent c + 1, or the anchor of a stubborn agent."""
    return f"agent {c + 1}" if c < g.n else f"the anchor of {sysm.stubborn_index[c - g.n]}"


for p in cert.ltp_agents:
    members = cert.persuaded[p]
    relations = reduce_persuaded_set(sysm, p, members)
    print(f"\npersuader {p}, persuaded set {sorted(members)}, one elimination:")
    for relation in relations:
        q = relation.persuaded
        entries = ", ".join(
            f"{v:+.4f} at {column(c)}" for c, v in zip(relation.columns, relation.values)
        )
        print(
            f"  without {sorted(members - {q})}: row of agent {q} is ({entries}), "
            f"largest stray entry {relation.max_off_support:.1e}"
        )
        assert relation.holds(tol=1e-10)
    # The set's opinions rebuilt from the others' drift this far from y.
    print(f"  solve mismatch of the set: {relations[0].solve_mismatch:.1e}")

print("\nevery persuaded agent is pinned to its persuader; the four clusters")
print("are forced by topology and signs alone.")
