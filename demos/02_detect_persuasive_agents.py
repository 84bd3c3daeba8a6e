"""Find the persuasive agents of the two bundled networks.

An agent p is locally topologically persuasive when some non-stubborn agent
only hears from the stubborn part of the network through p. Detection is a
dominator computation on the digraph with a virtual root wired to every
stubborn agent.
Run as: python demos/02_detect_persuasive_agents.py
"""

from sfj import (
    analyze,
    build_dominator_tree,
    certificate_to_dict,
    networks,
    predict_clusters,
)

g1 = networks.g1()

tree = build_dominator_tree(g1)
print("immediate dominators (0 = virtual root):")
for node in range(1, g1.n + 1):
    print(f"  agent {node}: idom = {tree[node]}")

cert = analyze(g1)
print("\npersuasive agents:", cert.ltp_agents)
for p in cert.ltp_agents:
    print(f"  {p} persuades {sorted(cert.persuaded[p])}")
print("covered (C1):", cert.covered, "  cooperative (C2):", cert.cooperative)
for v in cert.violations:
    print("  violation:", v.node, "-", v.reason)

# Agent 1 persuades nobody, so the clusters do not cover it and strict
# prediction refuses. Relaxed mode hands it a flagged singleton instead.
relaxed = predict_clusters(cert, mode="relaxed")
print("\nrelaxed clusters:", [sorted(c) for c in relaxed.clusters])
print("flagged singletons:", sorted(relaxed.flagged_singletons))

# The larger bundled network satisfies both conditions outright.
g2 = networks.g2()
cert2 = analyze(g2)
print("\nsecond network certificate:")
print(certificate_to_dict(cert2))
print("strict clusters:", [sorted(c) for c in predict_clusters(cert2).clusters])
