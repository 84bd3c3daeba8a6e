"""Random networks that are guaranteed to satisfy both cluster conditions.

The construction plants z cluster roots, grows a positive random arborescence
under each one, and wires every non-stubborn root to two different
stubborn-rooted clusters so that no single agent can cut it off. Cross-cluster
edges land only on roots, which keeps every persuaded set sealed off behind
its persuader, so the emitted graph always certifies C1 and C2.
"""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleParameters
from .graph import Edge, SignedDigraph


def random_multiconsensus_graph(n: int, z: int, seed: int = 0) -> SignedDigraph:
    """Random signed digraph with exactly z persuasive clusters covering all agents.

    Needs n >= 2z: every cluster is a root plus at least one persuaded agent
    (a root alone persuades nobody and would break coverage). At least two of
    the roots are stubborn; the remaining roots are non-stubborn and fed from
    two distinct stubborn clusters. Raises InfeasibleParameters otherwise.
    """
    if z < 2:
        raise InfeasibleParameters(f"need at least 2 clusters, got z={z}")
    if n < 2 * z:
        raise InfeasibleParameters(
            f"n={n} cannot host {z} clusters: each needs a root plus at least "
            f"one persuaded agent (n >= {2 * z})"
        )
    rng = np.random.default_rng(seed)

    # Random cluster sizes, two slots guaranteed per cluster.
    sizes = np.full(z, 2, dtype=int)
    for _ in range(n - 2 * z):
        sizes[rng.integers(z)] += 1

    ids = rng.permutation(n) + 1
    clusters: list[list[int]] = []
    cursor = 0
    for size in sizes:
        clusters.append([int(v) for v in ids[cursor:cursor + size]])
        cursor += size
    roots = [c[0] for c in clusters]

    stub_count = int(rng.integers(2, z + 1))
    stub_roots = sorted(rng.choice(roots, size=stub_count, replace=False).tolist())
    stub_set = set(stub_roots)
    nonstub_roots = [r for r in roots if r not in stub_set]
    cluster_of = {r: c for r, c in zip(roots, clusters)}

    def magnitude():
        return float(rng.uniform(0.5, 2.0))

    edges: dict[tuple[int, int], float] = {}

    def add(src, dst, w):
        if src != dst and (src, dst) not in edges:
            edges[(src, dst)] = w

    for root, cluster in zip(roots, clusters):
        members = cluster[1:]
        # Positive arborescence: members only hear from inside the cluster.
        for j, member in enumerate(members):
            parent = root if j == 0 else cluster[int(rng.integers(j + 1))]
            add(parent, member, magnitude())
        # Optional extra positive intra-cluster edges into members.
        for member in members:
            if rng.random() < 0.25:
                src = cluster[int(rng.integers(len(cluster)))]
                add(src, member, magnitude())
        # Occasional feedback into the root; sign-free since roots are exempt
        # from the cooperativity condition.
        if members and rng.random() < 0.4:
            src = int(rng.choice(members))
            add(src, root, magnitude() * float(rng.choice([-1.0, 1.0])))

    # Every non-stubborn root needs two independent stubborn-side feeds so
    # that no single agent sits on all of its incoming paths.
    for root in nonstub_roots:
        feed_a, feed_b = rng.choice(stub_roots, size=2, replace=False)
        for feeder_root in (feed_a, feed_b):
            src = int(rng.choice(cluster_of[int(feeder_root)]))
            add(src, root, magnitude() * float(rng.choice([-1.0, 1.0])))

    # Extra signed cross-cluster edges, roots only as targets.
    for _ in range(int(rng.integers(0, z + 1))):
        dst = int(rng.choice(roots))
        src = int(rng.integers(1, n + 1))
        if src not in cluster_of.get(dst, []) and src != dst:
            add(src, dst, magnitude() * float(rng.choice([-1.0, 1.0])))

    beta = np.zeros(n)
    for r in stub_roots:
        beta[r - 1] = 1.0 - rng.uniform(0.0, 0.8)  # stubbornness in (0.2, 1]
    x0 = rng.uniform(0.0, 10.0, size=n)

    return SignedDigraph(
        n=n,
        edges=tuple(Edge(s, d, w) for (s, d), w in sorted(edges.items())),
        beta=tuple(beta),
        x0=tuple(np.round(x0, 6)),
    )
