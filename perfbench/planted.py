"""Seeded planted-cluster networks and the oracle that checks sfj's answers.

The construction is the benchmark's own, so a change to ``sfj.generator``
cannot change what is measured. Each network has z clusters. A cluster is a
root plus at least one member; members hear only from inside their cluster
over positive edges, so the root is their single gatekeeper. At least two
roots are stubborn; every other root is fed from two different stubborn
clusters, so no single agent gates it. Extra signed edges land only on roots.
Hence the planted answer is known without running sfj: the LTP agents are
exactly the roots, each persuaded set is its cluster minus the root, C1 and C2
hold, and the opinion clusters are the planted clusters.
"""

from __future__ import annotations

import json
import random
from pathlib import Path


Clusters = tuple[tuple[int, ...], ...]  # each planted cluster: its root, then its members


def planted_network(n: int, z: int, seed: int) -> tuple[dict, Clusters]:
    """Sparse signed network with z planted clusters over agents 1..n.

    Returns the graph in sfj's JSON schema and the planted clusters.
    """
    if z < 2 or n < 2 * z:
        raise ValueError(f"need z >= 2 and n >= 2z, got n={n} z={z}")
    rng = random.Random(seed)
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    sizes = [2] * z
    for _ in range(n - 2 * z):
        sizes[rng.randrange(z)] += 1
    clusters, start = [], 0
    for size in sizes:
        clusters.append(ids[start:start + size])
        start += size
    roots = [c[0] for c in clusters]
    cluster_of_root = dict(zip(roots, clusters))
    stubborn = rng.sample(roots, rng.randint(2, max(2, z // 2)))
    stubborn_set = set(stubborn)

    edges: dict[tuple[int, int], float] = {}

    def add(src, dst, sign=1.0):
        if src != dst and (src, dst) not in edges:
            edges[(src, dst)] = sign * round(rng.uniform(0.5, 2.0), 6)

    for cluster in clusters:
        root, members = cluster[0], cluster[1:]
        for j, member in enumerate(members):
            add(rng.choice(cluster[:j + 1]), member)  # positive arborescence
            if rng.random() < 0.25:
                add(rng.choice(cluster), member)
        if rng.random() < 0.4:
            add(rng.choice(members), root, rng.choice((-1.0, 1.0)))
    for root in roots:
        if root in stubborn_set:
            continue
        for feeder in rng.sample(stubborn, 2):
            add(rng.choice(cluster_of_root[feeder]), root, rng.choice((-1.0, 1.0)))
    for _ in range(z):
        dst = rng.choice(roots)
        src = rng.randint(1, n)
        if src not in cluster_of_root[dst]:
            add(src, dst, rng.choice((-1.0, 1.0)))

    agents = [
        {
            "id": i,
            "beta": round(rng.uniform(0.2, 1.0), 6) if i in stubborn_set else 0.0,
            "x0": round(rng.uniform(0.0, 10.0), 6),
        }
        for i in range(1, n + 1)
    ]
    graph = {
        "n": n,
        "agents": agents,
        "edges": [{"from": s, "to": d, "w": w} for (s, d), w in sorted(edges.items())],
    }
    return graph, tuple(tuple(c) for c in clusters)


def with_opinions(graph: dict, seed: int) -> dict:
    """The same network with initial opinions drawn anew from seed.

    Ids, shape, weights and stubbornness stay, so the planted answer stands
    and sfj does about the same work. Only simulate reads the opinions.
    """
    rng = random.Random(seed)
    agents = [{**agent, "x0": round(rng.uniform(0.0, 10.0), 6)} for agent in graph["agents"]]
    return {**graph, "agents": agents}


def write_graph(graph: dict, path) -> None:
    # json.dumps takes the C encoder; json.dump to a file encodes in Python.
    Path(path).write_text(json.dumps(graph), encoding="utf-8")


class OracleRejection(Exception):
    """sfj answered, but not what the planted structure implies."""


def _partition(clusters: Clusters) -> list[list[int]]:
    return sorted(sorted(c) for c in clusters)


def check_analyze(clusters: Clusters, out: dict) -> None:
    """ltp == roots, persuaded[r] == cluster minus r, C1 and C2 true."""
    if out.get("ltp") != sorted(c[0] for c in clusters):
        raise OracleRejection("LTP agents differ from the planted roots")
    expected = {str(c[0]): sorted(c[1:]) for c in clusters}
    if out.get("persuaded") != expected:
        raise OracleRejection("persuaded sets differ from the planted clusters")
    if out.get("C1") is not True or out.get("C2") is not True:
        raise OracleRejection(f"C1={out.get('C1')} C2={out.get('C2')}, both must hold")


def check_verify(clusters: Clusters, out: dict) -> None:
    """Every reweighting trial reproduces the planted partition."""
    if out.get("passes") != out.get("trials"):
        raise OracleRejection(f"{out.get('passes')} of {out.get('trials')} trials passed")
    if sorted(out.get("predicted", [])) != _partition(clusters):
        raise OracleRejection("predicted partition differs from the planted one")


def check_simulate(clusters: Clusters, out: dict) -> None:
    """Converged, prediction matches, observed clusters are the planted ones."""
    if out.get("converged") is not True or out.get("match") is not True:
        raise OracleRejection(
            f"converged={out.get('converged')} match={out.get('match')}"
        )
    if sorted(out.get("clusters", [])) != _partition(clusters):
        raise OracleRejection("simulated clusters differ from the planted ones")


CHECKS = {"analyze": check_analyze, "verify": check_verify, "simulate": check_simulate}
