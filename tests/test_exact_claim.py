"""The paper's claim, checked exactly on every signed network of three agents.

Each of the 6 ordered pairs of distinct agents is absent, +1 or -1, and the
stubborn set is any nonempty set of agents: 3**6 * 7 = 5,103 networks. Each
takes one seeded draw of rational weight magnitudes in [1/97, 97] and
stubbornness levels in (0, 1]. Wherever analyze reports C1 and C2, each
predicted cluster's rows of V are exactly equal in rationals, and rows of
different clusters differ. Wherever influence_matrix accepts the network, C1
and C2 or not, its float clusters equal the exact partition of V's rows
computed from the same float inputs.

Run with `pytest tests/test_exact_claim.py -s` to see the counts.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from sfj import (
    SignedDigraph,
    UnreachableNodes,
    analyze,
    clusters_from_influence,
    influence_matrix,
    predict_clusters,
)

from oracles import exact_influence

N = 3
PAIRS = [(s, d) for s in range(1, N + 1) for d in range(1, N + 1) if s != d]


def signed_networks():
    """Every (edge signs, stubborn set): a sign of 0 leaves the pair out."""
    stubborn_sets = [set(c) for k in range(1, N + 1)
                     for c in itertools.combinations(range(1, N + 1), k)]
    return itertools.product(itertools.product((0, 1, -1), repeat=len(PAIRS)), stubborn_sets)


def draw(signs, stubborn, weights, levels):
    """Rational weights a/b from weights' pairs (a, b) of integers in 1..97,
    so in [1/97, 97], and stubbornness lo/hi from levels' sorted pairs, so
    in (0, 1]."""
    edges = [(s, d, sign * Fraction(a, b))
             for (s, d), sign, (a, b) in zip(PAIRS, signs, weights) if sign]
    beta = [Fraction(lo, hi) if i in stubborn else Fraction(0)
            for i, (lo, hi) in enumerate(levels, start=1)]
    return edges, beta


def partition(V):
    """Agents grouped by exactly equal rows of V."""
    groups = {}
    for i, row in enumerate(V, start=1):
        groups.setdefault(tuple(row), set()).add(i)
    return {frozenset(group) for group in groups.values()}


def test_every_three_agent_network():
    rng = np.random.default_rng(3)
    count = 3 ** len(PAIRS) * (2 ** N - 1)
    weights = rng.integers(1, 98, size=(count, len(PAIRS), 2)).tolist()
    levels = np.sort(rng.integers(1, 98, size=(count, N, 2)), axis=2).tolist()
    total = refused = both = pairs = 0
    for (signs, stubborn), ws, bs in zip(signed_networks(), weights, levels):
        total += 1
        edges, beta = draw(signs, stubborn, ws, bs)
        floats = [(s, d, float(w)) for s, d, w in edges], [float(b) for b in beta]
        g = SignedDigraph(N, *floats, [0.0] * N)
        try:
            cert = analyze(g)
        except UnreachableNodes:
            refused += 1
            with pytest.raises(UnreachableNodes):
                influence_matrix(g)
            continue
        if cert.covered and cert.cooperative:
            both += 1
            clusters = predict_clusters(cert).clusters
            V = exact_influence(N, edges, beta)
            rows = [{tuple(V[i - 1]) for i in cluster} for cluster in clusters]
            assert all(len(r) == 1 for r in rows), (edges, beta)
            assert len(set().union(*rows)) == len(clusters), (edges, beta)
        # The exact partition from the floats the solve reads.
        assert set(clusters_from_influence(influence_matrix(g))) == partition(
            exact_influence(N, *floats)), (edges, beta)
        pairs += 1
    print(f"\nexact claim, n = {N}: {total} networks, {refused} refused for reachability, "
          f"{both} meet C1 and C2 with exactly equal rows per cluster, "
          f"{pairs} float clusterings equal the exact partition")
    assert (total, refused, both, pairs) == (5103, 810, 216, 4293)
