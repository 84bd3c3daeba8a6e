"""The paper's claim, checked exactly on signed networks of a few agents.

Each ordered pair of distinct agents is absent, +1 or -1, and the stubborn
set is any nonempty set of agents: 3**6 * 7 = 5,103 networks at n = 3 and
3**12 * 15 = 7,971,615 at n = 4. Each takes one seeded draw of rational
weight magnitudes in [1/97, 97] and stubbornness levels in (0, 1]. Wherever
influence_matrix accepts the network, C1 and C2 or not:
- each persuasive agent p whose persuaded set N_p has only positive
  in-edges forms its cluster: the rows of V at {p} | N_p are exactly equal
  in rationals. Every in-neighbour of N_p is p or in N_p, so those rows
  solve a subsystem of their own, which x = x_p satisfies;
- where analyze reports C1 and C2, rows of different clusters differ;
- its float clusters equal the exact partition of V's rows computed from
  the same float inputs.

The tests run every network at n = 3. A CI step runs a seeded sample at
n = 4 through exact_claim(4, sampled_networks(4, count, rng), rng).

Run with `pytest tests/test_exact_claim.py -s` to see the counts.
"""

import itertools
from collections import Counter
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


def ordered_pairs(n):
    return [(s, d) for s in range(1, n + 1) for d in range(1, n + 1) if s != d]


def stubborn_sets(n):
    return [set(c) for k in range(1, n + 1) for c in itertools.combinations(range(1, n + 1), k)]


def signed_networks(n):
    """Every (edge signs, stubborn set) on n agents: a sign of 0 leaves the pair out."""
    return itertools.product(itertools.product((0, 1, -1), repeat=n * (n - 1)),
                             stubborn_sets(n))


def sampled_networks(n, count, rng):
    """count distinct networks of signed_networks(n), drawn by rng, in the
    order of their positions there."""
    sets, r = stubborn_sets(n), n * (n - 1)
    for k in np.sort(rng.choice(3 ** r * len(sets), size=count, replace=False)).tolist():
        signing, stubborn = divmod(k, len(sets))
        digits = [signing // 3 ** (r - 1 - j) % 3 for j in range(r)]
        yield tuple((0, 1, -1)[d] for d in digits), sets[stubborn]


def draw(pairs, signs, stubborn, weights, levels):
    """Rational weights a/b from weights' pairs (a, b) of integers in 1..97,
    so in [1/97, 97], and stubbornness lo/hi from levels' sorted pairs, so
    in (0, 1]."""
    edges = [(s, d, sign * Fraction(a, b))
             for (s, d), sign, (a, b) in zip(pairs, signs, weights) if sign]
    beta = [Fraction(lo, hi) if i in stubborn else Fraction(0)
            for i, (lo, hi) in enumerate(levels, start=1)]
    return edges, beta


def partition(V):
    """Agents grouped by exactly equal rows of V."""
    groups = {}
    for i, row in enumerate(V, start=1):
        groups.setdefault(tuple(row), set()).add(i)
    return {frozenset(group) for group in groups.values()}


def exact_claim(n, networks, rng):
    """Check every network of networks, (signs, stubborn) pairs on n agents,
    under one draw each from rng, taken for all of them at once; fails on an
    inexact cluster or a float clustering unequal to the exact partition.

    Returns the counts: "networks"; "refused" for reachability; "both", the
    networks that meet C1 and C2; "float", the float clusterings checked;
    and per cluster {p} | N_p of an accepted network, "cooperative", those
    whose N_p has only positive in-edges, each exact, of them
    "cooperative_without_c1" and "cooperative_without_c2" those in a network
    where C1 fails or C2 fails elsewhere; "other", the clusters with a
    negative in-edge into N_p, and "other_exact", an observation the claim
    does not make: those of them whose rows were exactly equal anyway."""
    pairs, networks = ordered_pairs(n), list(networks)
    weights = rng.integers(1, 98, size=(len(networks), len(pairs), 2)).tolist()
    levels = np.sort(rng.integers(1, 98, size=(len(networks), n, 2)), axis=2).tolist()
    counts = Counter(networks=len(networks))
    for (signs, stubborn), ws, bs in zip(networks, weights, levels):
        edges, beta = draw(pairs, signs, stubborn, ws, bs)
        floats = [(s, d, float(w)) for s, d, w in edges], [float(b) for b in beta]
        g = SignedDigraph(n, *floats, [0.0] * n)
        try:
            cert = analyze(g)
        except UnreachableNodes:
            counts["refused"] += 1
            with pytest.raises(UnreachableNodes):
                influence_matrix(g)
            continue
        if cert.ltp_agents:
            V = exact_influence(n, edges, beta)
            clusters = [frozenset({p}) | cert.persuaded[p] for p in cert.ltp_agents]
            rows = [{tuple(V[i - 1]) for i in cluster} for cluster in clusters]
            for p, cluster_rows in zip(cert.ltp_agents, rows):
                exact = len(cluster_rows) == 1
                if all(w > 0 for _, d, w in edges if d in cert.persuaded[p]):
                    counts["cooperative"] += 1
                    counts["cooperative_without_c1"] += not cert.covered
                    counts["cooperative_without_c2"] += not cert.cooperative
                    assert exact, (edges, beta, p)
                else:
                    counts["other"] += 1
                    counts["other_exact"] += exact
            if cert.covered and cert.cooperative:
                counts["both"] += 1
                assert clusters == list(predict_clusters(cert).clusters)
                assert len(set().union(*rows)) == len(clusters), (edges, beta)
        # The exact partition from the floats the solve reads.
        assert set(clusters_from_influence(influence_matrix(g))) == partition(
            exact_influence(n, *floats)), (edges, beta)
        counts["float"] += 1
    return counts


SUMMARY = (
    "{networks} networks, {refused} refused for reachability, {both} meet C1 and C2, "
    "{float} float clusterings equal the exact partition; {cooperative} clusters with only "
    "positive in-edges into the persuaded set, all exact, {cooperative_without_c1} of them "
    "where C1 fails and {cooperative_without_c2} where C2 fails elsewhere; {other_exact} "
    "of {other} clusters with a negative in-edge exact")


def test_every_three_agent_network():
    counts = exact_claim(3, signed_networks(3), np.random.default_rng(3))
    print("\nexact claim, n = 3: " + SUMMARY.format_map(counts))
    assert (counts["networks"], counts["refused"], counts["both"], counts["float"]) == (
        5103, 810, 216, 4293)
    assert (counts["cooperative"], counts["cooperative_without_c1"],
            counts["cooperative_without_c2"], counts["other"], counts["other_exact"]) == (
        702, 486, 0, 1890, 0)
