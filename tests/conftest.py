import numpy as np
import pytest
from hypothesis import strategies as st

from sfj import clusters_from_influence, networks
from sfj.graph import Edge, SignedDigraph
from sfj.verification import DEFAULT_TAU

from oracles import unreached_by_stubborn


@pytest.fixture
def g1():
    return networks.g1()


@pytest.fixture
def g2():
    return networks.g2()


def random_reachable_graph(rng, n_max=10, n=None, density=None, m=None):
    """Random signed digraph with >= 1 stubborn agent, repaired so that every
    non-stubborn agent is reachable from some stubborn one."""
    if n is None:
        n = int(rng.integers(2, n_max + 1))
    p = rng.uniform(0.1, 0.35) if density is None else density
    edges = []
    for s in range(1, n + 1):
        for d in range(1, n + 1):
            if s != d and rng.random() < p:
                w = float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
                edges.append(Edge(s, d, w))
    if m is None:
        m = int(rng.integers(1, n + 1))
    stub = rng.choice(np.arange(1, n + 1), size=m, replace=False)
    beta = np.zeros(n)
    beta[stub - 1] = rng.uniform(0.1, 1.0, size=m)
    g = SignedDigraph(n, tuple(edges), tuple(beta), tuple(rng.uniform(0, 10, n)))

    while True:
        unreached = unreached_by_stubborn(g)
        if not unreached:
            return g
        present = {(e.src, e.dst) for e in g.edges}
        reached = sorted(set(range(1, g.n + 1)) - unreached)
        extra = list(g.edges)
        for u in sorted(unreached):
            src = int(rng.choice(reached))
            if (src, u) not in present:
                w = float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
                extra.append(Edge(src, u, w))
                present.add((src, u))
        g = SignedDigraph(g.n, tuple(extra), g.beta, g.x0)


def merge_when_agent_7_leads_agent_1(V, tau=DEFAULT_TAU):
    """Clusters of V, merged into one whenever agent 7's weight in agent 1's
    limit exceeds 0.3: a failure that depends on the trial's draw alone.
    On g2, stubborn {7, 10}, agent 7's column is the first of V's n x m
    stubborn block. With seed 3 the merge happens first at trial 4 (0.343;
    trial 3 reads 0.256)."""
    clusters = clusters_from_influence(V, tau)
    return (frozenset().union(*clusters),) if V[0, 0] > 0.3 else clusters


def settle_nothing(lo, hi, thresh):
    """A _partition_holds that settles no trial: one False verdict per
    trial, so the harness clusters every trial's V."""
    return np.zeros(thresh.shape, dtype=bool)


def unreached_positive_class():
    """Agent 1 (stubborn) feeds only agent 2; agents 3..7 form a positive
    class that nothing outside reaches. abs(M) is then not contracting, yet
    the dense solve behind the contraction bound does not fail: it returns a
    bound near 6e16, which would stall the stop rule."""
    edges = (
        (1, 2, 1.0),
        (3, 4, 9.990356235006981),
        (4, 5, 2.695253282280896),
        (5, 6, 8.505540766406794),
        (6, 7, 6.096263171691472),
        (7, 3, 8.079753504518525),
        (6, 5, 7.631808967376477),
        (7, 4, 4.523448222171074),
        (4, 7, 1.3634447963110894),
    )
    return SignedDigraph(
        7,
        tuple(Edge(*e) for e in edges),
        (0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        (2.6, 3.0, 8.1, 0.9, 6.0, 7.3, 1.9),
    )


def g2_times_1e5():
    """g2 with x(0) scaled by 1e5: simulate ends in a rounding cycle of 6
    states, each step 2.9e-11, below the default tol, while step times the
    contraction bound never is. Steps 128 and 134 are the same state."""
    g = networks.g2()
    return SignedDigraph(g.n, g.edges, g.beta, g.x0 * 1e5)


def slow_spiral():
    """x2(k+1) = 1e-5 x2(k) - (1 - 1e-5) x2(k-1), agent 3 copying agent 2's
    last opinion: the pair turns by nearly a quarter turn a step and shrinks
    by about 5e-6, so no state repeats and the steps stay far above any
    tolerance for 200,000 steps: only max_iter stops a run. At most one
    value a row is new to the trace writer, agent 3's being agent 2's from
    the row above. Agent 1 is stubborn but feeds nobody, so the plain step
    rule applies."""
    edges = ((2, 2, 1e-5), (3, 2, -(1 - 1e-5)), (2, 3, 1.0))
    return SignedDigraph(3, tuple(Edge(*e) for e in edges), (1.0, 0.0, 0.0), (0.0, 1.0, -1.0))


BAD_VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from(
        ["3", "x", 1.5, 2.0, -1, 0, 99, 2**53 + 2, 10**400, -0.0,
         float("nan"), float("inf"), float("-inf")]
    ),
)


@st.composite
def graph_dicts(draw):
    """Graph files, often with one or several entries broken: duplicate
    edges, zero or non-finite weights, out-of-range or non-integral ids,
    bools, strings, missing keys."""
    n = draw(st.integers(1, 5))
    weight = st.one_of(
        st.floats(-5.0, 5.0), st.sampled_from([0.0, float("inf"), float("nan")])
    )
    rarely = st.integers(0, 9).map(lambda k: k == 0)
    agents = [
        {
            "id": i,
            "beta": 1.5 if draw(rarely) else draw(st.sampled_from([0.0, 0.5, 1.0])),
            "x0": float("inf") if draw(rarely) else draw(st.floats(-10.0, 10.0)),
        }
        for i in draw(st.permutations(range(1, n + 1)))
    ]
    end = st.sampled_from(list(range(1, n + 1)) * 5 + [0, n + 1])
    pairs = draw(st.lists(st.tuples(end, end), max_size=8))
    edges = [{"from": s, "to": d, "w": draw(weight)} for s, d in pairs]
    data = {"n": n, "agents": agents, "edges": edges}
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(["n"] + ["agent", "edge"] * 5 + ["extra agent"]))
        if target == "n":
            data["n"] = draw(BAD_VALUES)
        elif target == "extra agent":
            agents.append({"id": draw(BAD_VALUES), "beta": 0.5, "x0": 0.0})
        elif target == "agent" or edges:
            entry = draw(st.sampled_from(agents if target == "agent" else edges))
            key = draw(st.sampled_from(sorted(entry)))
            if draw(st.booleans()):
                entry[key] = draw(BAD_VALUES)
            else:
                del entry[key]
    return data
