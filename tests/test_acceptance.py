"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Every tolerance is pinned here, not configurable, so a regression anywhere in
the stack turns a line red.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from numpy import abs as abs_matrix
from sfj import (
    SignedDigraph,
    analyze,
    build_dominator_tree,
    clusters_from_trace,
    detect_ltp_agents,
    influence_matrix,
    load_graph,
    networks,
    normalize,
    predict_clusters,
    random_multiconsensus_graph,
    robustness_harness,
    simulate,
)

FIXTURES = Path(__file__).resolve().parent.parent / "networks"

from conftest import random_reachable_graph
from oracles import (
    brute_force_ltp_oracle,
    build_steady_state,
    dense_reduction,
    neumann_influence,
    neumann_terms_for,
    reduce_persuaded_set,
    same_certificate,
    spectral_radius,
    update_matrix,
)


def report(line):
    print(f"PASS  {line}")


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_1_g1_reconstruction():
    with Timer() as t:
        g = load_graph(FIXTURES / "g1.json")
        cert = analyze(g)
        assert cert.ltp_agents == (2, 5)
        assert cert.persuaded[2] == {3, 4}
        assert cert.persuaded[5] == {6}
    assert t.elapsed < 1.0
    report(
        "criterion 1: g1 fixture yields persuasive agents {2,5} with persuaded "
        f"sets {{3,4}} and {{6}} ({t.elapsed:.3f}s < 1s)"
    )


def test_criterion_2_g2_reconstruction_and_simulation():
    with Timer() as t:
        g = load_graph(FIXTURES / "g2.json")
        cert = analyze(g)
        assert cert.ltp_agents == (1, 4, 7, 10)
        assert cert.persuaded[1] == {2, 3}
        assert cert.persuaded[4] == {5, 6}
        assert cert.persuaded[7] == {8, 9}
        assert cert.persuaded[10] == {11, 12}
        predicted = predict_clusters(cert).clusters

        rng = np.random.default_rng(2024)
        x0 = rng.uniform(0.0, 10.0, g.n)
        beta = np.zeros(g.n)
        for s in g.stubborn:
            beta[s - 1] = 1.0 - rng.uniform(0.0, 1.0)  # (0, 1]
        drawn = SignedDigraph(g.n, g.edges, tuple(beta), tuple(x0))

        trace = simulate(drawn, tol=1e-12)
        assert trace.converged
        clusters = clusters_from_trace(trace, tau=1e-8)
        assert len(clusters) == 4
        final = trace.final
        spread = max(
            abs(final[i - 1] - final[j - 1])
            for cluster in predicted
            for i in cluster
            for j in cluster
        )
        assert spread <= 1e-8
    assert t.elapsed < 5.0
    report(
        "criterion 2: g2 fixture yields the four stated clusters; simulation "
        f"spread {spread:.2e} <= 1e-8 ({t.elapsed:.3f}s < 5s)"
    )


def test_criterion_3_ltp_oracle_equivalence():
    rng = np.random.default_rng(301)
    mismatches = 0
    for _ in range(500):
        g = random_reachable_graph(rng, n_max=10)
        fast = detect_ltp_agents(g, build_dominator_tree(g))
        slow = brute_force_ltp_oracle(g)
        if not same_certificate(fast, slow):
            mismatches += 1
    assert mismatches == 0
    report(
        "criterion 3: dominator detection, C1, C2 and their violations match the "
        "path-enumeration oracle on 500/500 random digraphs (n <= 10)"
    )


def test_criterion_4_influence_oracle_equivalence():
    rng = np.random.default_rng(401)
    worst = 0.0
    for _ in range(200):
        g = random_reachable_graph(rng, n_max=12)
        depth = neumann_terms_for(g, 1e-8)
        stubborn = np.array(g.stubborn) - 1
        gap = float(
            np.max(np.abs(influence_matrix(g) - neumann_influence(g, depth)[:, stubborn]))
        )
        worst = max(worst, gap)
        assert gap <= 1e-8
    report(
        "criterion 4: direct solve and truncated-series influence agree within "
        f"1e-8 on 200/200 graphs (worst {worst:.2e})"
    )


def test_criterion_5_contraction_and_absolute_dominance():
    rng = np.random.default_rng(501)
    worst_rho = 0.0
    for _ in range(500):
        g = random_reachable_graph(rng, n_max=50)
        update = update_matrix(normalize(g))
        rho = spectral_radius(update)
        worst_rho = max(worst_rho, rho)
        assert rho < 1.0
        assert rho <= spectral_radius(abs_matrix(update)) + 1e-12
    report(
        "criterion 5: update matrix contracts on 500/500 reachable graphs "
        f"(max radius {worst_rho:.6f}) and never beats its absolute bound"
    )


def test_criterion_6_reduced_row_algebra():
    cases = [networks.g1(), networks.g2()]
    rng = np.random.default_rng(601)
    for _ in range(100):
        n = int(rng.integers(8, 21))
        z = int(rng.integers(2, min(4, n // 2) + 1))
        cases.append(random_multiconsensus_graph(n, z, seed=int(rng.integers(1e9))))

    pairs = 0
    for g in cases:
        cert = analyze(g)
        sysm = build_steady_state(g)
        for p in cert.ltp_agents:
            members = cert.persuaded[p]
            for relation in reduce_persuaded_set(sysm, p, members):
                assert relation.max_off_support <= 1e-10
                assert abs(relation.persuader_entry + relation.persuaded_entry) <= 1e-10
                assert relation.solve_mismatch <= 1e-9
                # The local row annihilates y, as the dense reduced system does.
                row = np.array(relation.values) @ sysm.y[list(relation.columns)]
                assert abs(row) <= 1e-9
                reduced, keep, _ = dense_reduction(sysm, p, relation.persuaded, members)
                assert np.max(np.abs(reduced @ sysm.y[keep])) <= 1e-9
                pairs += 1
    assert pairs >= 200
    report(
        f"criterion 6: persuaded-row support {{p,q}} with zero sum (1e-10) and "
        f"reduced-vs-full agreement (1e-9) on {pairs} (p,q) pairs over "
        f"{len(cases)} networks"
    )


def test_criterion_7_topology_only_robustness():
    with Timer() as t:
        result = robustness_harness(networks.g2(), trials=200, seed=777)
        assert result.passes == result.trials == 200
        assert result.worst_spread <= 1e-8
    assert t.elapsed < 30.0
    report(
        "criterion 7: 200/200 weight and stubbornness re-draws reproduce the "
        f"predicted partition, worst spread {result.worst_spread:.2e} "
        f"({t.elapsed:.1f}s < 30s)"
    )


def test_criterion_8_fixed_point_consistency():
    runs = 0
    tol = 1e-10
    worst = 0.0
    battery = [networks.g1(), networks.g2()]
    rng = np.random.default_rng(801)
    for _ in range(50):
        battery.append(random_reachable_graph(rng, n_max=20))
    for _ in range(10):
        battery.append(
            random_multiconsensus_graph(int(rng.integers(6, 15)), 2,
                                        seed=int(rng.integers(1e9)))
        )
    for g in battery:
        trace = simulate(g, tol=tol)
        if not trace.converged:
            continue
        limit = influence_matrix(g) @ g.x0[g.beta > 0]
        gap = float(np.max(np.abs(trace.final - limit)))
        worst = max(worst, gap)
        assert gap <= 10 * tol
        runs += 1
    assert runs == len(battery)
    report(
        f"criterion 8: simulated limit within 10*tol of the influence solve on "
        f"{runs}/{runs} converged runs (worst {worst:.2e})"
    )
