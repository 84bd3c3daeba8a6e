import hashlib
import json

import pytest

from sfj import (
    InfeasibleParameters,
    analyze,
    graph_to_dict,
    predict_clusters,
    random_multiconsensus_graph,
    robustness_harness,
)


class TestFeasibility:
    def test_fewer_than_two_clusters_rejected(self):
        with pytest.raises(InfeasibleParameters):
            random_multiconsensus_graph(5, 1)

    def test_cluster_needs_a_persuaded_agent(self):
        # Two clusters over three agents would leave one cluster rootless or
        # empty; the smallest two-cluster network has four agents.
        with pytest.raises(InfeasibleParameters, match="n >= 4"):
            random_multiconsensus_graph(3, 2)

    def test_minimal_two_cluster_network(self):
        g = random_multiconsensus_graph(4, 2, seed=1)
        cert = analyze(g)
        assert len(cert.ltp_agents) == 2
        assert cert.covered and cert.cooperative
        assert len(predict_clusters(cert).clusters) == 2


class TestPostconditions:
    def test_certificate_passes_both_conditions_over_seed_sweep(self):
        for seed in range(100):
            g = random_multiconsensus_graph(12, 4, seed=seed)
            cert = analyze(g)
            assert cert.covered and cert.cooperative, f"seed {seed}"
            assert len(cert.ltp_agents) == 4
            assert len(cert.stubborn) >= 2

    @pytest.mark.parametrize("seed", (0, 7, 23))
    def test_generated_networks_survive_the_harness(self, seed):
        g = random_multiconsensus_graph(14, 3, seed=seed)
        report = robustness_harness(g, trials=20, seed=seed)
        assert report.all_passed

    def test_various_shapes(self):
        for n, z in ((4, 2), (9, 4), (20, 2), (25, 5), (40, 8)):
            g = random_multiconsensus_graph(n, z, seed=n * z)
            cert = analyze(g)
            assert cert.covered and cert.cooperative
            assert len(cert.ltp_agents) == z

    def test_deterministic_in_the_seed(self):
        a = random_multiconsensus_graph(12, 4, seed=5)
        b = random_multiconsensus_graph(12, 4, seed=5)
        c = random_multiconsensus_graph(12, 4, seed=6)
        assert a == b
        assert a != c

    @pytest.mark.parametrize(
        "n, z, seed, digest",
        [
            (12, 4, 3, "cbfc88042f2a5c8a8c36f4c938a304838739430e4f32fa030657e3748c4fef38"),
            (1000, 50, 7, "1dbe62ed40fd7fc728a1704c4f1171482d4f4581cde581a4bdad249913ea3ecf"),
        ],
    )
    def test_output_is_pinned_for_fixed_seeds(self, n, z, seed, digest):
        # Any change to the draws, their order or the construction shows here.
        g = random_multiconsensus_graph(n, z, seed=seed)
        text = json.dumps(graph_to_dict(g), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
