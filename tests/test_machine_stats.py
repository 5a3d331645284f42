"""Tests for the machine's traffic counters, read off its ``machine_step``
events by the :class:`~repro.observability.topology.LinkObservatory`."""

from __future__ import annotations

import numpy as np

from repro.core.machine_sort import MachineSorter
from repro.graphs import ProductGraph, complete_binary_tree, path_graph
from repro.machine.machine import NetworkMachine
from repro.observability import EventBus, LinkObservatory, Tracer


def _observed_machine(net, keys):
    bus = EventBus()
    return NetworkMachine(net, keys, bus=bus), LinkObservatory(net, bus=bus)


def _run_sort_observed(factor, r, rng):
    ms = MachineSorter.for_factor(factor, r)
    keys = rng.integers(0, 2**20, size=ms.network.num_nodes)
    tracer = Tracer()
    obs = LinkObservatory(ms.network, bus=tracer.bus)
    machine, _ = ms.sort(keys, tracer=tracer)
    return machine, obs


class TestRecorder:
    def test_counts_basic_step(self):
        net = ProductGraph(path_graph(3), 2)
        machine, obs = _observed_machine(net, np.arange(9))
        machine.compare_exchange([((0, 0), (0, 1)), ((1, 0), (2, 0))])
        traffic = obs.traffic()
        assert traffic["operations"] == 1 and traffic["pair_count"] == 2
        assert traffic["dimension_ops"] == {"1": 1, "2": 1}
        assert traffic["adjacent_pairs"] == 2 and traffic["routed_pairs"] == 0
        assert traffic["mean_parallelism"] == 2.0
        assert traffic["link_traversals"] == 4 == obs.total_traversals

    def test_routed_pairs_detected(self):
        net = ProductGraph(complete_binary_tree(2), 1)
        machine, obs = _observed_machine(net, np.arange(7))
        machine.compare_exchange([((3,), (4,))])  # leaves: non-adjacent
        traffic = obs.traffic()
        assert traffic["routed_pairs"] == 1
        assert traffic["routed_link_traversals"] == traffic["link_traversals"] > 2

    def test_reset(self):
        net = ProductGraph(path_graph(3), 2)
        machine, obs = _observed_machine(net, np.arange(9))
        machine.compare_exchange([((0, 0), (0, 1))])
        obs.reset()
        assert obs.traffic()["operations"] == 0

    def test_empty_stats(self):
        traffic = LinkObservatory(ProductGraph(path_graph(3), 2)).traffic()
        assert traffic["operations"] == 0 and traffic["mean_parallelism"] == 0.0
        assert traffic["pair_count"] == 0 and traffic["peak_node_utilisation"] == 0.0
        assert traffic["dimension_ops"] == {} and traffic["dimension_lanes"] == {}
        assert traffic["adjacent_pairs"] == 0 and traffic["routed_pairs"] == 0
        assert traffic["link_traversals"] == 0

    def test_reset_then_reuse_matches_fresh(self):
        net = ProductGraph(path_graph(3), 2)
        machine, obs = _observed_machine(net, np.arange(9))
        pairs = [((0, 0), (0, 1)), ((1, 0), (2, 0))]
        machine.compare_exchange(pairs)
        obs.reset()
        assert obs.traffic()["operations"] == 0
        machine.compare_exchange([(hi, lo) for lo, hi in pairs])  # swap back
        fresh_machine, fresh = _observed_machine(net, np.arange(9))
        fresh_machine.compare_exchange(pairs)
        assert obs.traffic() == fresh.traffic()

    def test_routed_vs_adjacent_counting_in_one_step(self):
        # a single super-step mixing an adjacent pair with a routed pair must
        # split the tally, and the routed subgraph must lift the step's cost
        net = ProductGraph(complete_binary_tree(2), 2)
        machine, obs = _observed_machine(net, np.arange(49))
        # labels 0-1 are a tree edge; 3-4 are two leaves (non-adjacent)
        cost = machine.compare_exchange([((0, 0), (0, 1)), ((1, 3), (1, 4))])
        traffic = obs.traffic()
        assert traffic["adjacent_pairs"] == 1 and traffic["routed_pairs"] == 1
        assert traffic["pair_count"] == 2 and traffic["operations"] == 1
        assert cost > 1  # routing made the super-step cost more than one round


class TestSortTraffic:
    def test_full_sort_traffic_profile(self, rng):
        machine, obs = _run_sort_observed(path_graph(3), 3, rng)
        from repro.orders import lattice_to_sequence

        seq = lattice_to_sequence(machine.lattice())
        assert np.all(np.diff(seq) >= 0)
        traffic = obs.traffic()
        assert traffic["operations"] == machine.operations
        assert traffic["pair_count"] == machine.comparisons
        # every dimension participates; dims {1,2} dominate (base sorts)
        ops = traffic["dimension_ops"]
        assert set(ops) == {"1", "2", "3"}
        assert ops["1"] > ops["3"] and ops["2"] > ops["3"]
        # all traffic on a path factor is adjacent
        assert traffic["routed_pairs"] == 0
        assert 0 < traffic["peak_node_utilisation"] <= 1.0

    def test_dimension_lanes_bounded(self, rng):
        _, obs = _run_sort_observed(path_graph(3), 3, rng)
        # each dimension has N^(r-1) = 9 factor subgraphs at most
        for lanes in obs.traffic()["dimension_lanes"].values():
            assert 1 <= lanes <= 9

    def test_tree_factor_routes(self, rng):
        _, obs = _run_sort_observed(complete_binary_tree(1), 2, rng)
        traffic = obs.traffic()
        assert traffic["pair_count"] > 0
        # 3-node tree labelled 0-1-2 with edges 0-1, 0-2: consecutive labels
        # (1,2) are non-adjacent, so some pairs must route
        assert traffic["routed_pairs"] > 0
