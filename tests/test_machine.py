"""Tests for the synchronous network-machine simulator (§4 model)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.library import complete_binary_tree, k2, path_graph, star_graph
from repro.graphs.product import ProductGraph
from repro.machine.machine import NetworkMachine


def _machine(factor, r, keys=None):
    net = ProductGraph(factor, r)
    if keys is None:
        keys = np.arange(net.num_nodes)[::-1].copy()
    return NetworkMachine(net, keys), net


class TestInvariants:
    def test_one_key_per_node(self):
        net = ProductGraph(path_graph(3), 2)
        with pytest.raises(ValueError):
            NetworkMachine(net, np.arange(8))

    def test_rejects_nan_keys(self):
        # `b < a` is false against NaN: the NaN would stay put and the
        # other keys come back out of order
        net = ProductGraph(path_graph(3), 3)
        keys = np.random.default_rng(0).random(net.num_nodes)
        keys[4] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            NetworkMachine(net, keys)

    def test_lattice_view(self):
        m, net = _machine(path_graph(3), 2, np.arange(9))
        lat = m.lattice()
        assert lat.shape == (3, 3)
        assert lat[1, 2] == net.flat_index((1, 2))

    def test_key_at(self):
        m, net = _machine(path_graph(3), 2, np.arange(9))
        assert m.key_at((2, 1)) == 7


class TestCompareExchange:
    def test_basic_swap(self):
        m, _ = _machine(path_graph(3), 1, np.array([5, 1, 3]))
        cost = m.compare_exchange([((0,), (1,))])
        assert cost == 1
        assert list(m.keys) == [1, 5, 3]
        assert m.comparisons == 1 and m.rounds == 1

    def test_no_swap_when_ordered(self):
        m, _ = _machine(path_graph(3), 1, np.array([1, 5, 3]))
        m.compare_exchange([((0,), (1,))])
        assert list(m.keys) == [1, 5, 3]

    def test_direction_min_to_first(self):
        m, _ = _machine(path_graph(3), 1, np.array([1, 5, 3]))
        m.compare_exchange([((1,), (0,))])  # min should land at node 1
        assert list(m.keys) == [5, 1, 3]

    def test_multikey_conservation(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 100, size=27)
        m, net = _machine(path_graph(3), 3, keys.copy())
        for t in range(10):
            pairs = [((x2, x1, 0), (x2, x1, 1)) for x2 in range(3) for x1 in range(3)]
            m.compare_exchange(pairs)
        assert sorted(m.keys.tolist()) == sorted(keys.tolist())

    def test_rejects_overlapping_pairs(self):
        m, _ = _machine(path_graph(3), 2)
        with pytest.raises(ValueError):
            m.compare_exchange([((0, 0), (0, 1)), ((0, 1), (0, 2))])
        with pytest.raises(ValueError):
            m.compare_exchange([((0, 0), (0, 0))])

    def test_rejects_multi_dimension_partners(self):
        """Partners must share a G subgraph — differ in exactly one symbol."""
        m, _ = _machine(path_graph(3), 2)
        with pytest.raises(ValueError):
            m.compare_exchange([((0, 0), (1, 1))])

    def test_adjacent_pairs_cost_one_round(self):
        m, _ = _machine(path_graph(4), 2)
        cost = m.compare_exchange(
            [((0, 0), (0, 1)), ((1, 2), (1, 3)), ((2, 0), (3, 0))]
        )
        assert cost == 1

    def test_non_adjacent_pairs_cost_routing(self):
        """Star factor: leaves are mutually non-adjacent, so a compare costs
        a routed exchange through the hub."""
        m, _ = _machine(star_graph(4), 1)
        cost = m.compare_exchange([((1,), (2,))])
        assert cost >= 2
        assert m.rounds == cost

    def test_parallel_subgraphs_cost_max_not_sum(self):
        """Exchanges in disjoint G subgraphs overlap in time."""
        g = complete_binary_tree(1)  # path-shaped: 1-0-2, labels 0..2
        m, _ = _machine(g, 2)
        # node pairs at distance 2 in two different dimension-1 subgraphs
        cost = m.compare_exchange([((0, 1), (0, 2)), ((1, 1), (1, 2))])
        single = NetworkMachine(ProductGraph(g, 2), np.arange(9)).compare_exchange(
            [((0, 1), (0, 2))]
        )
        assert cost == single

    def test_empty_call(self):
        m, _ = _machine(path_graph(3), 2)
        assert m.compare_exchange([]) == 0
        assert m.rounds == 0 and m.operations == 0


class TestHypercubeEdgeCosts:
    def test_every_cube_edge_is_one_round(self):
        m, net = _machine(k2(), 4)
        for x, y in net.edges():
            fresh = NetworkMachine(net, np.arange(16))
            assert fresh.compare_exchange([(x, y)]) == 1
