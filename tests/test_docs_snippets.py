"""Executable checks for the code snippets in docs/api_tour.md.

Documentation that runs is documentation that stays true.
"""

from __future__ import annotations

import numpy as np


def test_sort_something_snippet():
    from repro import ProductNetworkSorter, lattice_to_sequence, path_graph

    sorter = ProductNetworkSorter.for_factor(path_graph(4), r=3)
    keys = np.random.default_rng(0).integers(0, 1000, size=64)
    lattice, ledger = sorter.sort_sequence(keys)
    assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
    assert ledger.total_rounds > 0
    assert ledger.s2_calls == 4


def test_bring_your_own_topology_snippet():
    from repro import FactorGraph, ProductNetworkSorter, lattice_to_sequence

    g = FactorGraph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
    g = g.canonically_labelled()
    sorter = ProductNetworkSorter.for_factor(g, r=3)
    keys = np.random.default_rng(1).integers(0, 100, size=125)
    lattice, _ = sorter.sort_sequence(keys)
    assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))


def test_cost_model_snippet():
    from repro import ProductNetworkSorter, path_graph
    from repro.sorters2d import (
        AdjacentStepRoutingModel,
        MeasuredExecutableModel,
        ShearSorter,
    )

    g = path_graph(4)
    sorter = ProductNetworkSorter.for_factor(
        g,
        3,
        sorter2d=MeasuredExecutableModel("shear", g, ShearSorter()),
        routing=AdjacentStepRoutingModel(g),
    )
    keys = np.random.default_rng(2).integers(0, 100, size=64)
    _, ledger = sorter.sort_sequence(keys)
    assert ledger.routing_rounds == 2 * 1  # adjacent-step R = 1 on a path


def test_fine_grained_snippet():
    from repro import MachineSorter, path_graph
    from repro.observability import LinkObservatory, Tracer

    ms = MachineSorter.for_factor(path_graph(3), 3)
    keys = np.random.default_rng(3).integers(0, 100, size=27)
    machine, ledger = ms.sort(keys)
    assert machine.rounds == ledger.total_rounds
    assert machine.lattice().shape == (3, 3, 3)

    tracer = Tracer()
    observatory = LinkObservatory(ms.network, bus=tracer.bus)
    ms.sort(keys, tracer=tracer)
    assert observatory.traffic()["operations"] == machine.operations


def test_sequence_and_network_snippet():
    from repro import multiway_merge, multiway_merge_sort
    from repro.core.network_builder import multiway_sort_network

    assert multiway_merge([[0, 2, 4, 6], [1, 3, 5, 7]]) == list(range(8))
    keys = list(np.random.default_rng(4).integers(0, 50, size=81))
    assert multiway_merge_sort(keys, n=3) == sorted(keys)
    net = multiway_sort_network(3, 3)
    assert net.depth > 0 and net.size > 0
    small = list(np.random.default_rng(5).integers(0, 9, size=27))
    assert net.normalized().apply(small) == sorted(small)


def test_predictions_snippet():
    from repro import path_graph
    from repro.analysis import measure_sort, network_prediction

    assert network_prediction(path_graph(8), 3).total_rounds > 0
    assert measure_sort(path_graph(8), 3).matches_theorem1


def test_extensions_snippet():
    from repro.core.adaptive import AdaptiveProductNetworkSorter
    from repro.extensions import bulk_multiway_merge_sort, randomized_slab_sort
    from repro import path_graph

    assert AdaptiveProductNetworkSorter.for_factor(path_graph(3), 3) is not None
    keys = list(np.random.default_rng(6).integers(0, 100, size=54))
    out, _ = bulk_multiway_merge_sort(keys, 3, 2)
    assert out == sorted(keys)
    keys2 = list(np.random.default_rng(7).integers(0, 10**6, size=64))
    import random

    out2, _ = randomized_slab_sort(keys2, 4, 3, slack=1.5, rng=random.Random(0))
    assert out2 == sorted(keys2)


def test_viz_snippet():
    from repro.viz import render_snake_path

    assert "0 -> 1 -> 2" in render_snake_path(3)
