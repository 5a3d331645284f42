"""Tests for the lattice backend (§4 implementation + §4.1 accounting)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.complexity import (
    merge_routing_calls,
    merge_s2_calls,
    sort_rounds,
    sort_routing_calls,
    sort_s2_calls,
)
from repro.core.adaptive import AdaptiveProductNetworkSorter
from repro.core.lattice_sort import ProductNetworkSorter
from repro.core.multiway_merge import multiway_merge
from repro.core.sorting import multiway_merge_sort
from repro.graphs import cycle_graph, k2, path_graph
from repro.observability import CallbackSubscriber, EventBus, Tracer
from repro.orders import lattice_to_sequence, sequence_to_lattice
from repro.sorters2d import AnalyticSorterModel, ConstantRoutingModel


def _unit_sorter():
    """S_2 = 1, R = 1: makes ledger totals equal call counts."""
    return (
        AnalyticSorterModel(name="unit", formula=lambda n: 1),
        ConstantRoutingModel(1),
    )


class TestCorrectness:
    def test_sorts_every_small_factor(self, any_factor, rng):
        r = 2 if any_factor.n > 6 else 3
        sorter = ProductNetworkSorter.for_factor(any_factor, r)
        keys = rng.integers(0, 2**20, size=sorter.network.num_nodes)
        lattice, _ = sorter.sort_sequence(keys)
        assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))

    @pytest.mark.parametrize("n,r", [(2, 2), (2, 6), (3, 4), (4, 3), (5, 2), (3, 5)])
    def test_geometry_sweep(self, n, r, rng):
        sorter = ProductNetworkSorter.for_factor(path_graph(n), r)
        keys = rng.integers(0, 1000, size=n**r)
        lattice, _ = sorter.sort_sequence(keys)
        assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))

    def test_input_not_modified(self, rng):
        sorter = ProductNetworkSorter.for_factor(path_graph(3), 3)
        keys = rng.integers(0, 100, size=27)
        backup = keys.copy()
        sorter.sort_sequence(keys)
        assert np.array_equal(keys, backup)

    def test_matches_sequence_level_sort(self, rng):
        """The lattice backend and the §3.3 sequence algorithm agree."""
        keys = rng.integers(0, 50, size=81)
        seq_result = multiway_merge_sort(list(keys), 3)
        sorter = ProductNetworkSorter.for_factor(path_graph(3), 4)
        lattice, _ = sorter.sort_sequence(keys)
        assert list(lattice_to_sequence(lattice)) == seq_result

    def test_sorted_reference(self, rng):
        sorter = ProductNetworkSorter.for_factor(path_graph(3), 3)
        keys = rng.integers(0, 100, size=27)
        lattice, _ = sorter.sort_sequence(keys)
        assert np.array_equal(lattice, sorter.sorted_reference(keys.reshape(3, 3, 3)))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_property_duplicates_and_negatives(self, seed):
        rng = np.random.default_rng(seed)
        sorter = ProductNetworkSorter.for_factor(cycle_graph(3), 3)
        keys = rng.integers(-5, 5, size=27)
        lattice, _ = sorter.sort_sequence(keys)
        assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))

    def test_float_keys(self, rng):
        sorter = ProductNetworkSorter.for_factor(path_graph(4), 2)
        keys = rng.normal(size=16)
        lattice, _ = sorter.sort_sequence(keys)
        assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))


class TestMemoryLayout:
    """Lattices that are not C-contiguous (Fortran order, permuted axes,
    reversed strides) sort and merge like their C-ordered copies on every
    path: untraced, traced, adaptive and merge-only."""

    LAYOUTS = {
        "fortran": np.asfortranarray,
        "transposed": lambda x: x.T,
        "reversed": lambda x: x[::-1],
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("cls", [ProductNetworkSorter, AdaptiveProductNetworkSorter])
    @pytest.mark.parametrize("traced", [False, True])
    def test_sort_lattice(self, layout, cls, traced, rng):
        sorter = cls.for_factor(path_graph(3), 3)
        lattice = self.LAYOUTS[layout](rng.integers(0, 100, size=(3, 3, 3)))
        assert not lattice.flags.c_contiguous
        backup = lattice.copy()
        out, ledger = sorter.sort_lattice(lattice, tracer=Tracer() if traced else None)
        assert np.array_equal(out, sorter.sorted_reference(lattice))
        assert np.array_equal(lattice, backup)
        _, expected = sorter.sort_lattice(np.ascontiguousarray(lattice))
        assert ledger.records == expected.records

    @pytest.mark.parametrize("cls", [ProductNetworkSorter, AdaptiveProductNetworkSorter])
    @pytest.mark.parametrize("traced", [False, True])
    def test_merge_sorted_subgraphs(self, cls, traced, rng):
        sorter = cls.for_factor(path_graph(3), 3)
        keys = rng.integers(0, 100, size=(3, 9))
        sorted_slices = [sequence_to_lattice(np.sort(keys[u]), 3, 2) for u in range(3)]
        lattice = np.asfortranarray(np.stack(sorted_slices))
        merged, _ = sorter.merge_sorted_subgraphs(lattice, tracer=Tracer() if traced else None)
        assert np.array_equal(merged, sorter.sorted_reference(lattice))


class TestValidation:
    def test_rejects_r1(self):
        with pytest.raises(ValueError):
            ProductNetworkSorter.for_factor(path_graph(3), 1)

    def test_rejects_wrong_shapes(self):
        sorter = ProductNetworkSorter.for_factor(path_graph(3), 2)
        with pytest.raises(ValueError):
            sorter.sort_sequence(np.arange(8))
        with pytest.raises(ValueError):
            sorter.sort_lattice(np.zeros((3, 4)))

    def test_merge_requires_sorted_slices(self, rng):
        sorter = ProductNetworkSorter.for_factor(path_graph(3), 3)
        with pytest.raises(ValueError):
            sorter.merge_sorted_subgraphs(rng.integers(0, 100, size=(3, 3, 3)))


class TestTheorem1Accounting:
    """The ledger must reproduce Theorem 1's invoice exactly."""

    def test_call_structure(self, any_factor, rng):
        r = 2 if any_factor.n > 6 else 3
        sorter = ProductNetworkSorter.for_factor(any_factor, r)
        keys = rng.integers(0, 1000, size=sorter.network.num_nodes)
        _, ledger = sorter.sort_sequence(keys)
        assert ledger.s2_calls == sort_s2_calls(r)
        assert ledger.routing_calls == sort_routing_calls(r)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_unit_costs_expose_formula(self, r, rng):
        """With S_2 = R = 1 the total *is* (r-1)^2 + (r-1)(r-2)."""
        s2, routing = _unit_sorter()
        sorter = ProductNetworkSorter.for_factor(path_graph(3), r, s2, routing)
        keys = rng.integers(0, 100, size=3**r)
        _, ledger = sorter.sort_sequence(keys)
        assert ledger.total_rounds == (r - 1) ** 2 + (r - 1) * (r - 2)

    @pytest.mark.parametrize("n,r", [(3, 3), (4, 3), (3, 4), (2, 5), (5, 3)])
    def test_total_matches_theorem1(self, n, r, rng):
        factor = path_graph(n) if n > 2 else k2()
        sorter = ProductNetworkSorter.for_factor(factor, r)
        keys = rng.integers(0, 1000, size=n**r)
        _, ledger = sorter.sort_sequence(keys)
        s2 = sorter.sorter2d.rounds(n)
        routing = sorter.routing.rounds(n)
        assert ledger.total_rounds == sort_rounds(r, s2, routing)

    def test_phase_log_detail(self, rng):
        sorter = ProductNetworkSorter.for_factor(path_graph(3), 3)
        keys = rng.integers(0, 100, size=27)
        _, ledger = sorter.sort_sequence(keys)
        phases = [rec.phase for rec in ledger.records]
        assert phases.count("S2") == ledger.s2_calls
        assert phases.count("R") == ledger.routing_calls
        assert ledger.records[0].detail == "initial PG2 block sorts"

    def test_keep_log_false(self, rng):
        sorter = ProductNetworkSorter.for_factor(path_graph(3), 3, keep_log=False)
        keys = rng.integers(0, 100, size=27)
        _, ledger = sorter.sort_sequence(keys)
        assert ledger.records == []
        assert ledger.total_rounds > 0


class TestLemma3Merge:
    @pytest.mark.parametrize("n,k", [(2, 3), (3, 3), (3, 4), (4, 3), (2, 5)])
    def test_merge_cost_matches_lemma3(self, n, k, rng):
        """M_k = 2(k-2)(S_2 + R) + S_2, measured on the top-level merge."""
        factor = path_graph(n) if n > 2 else k2()
        sorter = ProductNetworkSorter.for_factor(factor, k)
        # build a lattice whose [u]PG_{k-1} slices are snake-sorted
        keys = rng.integers(0, 1000, size=(n, n ** (k - 1)))
        lattice = np.stack(
            [sequence_to_lattice(np.sort(keys[u]), n, k - 1) for u in range(n)]
        )
        merged, ledger = sorter.merge_sorted_subgraphs(lattice)
        assert np.array_equal(lattice_to_sequence(merged), np.sort(keys, axis=None))
        assert ledger.s2_calls == merge_s2_calls(k)
        assert ledger.routing_calls == merge_routing_calls(k)
        s2 = sorter.sorter2d.rounds(n)
        routing = sorter.routing.rounds(n)
        assert ledger.total_rounds == 2 * (k - 2) * (s2 + routing) + s2

    def test_merge_matches_sequence_merge(self, rng):
        """Network merge and §3.1 sequence merge produce identical data."""
        n, k = 3, 3
        seqs = [sorted(rng.integers(0, 40, size=n ** (k - 1)).tolist()) for _ in range(n)]
        expect = multiway_merge(seqs)
        lattice = np.stack([sequence_to_lattice(np.array(s), n, k - 1) for s in seqs])
        sorter = ProductNetworkSorter.for_factor(path_graph(n), k)
        merged, _ = sorter.merge_sorted_subgraphs(lattice)
        assert list(lattice_to_sequence(merged)) == expect


def _capture_bus(cb) -> EventBus:
    bus = EventBus()
    bus.subscribe(CallbackSubscriber(cb))
    return bus


class TestTraceEvents:
    def test_events_fire_in_order(self, rng):
        sorter = ProductNetworkSorter.for_factor(path_graph(3), 3)
        keys = rng.integers(0, 100, size=27)
        events = []
        sorter.sort_sequence(keys, tracer=_capture_bus(lambda e, lat: events.append(e)))
        assert events[0] == "initial_sorted"
        assert "merge3_after_step2" in events
        assert "merge3_step4_transposition0" in events
        assert "merge3_step4_transposition1" in events
        assert events[-1] == "after_merge_round_3"

    def test_trace_payloads_conserve_keys(self, rng):
        sorter = ProductNetworkSorter.for_factor(path_graph(3), 3)
        keys = rng.integers(0, 100, size=27)
        payloads = []
        sorter.sort_sequence(keys, tracer=_capture_bus(lambda e, lat: payloads.append(lat)))
        for lat in payloads:
            assert sorted(lat.ravel().tolist()) == sorted(keys.tolist())
