"""Tests for the topology observatory: per-link accounting, imbalance
indices, heatmap/SVG rendering and the ``repro topo`` CLI."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import pytest

from repro.cli import main
from repro.core.machine_sort import MachineSorter
from repro.graphs import ProductGraph, complete_binary_tree, k2, path_graph, petersen_graph
from repro.machine.machine import NetworkMachine
from repro.observability import (
    EventBus,
    LinkObservatory,
    MetricsRegistry,
    MetricsSubscriber,
    Tracer,
    phase_key,
)
from repro.observability.heatmap import (
    phase_dimension_matrix,
    render_imbalance_table,
    render_topology_heatmap,
    topology_html,
    topology_json,
    topology_svg,
)
from repro.observability.topology import UNATTRIBUTED, gini
from repro.viz import heat_shade, render_heatmap


def observed_sort(factor, r, seed=0):
    """Run one machine sort under full telemetry; return the observatory."""
    tracer = Tracer()
    sorter = MachineSorter.for_factor(factor, r)
    obs = LinkObservatory(sorter.network, bus=tracer.bus)
    keys = np.random.default_rng(seed).integers(0, 2**31, size=sorter.network.num_nodes)
    sorter.sort(keys, tracer=tracer)
    return obs, sorter.network


class TestPhaseKey:
    def test_bare_name_without_dim(self):
        assert phase_key("cleanup") == "cleanup"

    def test_dim_suffix(self):
        assert phase_key("merge", 3) == "merge[d3]"

    def test_phase_summary_and_observatory_agree(self):
        # the satellite requirement: both consumers key phases identically
        from repro.observability import phase_summary

        obs, _ = observed_sort(k2(), 3)
        tracer = Tracer()
        sorter = MachineSorter.for_factor(k2(), 3)
        keys = np.random.default_rng(0).integers(0, 2**31, size=8)
        sorter.sort(keys, tracer=tracer)
        table = phase_summary(tracer)
        for phase in obs.phase_edge_loads():
            assert phase in table


class TestEdgeAccounting:
    def test_hypercube_totals_match_recorder_exactly(self):
        # the edge histogram's total equals the machine's published
        # traversal count on the 3-D hypercube cell, exactly
        obs, _ = observed_sort(k2(), 3)
        traffic = obs.traffic()
        assert obs.total_traversals == traffic["link_traversals"]
        assert obs.total_traversals > 0
        # adjacent-only network: every pair is two directed traversals
        assert traffic["routed_pairs"] == 0
        assert obs.total_traversals == 2 * traffic["adjacent_pairs"]

    def test_routed_network_totals_match_recorder_exactly(self):
        factor = complete_binary_tree(2).canonically_labelled()
        obs, _ = observed_sort(factor, 3)
        traffic = obs.traffic()
        assert traffic["routed_pairs"] > 0
        assert traffic["routed_link_traversals"] > 0
        # routed steps charge the wires of their actual paths
        assert obs.total_traversals == traffic["link_traversals"]

    def test_per_phase_histograms_sum_to_global(self):
        factor = complete_binary_tree(2).canonically_labelled()
        obs, _ = observed_sort(factor, 3)
        summed = Counter()
        for loads in obs.phase_edge_loads().values():
            summed.update(loads)
        assert dict(summed) == obs.edge_loads()

    def test_every_edge_is_a_network_wire(self):
        obs, network = observed_sort(k2(), 3)
        for u, v in obs.edge_loads():
            assert network.is_edge(network.label_of(u), network.label_of(v))

    def test_dimension_split_sums_to_total(self):
        obs, _ = observed_sort(path_graph(3), 3)
        per_dim = obs.dimension_indices()
        assert set(per_dim) == {1, 2, 3}
        assert sum(ix.total_traversals for ix in per_dim.values()) == obs.total_traversals

    def test_untraced_steps_fall_into_unattributed_bucket(self):
        network = ProductGraph(k2(), 2)
        bus = EventBus()
        obs = LinkObservatory(network, bus=bus)
        machine = NetworkMachine(network, np.arange(4), bus=bus)
        # no tracer on the bus: steps arrive with no enclosing span
        machine.compare_exchange([((0, 0), (0, 1)), ((1, 0), (1, 1))])
        assert list(obs.phase_edge_loads()) == [UNATTRIBUTED]

    def test_reset_forgets_everything(self):
        obs, _ = observed_sort(k2(), 2)
        assert obs.total_traversals > 0
        obs.reset()
        assert obs.total_traversals == 0
        assert obs.steps == 0
        assert obs.edge_loads() == {}


class TestBufferDepth:
    def test_peak_buffer_depth_small_on_canonical_factors(self):
        # acceptance criterion: the routing.py dilation claim, measured —
        # canonically-labelled factors route over <= 3-hop paths, so
        # store-and-forward buffers stay within depth 3
        for factor, r in [
            (complete_binary_tree(2).canonically_labelled(), 3),
            (petersen_graph().canonically_labelled(), 2),
        ]:
            obs, _ = observed_sort(factor, r)
            assert obs.peak_buffer_depth <= 3
            assert obs.traffic()["peak_buffer_depth"] == obs.peak_buffer_depth

    def test_adjacent_only_network_never_buffers(self):
        obs, _ = observed_sort(k2(), 3)
        assert obs.peak_buffer_depth == 0
        assert obs.round_occupancy() == ()

    def test_phase_indices_carry_buffer_depth(self):
        factor = complete_binary_tree(2).canonically_labelled()
        obs, _ = observed_sort(factor, 3)
        depths = [ix.peak_buffer_depth for ix in obs.phase_indices().values()]
        assert max(depths) == obs.peak_buffer_depth > 0


class TestNodeUtilisation:
    def test_busy_counts_bounded_by_steps(self):
        obs, network = observed_sort(path_graph(3), 3)
        busy = obs.node_busy_steps()
        assert all(0 < b <= obs.steps for b in busy.values())
        util = obs.node_utilisation()
        assert 0.0 < util["mean_busy_fraction"] <= 1.0
        assert util["idle_nodes"] == network.num_nodes - len(busy)


class TestGini:
    def test_uniform_load_is_zero(self):
        assert gini([5, 5, 5, 5], 4) == pytest.approx(0.0)

    def test_single_hot_wire_approaches_one(self):
        assert gini([100], 100) == pytest.approx(0.99)

    def test_empty_and_zero(self):
        assert gini([], 10) == 0.0
        assert gini([0, 0], 2) == 0.0
        assert gini([1], 0) == 0.0


class TestCongestionIndices:
    def test_structural_wire_counts(self):
        obs, network = observed_sort(path_graph(3), 3)
        idx = obs.congestion()
        assert idx.directed_edges == 2 * network.num_edges
        per_dim = obs.dimension_indices()
        for d in (1, 2, 3):
            assert per_dim[d].directed_edges == (
                2 * len(network.factor.edges) * network.n ** (network.r - 1)
            )

    def test_mean_and_max_consistency(self):
        obs, _ = observed_sort(k2(), 3)
        idx = obs.congestion()
        assert idx.max_load >= idx.mean_load > 0
        assert idx.total_traversals == pytest.approx(idx.mean_load * idx.directed_edges)
        assert 0.0 <= idx.gini < 1.0

    def test_snapshot_is_json_safe(self):
        obs, _ = observed_sort(k2(), 3)
        snap = json.loads(json.dumps(obs.snapshot()))
        assert snap["total_traversals"] == obs.total_traversals
        assert set(snap["per_dimension"]) == {"1", "2", "3"}
        assert snap["per_phase"]


class TestRendering:
    def test_render_heatmap_shape_validation(self):
        with pytest.raises(ValueError):
            render_heatmap([[1, 2]], ["a", "b"], ["x", "y"])
        with pytest.raises(ValueError):
            render_heatmap([[1, 2]], ["a"], ["x"])

    def test_heat_shade_ramp(self):
        assert heat_shade(0, 10) == " "
        assert heat_shade(10, 10) == "█"
        assert heat_shade(5, 0) == " "

    def test_heatmap_has_total_row_and_scale(self):
        obs, _ = observed_sort(k2(), 3)
        text = render_topology_heatmap(obs)
        assert "TOTAL" in text
        assert "scale:" in text
        assert "d3" in text

    def test_matrix_total_row_sums_columns(self):
        obs, _ = observed_sort(path_graph(3), 3)
        rows, cols, matrix = phase_dimension_matrix(obs)
        assert rows[-1] == "TOTAL"
        for c in range(len(cols)):
            assert matrix[-1][c] == sum(row[c] for row in matrix[:-1])
        assert sum(matrix[-1]) == obs.total_traversals

    def test_imbalance_table_lists_all_scopes(self):
        obs, _ = observed_sort(k2(), 3)
        table = render_imbalance_table(obs)
        assert "network" in table
        assert "dim 1" in table and "dim 3" in table
        assert "gini" in table

    def test_topology_json_round_trips(self):
        obs, _ = observed_sort(k2(), 2)
        doc = json.loads(topology_json(obs))
        assert doc["steps"] == obs.steps

    def test_svg_is_well_formed_xml(self):
        obs, _ = observed_sort(k2(), 3)
        root = ET.fromstring(topology_svg(obs))
        assert root.tag.endswith("svg")
        texts = [e.text for e in root.iter() if e.tag.endswith("text")]
        assert any("TOTAL" in (t or "") for t in texts)

    def test_html_wraps_the_svg(self):
        obs, _ = observed_sort(k2(), 2)
        html = topology_html(obs)
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "<?xml" not in html


class TestMetricsInstruments:
    def test_link_traversal_counter_matches_observatory(self):
        factor = complete_binary_tree(2).canonically_labelled()
        tracer = Tracer()
        sorter = MachineSorter.for_factor(factor, 3)
        obs = LinkObservatory(sorter.network, bus=tracer.bus)
        registry = MetricsRegistry()
        tracer.bus.subscribe(MetricsSubscriber(registry))
        keys = np.random.default_rng(0).integers(0, 2**31, size=sorter.network.num_nodes)
        sorter.sort(keys, tracer=tracer)
        counter = registry.counter("repro_link_traversals_total")
        total = counter.value(kind="adjacent") + counter.value(kind="routed")
        assert total == obs.total_traversals
        assert registry.gauge("repro_peak_buffer_depth").value() == obs.peak_buffer_depth
        occupancy = registry.histogram("repro_buffer_occupancy").snapshot_series()
        assert occupancy["count"] == len(obs.round_occupancy())


class TestCli:
    def test_topo_heatmap_to_stdout(self, capsys):
        assert main(["topo", "--factor", "k2", "--r", "3", "--heatmap"]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out and "scale:" in out

    def test_topo_imbalance_to_stdout(self, capsys):
        assert main(["topo", "--factor", "k2", "--r", "3", "--imbalance"]) == 0
        out = capsys.readouterr().out
        assert "gini" in out and "network" in out

    def test_topo_default_shows_both(self, capsys):
        assert main(["topo", "--factor", "k2", "--r", "2"]) == 0
        out = capsys.readouterr().out
        assert "scale:" in out and "gini" in out

    def test_topo_export_svg(self, tmp_path, capsys):
        path = tmp_path / "topo.svg"
        assert main(
            ["topo", "--factor", "k2", "--r", "3", "--export", "svg", "--out", str(path)]
        ) == 0
        tree = ET.parse(path)  # raises on malformed XML
        assert tree.getroot().tag.endswith("svg")

    def test_topo_export_json(self, tmp_path):
        path = tmp_path / "topo.json"
        assert main(
            ["topo", "--factor", "path", "--n", "3", "--r", "2",
             "--export", "json", "--out", str(path)]
        ) == 0
        doc = json.loads(path.read_text())
        assert doc["total_traversals"] > 0
