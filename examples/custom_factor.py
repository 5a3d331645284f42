#!/usr/bin/env python
"""Define your own interconnect and sort on it — the downstream-user path.

The paper's promise to a machine designer: pick *any* connected graph as
the building block of your network and the sorting algorithm comes for
free.  This example plays that designer: it invents a 6-node "bowtie"
topology, inspects what the framework infers about it (Hamiltonian path?
embedding quality? which S₂/R cost models apply?), relabels it canonically,
builds the 3-dimensional product (216 nodes), sorts on it, and prints the
measured invoice next to the Theorem 1 prediction — plus the same exercise
on the fine-grained machine for the 2-D case, with a traffic profile.

Run:  python examples/custom_factor.py
"""

from __future__ import annotations

import numpy as np

from repro import FactorGraph, MachineSorter, ProductNetworkSorter, lattice_to_sequence
from repro.analysis import network_prediction
from repro.observability import LinkObservatory, Tracer
from repro.viz import render_factor_graph


def main() -> None:
    # a "bowtie": two triangles sharing a bridge edge
    bowtie = FactorGraph.from_edge_list(
        6,
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)],
        name="bowtie",
    )
    print(render_factor_graph(bowtie))

    canon = bowtie.canonically_labelled()
    print("\nafter canonical relabelling:")
    print(render_factor_graph(canon))

    # the cost models the framework selects for this topology
    pred = network_prediction(canon, 3)
    print(
        f"\nselected models: S2 = {pred.s2_model} ({pred.s2_rounds} rounds), "
        f"R = {pred.routing_model} ({pred.routing_rounds} rounds)"
    )
    print(f"Theorem 1 prediction for r=3: {pred.total_rounds} rounds  [{pred.asymptotic}]")

    # sort 216 keys on the 3-dimensional bowtie product
    sorter = ProductNetworkSorter.for_factor(canon, 3)
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 10**6, size=216)
    lattice, ledger = sorter.sort_sequence(keys)
    assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
    print(f"\nsorted 216 keys: measured {ledger.total_rounds} rounds "
          f"({ledger.s2_calls} block sorts, {ledger.routing_calls} routings)")
    assert ledger.total_rounds == pred.total_rounds

    # fine-grained run at r = 2 with traffic instrumentation
    ms = MachineSorter.for_factor(canon, 2)
    keys2 = rng.integers(0, 10**6, size=36)
    tracer = Tracer()
    observatory = LinkObservatory(ms.network, bus=tracer.bus)
    machine, _ = ms.sort(keys2, tracer=tracer)
    traffic = observatory.traffic()
    assert np.array_equal(lattice_to_sequence(machine.lattice()), np.sort(keys2))
    print(
        f"\nfine-grained bowtie^2 sort: {machine.rounds} measured rounds, "
        f"{traffic['pair_count']} compare-exchanges "
        f"({traffic['adjacent_pairs']} adjacent, {traffic['routed_pairs']} routed)"
    )
    print("\nYour topology worked on the first try — that is the paper's point.")


if __name__ == "__main__":
    main()
