"""A synchronous product-network multiprocessor, simulated (paper §4 model).

Each node of ``PG_r`` holds exactly one key.  In one synchronous round every
node may participate in at most one compare-exchange with a partner in a
common factor subgraph — a single link traversal when the partners are
adjacent, a permutation-routing episode (cost measured by
:mod:`repro.machine.routing`) when they are not.  "During the sorting
algorithm, each processor needs enough memory to hold at most two values
being compared" (§4); the machine enforces the one-key-per-node invariant
and validates that every requested operation is actually realisable on the
network's links.

This simulator is deliberately *slow but exact*: it exists to certify that
every data movement performed by the faster NumPy lattice implementation is
legal on the physical topology, and to measure true round counts including
routing congestion.  Benchmarks at scale use the lattice implementation;
cross-checks at small ``N, r`` use this one.

:meth:`NetworkMachine.compare_exchange` is the one place that derives the
facts of a super-step — each pair's dimension and adjacency, the routed
paths, the link traversals charged — and, when the machine was given an
active :class:`~repro.observability.events.EventBus`, it publishes them
once as a ``machine_step`` event.  Every per-step observer (the timeline,
the topology observatory, the metrics subscriber, the machine emitter) is a
plain subscriber to that stream.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..graphs.product import ProductGraph
from ..observability.events import EventBus, TraceEvent, clock
from ..schedule.compiled import reject_nan
from .routing import StepRouting, route_partial_permutation

__all__ = ["NetworkMachine"]

Label = tuple[int, ...]


class NetworkMachine:
    """State and operation log of one simulated product-network machine.

    Parameters
    ----------
    network:
        The :class:`ProductGraph` being simulated.
    keys:
        Initial key of every node, as a flat array in the node's
        :meth:`ProductGraph.flat_index` order (C order of the key lattice).
    bus:
        optional :class:`~repro.observability.events.EventBus`; while it has
        subscribers, every super-step is published on it as one
        ``machine_step`` event.
    """

    def __init__(self, network: ProductGraph, keys, bus: EventBus | None = None) -> None:
        self.network = network
        keys = np.asarray(keys)
        if keys.shape != (network.num_nodes,):
            raise ValueError(
                f"need one key per node: expected shape ({network.num_nodes},), got {keys.shape}"
            )
        reject_nan(keys)
        self.keys = keys.copy()
        self.bus = bus
        #: synchronous rounds elapsed (compare-exchange + routing)
        self.rounds = 0
        #: total key comparisons performed
        self.comparisons = 0
        #: number of compare-exchange super-steps issued
        self.operations = 0

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def lattice(self) -> np.ndarray:
        """Current keys as an ``(N,)*r`` lattice indexed by node label."""
        return self.keys.reshape(self.network.shape)

    def key_at(self, label: Label):
        """Key currently held by the node with the given label."""
        return self.keys[self.network.flat_index(label)]

    # ------------------------------------------------------------------
    # the one communication primitive
    # ------------------------------------------------------------------
    def compare_exchange(self, pairs: list[tuple[Label, Label]]) -> int:
        """One parallel compare-exchange super-step.

        ``pairs`` lists ``(lo_label, hi_label)`` node pairs; after the step
        the ``lo`` node of each pair holds the smaller key and the ``hi``
        node the larger.  All pairs execute simultaneously.  Validation
        enforces the §4 model:

        * pairs are disjoint (a node compares at most once per step), and
        * the two nodes of a pair differ in exactly one symbol position —
          i.e. they lie in a common ``G`` subgraph, the only place the
          algorithm ever compares.

        The charged cost is 1 round when every pair is a network edge;
        otherwise the pairs are grouped by the ``G`` subgraph they live in,
        each subgraph's simultaneous two-way key exchange is routed by
        :func:`repro.machine.routing.route_partial_permutation`, and the step
        costs the worst subgraph's makespan (all subgraphs route concurrently
        — they are link-disjoint by construction).

        With an active :attr:`bus`, the step is published as one
        ``machine_step`` event whose attrs carry every derived fact:
        ``step`` (0-based index), ``pairs`` (the label pairs), ``flat_pairs``
        (the same pairs as flat node ids), ``rounds`` (the charge),
        ``dimensions`` / ``pair_adjacent`` (per pair: paper dimension, 1 =
        rightmost symbol, and whether the partners share a factor edge),
        ``dimension`` (the step's single dimension, ``None`` when mixed),
        ``adjacent`` (every pair adjacent), ``utilisation`` (fraction of
        nodes engaged), ``link_traversals`` (two per pair of an adjacent
        step — the two-way key exchange — otherwise the routed paths' hops)
        and ``routes`` (a :class:`~repro.machine.routing.StepRouting` with
        the per-packet label routes and buffer occupancy of a routed step,
        ``None`` for an adjacent one).

        Returns the rounds charged (also accumulated on :attr:`rounds`).
        """
        if not pairs:
            return 0
        net = self.network
        seen: set[int] = set()
        # (dimension index, frozen rest-of-label) -> list of (sym_a, sym_b, flat_a, flat_b)
        by_subgraph: dict[tuple[int, Label], list[tuple[int, int, int, int]]] = defaultdict(list)
        flat_pairs: list[tuple[int, int]] = []
        dimensions: list[int] = []
        pair_adjacent: list[bool] = []
        for lo, hi in pairs:
            ia, ib = net.flat_index(lo), net.flat_index(hi)
            if ia == ib or ia in seen or ib in seen:
                raise ValueError(f"pairs must be disjoint; offending pair {lo}, {hi}")
            seen.add(ia)
            seen.add(ib)
            flat_pairs.append((ia, ib))
            diff = [i for i, (a, b) in enumerate(zip(lo, hi)) if a != b]
            if len(diff) != 1:
                raise ValueError(
                    f"compare-exchange partners must share a G subgraph "
                    f"(differ in exactly one position): {lo} vs {hi}"
                )
            d = diff[0]
            rest = lo[:d] + lo[d + 1 :]
            by_subgraph[(d, rest)].append((lo[d], hi[d], ia, ib))
            dimensions.append(net.r - d)
            pair_adjacent.append(net.factor.has_edge(lo[d], hi[d]))

        all_adjacent = all(pair_adjacent)
        routes: StepRouting | None = None
        if all_adjacent:
            cost = 1
            traversals = 2 * len(pairs)
        else:
            # route every subgraph's simultaneous two-way exchange; the
            # subgraphs are link-disjoint, so the step's cost is the worst
            # makespan and the routed paths can be reported side by side
            cost = 0
            full_paths: list[tuple[Label, ...]] = []
            occupancy: list[int] = []
            for (d, rest), items in by_subgraph.items():
                destinations: dict[int, int] = {}
                for sa, sb, _, _ in items:
                    destinations[sa] = sb
                    destinations[sb] = sa
                res = route_partial_permutation(net.factor, destinations)
                cost = max(cost, res.makespan)
                for sym_path in res.paths.values():
                    full_paths.append(
                        tuple(rest[:d] + (sym,) + rest[d:] for sym in sym_path)
                    )
                for t, depth in enumerate(res.round_occupancy):
                    if t < len(occupancy):
                        occupancy[t] = max(occupancy[t], depth)
                    else:
                        occupancy.append(depth)
            routes = StepRouting(
                paths=tuple(full_paths),
                makespan=cost,
                round_occupancy=tuple(occupancy),
                peak_buffer_depth=max(occupancy, default=0),
            )
            traversals = routes.link_traversals

        # execute the exchanges
        for items in by_subgraph.values():
            for _, _, ia, ib in items:
                a, b = self.keys[ia], self.keys[ib]
                if b < a:
                    self.keys[ia], self.keys[ib] = b, a
        self.comparisons += len(pairs)
        self.rounds += cost
        self.operations += 1
        bus = self.bus
        if bus is not None and bus.active:
            bus.publish(
                TraceEvent(
                    kind="machine_step",
                    name="compare_exchange",
                    time=clock(),
                    attrs={
                        "step": self.operations - 1,
                        "pairs": tuple(pairs),
                        "flat_pairs": tuple(flat_pairs),
                        "rounds": cost,
                        "dimensions": tuple(dimensions),
                        "pair_adjacent": tuple(pair_adjacent),
                        "dimension": dimensions[0] if len(set(dimensions)) == 1 else None,
                        "adjacent": all_adjacent,
                        "utilisation": 2 * len(pairs) / net.num_nodes,
                        "link_traversals": traversals,
                        "routes": routes,
                    },
                )
            )
        return cost

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetworkMachine({self.network!r}, rounds={self.rounds}, "
            f"comparisons={self.comparisons})"
        )
