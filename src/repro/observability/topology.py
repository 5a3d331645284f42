"""The topology observatory: what every wire of ``PG_r`` actually carried.

The span tree knows *which phase ran when* and the timeline knows *how many
pairs each super-step engaged* — but neither can answer the
network-architecture question underneath the paper's §4 cost model: **which
links** carried the traffic, how evenly, and how deep the store-and-forward
buffers really got.  :class:`LinkObservatory` answers it by riding the same
:class:`~repro.observability.events.EventBus` as every other consumer:

* ``span_start`` / ``span_end`` events maintain the enclosing-phase stack
  (phase keys come from :func:`~repro.observability.events.phase_key`, the
  same normalisation ``phase_summary`` uses, so tables join);
* each ``machine_step`` event contributes its directed-link traversals —
  two per pair for an adjacent step (the two-way key exchange), the actual
  per-packet route hops (``StepRouting.paths``) for a routed step — to a
  global edge histogram *and* to the current phase's histogram.

On top of the raw counts the observatory computes congestion and
load-imbalance indices (:class:`CongestionIndex`) globally, per paper
dimension and per phase: max/mean directed-edge load over the *physical*
wires (idle wires count — imbalance is relative to the hardware), a Gini
coefficient of the load distribution, and the peak intermediate-node buffer
depth — the empirical check of routing.py's "buffers stay tiny" claim.

The observatory also keeps the run's traffic counters — operations, pairs
per paper dimension and the lanes they used, adjacent vs routed pairs, the
machine's link-traversal count — behind one :meth:`LinkObservatory.traffic`
view, the ``traffic`` block :mod:`~repro.observability.benchreg` persists.
Every per-step fact it counts is read off the event as the machine derived
it; the observatory derives none of them itself.

Invariants tests pin (and :mod:`~repro.observability.benchreg` snapshots
with zero tolerance):

* ``total_traversals`` (the edge histogram's sum) equals the machine's
  published ``link_traversals`` count exactly;
* the per-phase edge histograms sum to the global histogram;
* ``peak_buffer_depth <= 3`` for canonically-labelled factors (dilation-3
  linear embeddings).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any

from ..graphs.product import ProductGraph
from .events import EventBus, TraceEvent, phase_key

__all__ = ["CongestionIndex", "LinkObservatory", "UNATTRIBUTED"]

Label = tuple[int, ...]
Edge = tuple[int, int]  # directed (flat source, flat target)

#: phase key for machine steps seen outside any open span
UNATTRIBUTED = "(untraced)"


def gini(values: list[int], population: int) -> float:
    """Gini coefficient of ``values`` padded with zeros to ``population``.

    ``population`` is the number of wires that *could* have carried load;
    idle wires drive the coefficient up, exactly as they should — a single
    hot link in an otherwise idle network is maximal imbalance (→ 1), a
    perfectly uniform load is perfect balance (→ 0).
    """
    if population <= 0:
        return 0.0
    total = sum(values)
    if total == 0:
        return 0.0
    ordered = sorted(values)
    zeros = population - len(ordered)
    # Σ rank·x over the ascending padded vector; the zero pad contributes 0
    weighted = sum((zeros + i + 1) * x for i, x in enumerate(ordered))
    return 2.0 * weighted / (population * total) - (population + 1) / population


@dataclass(frozen=True)
class CongestionIndex:
    """Load-imbalance summary of one scope (whole network, dimension, phase)."""

    #: directed wires in scope (the physical capacity basis)
    directed_edges: int
    #: wires that carried at least one traversal
    used_edges: int
    #: total directed-link traversals
    total_traversals: int
    #: busiest single wire
    max_load: int
    #: traversals / directed_edges (idle wires included)
    mean_load: float
    #: Gini coefficient of the per-wire load distribution (0 = uniform)
    gini: float
    #: deepest intermediate-node buffer observed in scope
    peak_buffer_depth: int

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe form (what benchmark snapshots persist)."""
        return {
            "directed_edges": self.directed_edges,
            "used_edges": self.used_edges,
            "total_traversals": self.total_traversals,
            "max_load": self.max_load,
            "mean_load": self.mean_load,
            "gini": self.gini,
            "peak_buffer_depth": self.peak_buffer_depth,
        }


class LinkObservatory:
    """Per-link traffic accumulator riding the unified event bus.

    Parameters
    ----------
    network:
        the :class:`~repro.graphs.product.ProductGraph` being observed —
        supplies the structural wire counts every index is normalised by.
    bus:
        optional :class:`EventBus`; when given, the observatory subscribes
        itself (it is a regular subscriber — construct unattached and call
        :meth:`on_event` manually to replay a recorded stream).
    """

    def __init__(self, network: ProductGraph, bus: EventBus | None = None) -> None:
        self.network = network
        #: directed edge -> traversal count, whole run
        self._edge_loads: Counter = Counter()
        #: phase key -> directed edge -> traversal count
        self._phase_edge_loads: dict[str, Counter] = {}
        #: phase key -> deepest buffer any of its routed steps needed
        self._phase_buffer_depth: dict[str, int] = {}
        #: flat node index -> super-steps in which the node did work
        self._node_busy: Counter = Counter()
        #: per-round buffered-packet maxima, concatenated across routed steps
        self._occupancy: list[int] = []
        self._steps = 0
        self._routed_steps = 0
        # traffic counters (see :meth:`traffic`)
        self._pair_count = 0
        self._peak_utilisation = 0.0
        self._adjacent_pairs = 0
        self._link_traversals = 0
        self._routed_link_traversals = 0
        self._dimension_ops: Counter = Counter()
        #: paper dimension -> distinct factor-subgraph lanes (rest-of-label)
        self._dimension_lanes: dict[int, set[Label]] = {}
        # enclosing-phase stack: (span_id, phase key, inherited dim)
        self._stack: list[tuple[int | None, str, Any]] = []
        if bus is not None:
            bus.subscribe(self)

    # ------------------------------------------------------------------
    # event intake
    # ------------------------------------------------------------------
    def on_event(self, event: TraceEvent) -> None:
        if event.kind == "span_start":
            # dim inherits from the nearest ancestor (chrome-trace convention)
            inherited = self._stack[-1][2] if self._stack else None
            dim = event.attrs.get("dim", inherited)
            self._stack.append((event.span_id, phase_key(event.name, dim), dim))
        elif event.kind == "span_end":
            if self._stack and self._stack[-1][0] == event.span_id:
                self._stack.pop()
        elif event.kind == "machine_step":
            self._observe_step(event.attrs)

    def _observe_step(self, attrs: Any) -> None:
        phase = self._stack[-1][1] if self._stack else UNATTRIBUTED
        per_phase = self._phase_edge_loads.setdefault(phase, Counter())
        self._steps += 1
        pairs = attrs["pairs"]
        self._pair_count += len(pairs)
        self._peak_utilisation = max(self._peak_utilisation, attrs["utilisation"])
        self._link_traversals += attrs["link_traversals"]
        r = self.network.r
        for (lo, _), dim, adjacent in zip(pairs, attrs["dimensions"], attrs["pair_adjacent"]):
            self._dimension_ops[dim] += 1
            self._dimension_lanes.setdefault(dim, set()).add(lo[: r - dim] + lo[r - dim + 1 :])
            self._adjacent_pairs += adjacent
        routes = attrs["routes"]
        busy: set[int] = set()
        if routes is None:
            # purely adjacent step: each pair exchanges keys both ways
            for a, b in attrs["flat_pairs"]:
                busy.add(a)
                busy.add(b)
                for edge in ((a, b), (b, a)):
                    self._edge_loads[edge] += 1
                    per_phase[edge] += 1
        else:
            # routed step: charge the wires the packets actually rode;
            # relaying intermediates did work too, so they count as busy
            self._routed_steps += 1
            self._routed_link_traversals += attrs["link_traversals"]
            flat = self.network.flat_index
            for path in routes.paths:
                flats = [flat(label) for label in path]
                busy.update(flats)
                for a, b in zip(flats, flats[1:]):
                    self._edge_loads[(a, b)] += 1
                    per_phase[(a, b)] += 1
            self._occupancy.extend(routes.round_occupancy)
            depth = routes.peak_buffer_depth
            if depth > self._phase_buffer_depth.get(phase, 0):
                self._phase_buffer_depth[phase] = depth
        for node in busy:
            self._node_busy[node] += 1

    # ------------------------------------------------------------------
    # raw views
    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        """Machine super-steps observed."""
        return self._steps

    @property
    def routed_steps(self) -> int:
        """Super-steps that needed permutation routing."""
        return self._routed_steps

    @property
    def total_traversals(self) -> int:
        """Directed-link traversals of the whole run."""
        return sum(self._edge_loads.values())

    @property
    def peak_buffer_depth(self) -> int:
        """Deepest intermediate-node buffer any routed step needed."""
        return max(self._occupancy, default=0)

    def edge_loads(self) -> dict[Edge, int]:
        """Directed edge -> traversal count (used wires only)."""
        return dict(self._edge_loads)

    def phase_edge_loads(self) -> dict[str, dict[Edge, int]]:
        """Phase key -> its edge histogram (sums to :meth:`edge_loads`)."""
        return {k: dict(v) for k, v in self._phase_edge_loads.items()}

    def round_occupancy(self) -> tuple[int, ...]:
        """Per-round buffered-packet maxima across all routed steps."""
        return tuple(self._occupancy)

    def edge_dimension(self, edge: Edge) -> int:
        """Paper dimension (1 = rightmost symbol position) of a wire."""
        x = self.network.label_of(edge[0])
        y = self.network.label_of(edge[1])
        dim = self.network.differing_dimension(x, y)
        if dim is None:
            raise ValueError(f"{edge} does not lie in a single dimension")
        return dim

    def traffic(self) -> dict[str, Any]:
        """JSON-safe traffic counters of the run (benchreg's ``traffic`` block).

        ``operations`` super-steps engaged ``pair_count`` node pairs
        (``mean_parallelism`` per step; the busiest step kept
        ``peak_node_utilisation`` of the nodes busy).  Pairs split into
        ``adjacent_pairs`` (partners share a factor edge) and
        ``routed_pairs``; ``dimension_ops`` counts pairs per paper dimension
        (1 = rightmost symbol) and ``dimension_lanes`` the distinct factor
        subgraphs each dimension used.  ``link_traversals`` is the machine's
        count of directed-link traversals, ``routed_link_traversals`` the
        routed steps' share of it.
        """
        steps = self._steps
        return {
            "operations": steps,
            "pair_count": self._pair_count,
            "mean_parallelism": self._pair_count / steps if steps else 0.0,
            "peak_node_utilisation": self._peak_utilisation,
            "adjacent_pairs": self._adjacent_pairs,
            "routed_pairs": self._pair_count - self._adjacent_pairs,
            "routed_link_traversals": self._routed_link_traversals,
            "link_traversals": self._link_traversals,
            "peak_buffer_depth": self.peak_buffer_depth,
            "dimension_ops": {str(d): c for d, c in sorted(self._dimension_ops.items())},
            "dimension_lanes": {
                str(d): len(lanes) for d, lanes in sorted(self._dimension_lanes.items())
            },
        }

    # ------------------------------------------------------------------
    # node utilisation
    # ------------------------------------------------------------------
    def node_busy_steps(self) -> dict[int, int]:
        """Flat node index -> super-steps in which the node did work."""
        return dict(self._node_busy)

    def node_utilisation(self) -> dict[str, float]:
        """Busy/idle summary over all nodes and super-steps."""
        nodes = self.network.num_nodes
        if not nodes or not self._steps:
            return {"mean_busy_fraction": 0.0, "min_busy_fraction": 0.0,
                    "max_busy_fraction": 0.0, "idle_nodes": nodes}
        fractions = [self._node_busy.get(i, 0) / self._steps for i in range(nodes)]
        return {
            "mean_busy_fraction": sum(fractions) / nodes,
            "min_busy_fraction": min(fractions),
            "max_busy_fraction": max(fractions),
            "idle_nodes": sum(1 for f in fractions if f == 0.0),
        }

    # ------------------------------------------------------------------
    # congestion / imbalance indices
    # ------------------------------------------------------------------
    def _index(self, loads: Counter | dict[Edge, int], directed_edges: int,
               buffer_depth: int) -> CongestionIndex:
        values = list(loads.values())
        total = sum(values)
        return CongestionIndex(
            directed_edges=directed_edges,
            used_edges=sum(1 for v in values if v),
            total_traversals=total,
            max_load=max(values, default=0),
            mean_load=total / directed_edges if directed_edges else 0.0,
            gini=gini(values, directed_edges),
            peak_buffer_depth=buffer_depth,
        )

    def congestion(self) -> CongestionIndex:
        """Whole-network index over all ``2·|E(PG_r)|`` directed wires."""
        return self._index(self._edge_loads, 2 * self.network.num_edges,
                           self.peak_buffer_depth)

    def dimension_indices(self) -> dict[int, CongestionIndex]:
        """Per paper-dimension index (every dimension, loaded or not).

        Buffer depth cannot be split by dimension after the fact (occupancy
        is a per-round scalar), so each dimension reports the global peak.
        """
        per_dim: dict[int, Counter] = {d: Counter() for d in range(1, self.network.r + 1)}
        for edge, load in self._edge_loads.items():
            per_dim[self.edge_dimension(edge)][edge] += load
        # each dimension owns one copy of G per setting of the other symbols
        wires = 2 * len(self.network.factor.edges) * self.network.n ** (self.network.r - 1)
        peak = self.peak_buffer_depth
        return {d: self._index(loads, wires, peak) for d, loads in per_dim.items()}

    def phase_indices(self) -> dict[str, CongestionIndex]:
        """Per-phase index, keyed by :func:`phase_key`, in first-seen order."""
        wires = 2 * self.network.num_edges
        return {
            phase: self._index(loads, wires, self._phase_buffer_depth.get(phase, 0))
            for phase, loads in self._phase_edge_loads.items()
        }

    def phase_dimension_traversals(self) -> dict[str, dict[int, int]]:
        """Phase key -> paper dimension -> traversals (the heatmap matrix)."""
        out: dict[str, dict[int, int]] = {}
        for phase, loads in self._phase_edge_loads.items():
            row: dict[int, int] = {}
            for edge, load in loads.items():
                d = self.edge_dimension(edge)
                row[d] = row.get(d, 0) + load
            out[phase] = row
        return out

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-safe summary — the ``topology`` block benchreg persists.

        Scalar totals here are *structural* (the schedule is oblivious), so
        the regression harness holds them to zero tolerance.
        """
        util = self.node_utilisation()
        return {
            "steps": self._steps,
            "routed_steps": self._routed_steps,
            **self.congestion().as_dict(),
            "node_mean_busy_fraction": util["mean_busy_fraction"],
            "node_idle": util["idle_nodes"],
            "per_dimension": {
                str(d): idx.as_dict() for d, idx in sorted(self.dimension_indices().items())
            },
            "per_phase": {
                phase: idx.as_dict() for phase, idx in self.phase_indices().items()
            },
        }

    def reset(self) -> None:
        """Forget everything (reuse across runs)."""
        self._edge_loads.clear()
        self._phase_edge_loads.clear()
        self._phase_buffer_depth.clear()
        self._node_busy.clear()
        self._occupancy.clear()
        self._steps = 0
        self._routed_steps = 0
        self._pair_count = 0
        self._peak_utilisation = 0.0
        self._adjacent_pairs = 0
        self._link_traversals = 0
        self._routed_link_traversals = 0
        self._dimension_ops.clear()
        self._dimension_lanes.clear()
        self._stack.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LinkObservatory({self.network!r}, steps={self._steps}, "
            f"traversals={self.total_traversals})"
        )
