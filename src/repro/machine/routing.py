"""Permutation routing inside a factor graph (paper §4, Step 4).

When two nodes that must compare-exchange are not adjacent in ``G`` (the
factor is not labelled along a Hamiltonian path), the paper routes the keys
towards each other inside the common ``G`` subgraph: "two nodes that need to
compare their keys send their keys to each other; then each node either
keeps its original key or the new one".  The time for one such step is the
permutation-routing time ``R(N)`` of the factor.

This module provides:

* published closed-form bounds ``R(N)`` for the structured factors used in
  §4-§5 (:func:`published_routing_bound`);
* a concrete synchronous **store-and-forward router**
  (:func:`route_partial_permutation`) that schedules an arbitrary
  (partial) permutation on an arbitrary factor graph, one value per directed
  link per round, and reports the exact makespan.  The fine-grained machine
  uses it to charge real round counts; tests check it against the published
  bounds on paths, cycles and cliques.

The router allows intermediate nodes to buffer passing packets (classic
store-and-forward relaxation of the paper's two-values-per-node memory
model); with the dilation-<=3 labellings produced by
:meth:`FactorGraph.canonically_labelled`, routed paths have <= 3 hops and
buffers stay tiny, so the relaxation does not distort the cost shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphs.base import FactorGraph

__all__ = [
    "RoutingResult",
    "StepRouting",
    "route_partial_permutation",
    "exchange_rounds",
    "published_routing_bound",
]


@dataclass(frozen=True)
class RoutingResult:
    """Outcome of scheduling a (partial) permutation on a factor graph.

    ``makespan`` is the number of synchronous rounds until every packet
    reached its destination; ``moves`` the total link traversals; ``paths``
    the per-packet routes actually taken.  ``round_occupancy[t]`` is the
    largest number of in-flight packets *buffered* at any single node after
    round ``t + 1`` — a packet counts as buffered only while parked at an
    intermediate node (neither its source nor its destination), i.e. exactly
    the memory the store-and-forward relaxation adds on top of the paper's
    two-values-per-node model.  ``peak_buffer_depth`` is its maximum (0 when
    every packet moved source -> destination directly).
    """

    makespan: int
    moves: int
    paths: dict[int, tuple[int, ...]]
    round_occupancy: tuple[int, ...] = ()
    peak_buffer_depth: int = 0


@dataclass(frozen=True)
class StepRouting:
    """Routed realisation of one machine compare-exchange super-step.

    Where :class:`RoutingResult` speaks factor-graph symbols, this speaks
    full product-network labels: ``paths`` holds one label route per packet
    of the step's simultaneous two-way exchange (adjacent pairs appear as
    two 1-hop routes).  ``round_occupancy`` / ``peak_buffer_depth`` merge
    the concurrent subgraph episodes (they are node-disjoint for the
    single-dimension steps the §4 algorithm issues, so the merge is exact).
    Each routed ``machine_step`` event of
    :class:`~repro.machine.machine.NetworkMachine` carries one of these —
    the raw material of the topology observatory.
    """

    paths: tuple[tuple[tuple[int, ...], ...], ...]
    makespan: int
    round_occupancy: tuple[int, ...] = ()
    peak_buffer_depth: int = 0

    @property
    def link_traversals(self) -> int:
        """Total directed-link traversals of the step (sum of path hops)."""
        return sum(len(p) - 1 for p in self.paths)


def route_partial_permutation(g: FactorGraph, destinations: dict[int, int]) -> RoutingResult:
    """Schedule packets ``source -> destinations[source]`` on ``G``.

    *Model*: time advances in rounds; in one round each **directed** edge
    carries at most one packet; nodes may buffer any number of in-flight
    packets.  Packets follow fixed BFS shortest paths; each round scans the
    undelivered packets in a fixed order and advances those whose next edge
    is still free, which guarantees at least the first scanned packet moves,
    hence termination within total-hops rounds.

    Greedy scheduling is within a small factor of optimal for the tiny,
    low-diameter factors product networks use; the point is a *measured*,
    feasible round count rather than a tight schedule.

    ``destinations`` may cover any subset of nodes but must be injective
    (two packets cannot end at the same node — each node keeps one key).
    """
    values = list(destinations.values())
    if len(set(values)) != len(values):
        raise ValueError("destinations must be injective (one key per node)")
    for s, d in destinations.items():
        if not (0 <= s < g.n and 0 <= d < g.n):
            raise ValueError(f"route {s}->{d} out of range for n={g.n}")

    paths = {s: g.shortest_path(s, d) for s, d in destinations.items()}
    progress = {s: 0 for s in destinations}  # index into path
    pending = [s for s in destinations if len(paths[s]) > 1]
    makespan = 0
    moves = 0
    round_occupancy: list[int] = []
    while pending:
        makespan += 1
        used: set[tuple[int, int]] = set()  # directed edges taken this round
        still_pending = []
        for s in pending:
            path = paths[s]
            i = progress[s]
            edge = (path[i], path[i + 1])
            if edge not in used:
                used.add(edge)
                progress[s] = i + 1
                moves += 1
            if progress[s] < len(path) - 1:
                still_pending.append(s)
        pending = still_pending
        # packets parked strictly inside their path are buffered at an
        # intermediate node — the extra memory the relaxation introduces
        buffered: dict[int, int] = {}
        for s in pending:
            i = progress[s]
            if 0 < i < len(paths[s]) - 1:
                node = paths[s][i]
                buffered[node] = buffered.get(node, 0) + 1
        round_occupancy.append(max(buffered.values(), default=0))
    return RoutingResult(
        makespan=makespan,
        moves=moves,
        paths=paths,
        round_occupancy=tuple(round_occupancy),
        peak_buffer_depth=max(round_occupancy, default=0),
    )


def exchange_rounds(g: FactorGraph, pairs: list[tuple[int, int]]) -> int:
    """Rounds needed for the paper's compare-exchange-by-routing step.

    Every pair ``(a, b)`` sends its keys both ways simultaneously (the §4
    trick avoiding a return trip): the routed load is the union of packets
    ``a -> b`` and ``b -> a`` for all pairs.  Pairs must be disjoint.
    Adjacent pairs cost one round on their own; the returned value is the
    makespan of the whole simultaneous exchange.
    """
    seen: set[int] = set()
    for a, b in pairs:
        if a == b or a in seen or b in seen:
            raise ValueError(f"pairs must be disjoint, offending pair ({a}, {b})")
        seen.add(a)
        seen.add(b)
    if not pairs:
        return 0
    destinations: dict[int, int] = {}
    for a, b in pairs:
        destinations[a] = b
        destinations[b] = a
    return route_partial_permutation(g, destinations).makespan


def published_routing_bound(g: FactorGraph) -> int | None:
    """The closed-form ``R(N)`` the paper quotes for this factor, if any.

    ======================  =============================  ==========
    factor                  bound                          paper ref
    ======================  =============================  ==========
    path(n)                 ``n - 1``                      §5.1
    cycle(n)                ``floor(n / 2)``               Corollary
    K2                      ``1``                          §5.3
    K_n (complete)          ``1``                          (trivial)
    ======================  =============================  ==========

    Returns ``None`` for factors without a quoted closed form; callers then
    fall back to the measured router or to ``S_2 >= R`` (Theorem 1's remark
    that ``S_2(N)`` always dominates ``R(N)``).

    Matching is *structural* (degree sequence / shape), not by name, so
    relabelled copies still match.
    """
    n = g.n
    degs = sorted(g.degree(u) for u in range(n))
    num_edges = len(g.edges)
    if num_edges == n * (n - 1) // 2:
        return 1  # complete graph (includes K2)
    if n >= 2 and num_edges == n - 1 and degs == sorted([1, 1] + [2] * (n - 2)):
        return n - 1  # path
    if num_edges == n and all(d == 2 for d in degs):
        return n // 2  # cycle
    return None
