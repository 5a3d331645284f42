"""Schedule emission: the §3.1/§3.3 recursion producing IR, not key moves.

This is the single execution engine the tentpole refactor converges on.  The
recursive multiway-merge algorithm runs exactly once per geometry and *emits*
an :class:`EmittedSchedule` — a :class:`~repro.schedule.ir.ComparatorDAG`
plus the :class:`SpanInstr` program of its span tree; every executor then
interprets that artifact.  Two emitters cover the two op vocabularies:

* :func:`emit_lattice_program` — a keyless structural recursion over the
  *node-id lattice* (``np.arange(N**r)`` reshaped to the network shape).
  Because an id-lattice view's elements literally are flat node indices, the
  recursion writes down which nodes each block sort and transposition
  engages.  Phases are keyed by span path and sibling subgraphs of a level
  share phases, mirroring the charge-once-per-level accounting; one lattice
  phase = one :class:`ScheduleRound`.
* :func:`emit_machine_schedule` — the machine vocabulary expands block sorts
  into individual compare-exchange super-steps and measures routed costs, so
  emission drives the fine-grained recursion once against a *planning
  machine* (a :class:`~repro.machine.machine.NetworkMachine` loaded with
  zero keys — every cost and pair list is key-independent) while a bus
  recorder assembles the DAG plus its span program.

Either program replays the exact span tree (names, static attributes,
ledger charges) when walked (:mod:`repro.schedule.walk`).

Both emitters memoise per geometry cell: the lattice cache keys on
``(factor, n, r, S2 rounds, R rounds)`` (charges depend on the cost models),
the machine cache on ``(factor, n, r, sorter)``.  Downstream, compiled batch
kernels are additionally cached by the DAG's canonical SHA-256 hash — see
:mod:`repro.schedule.compiled`.
"""

from __future__ import annotations

import threading
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator, Optional

import numpy as np

from ..observability.cachestats import CacheStats
from ..orders.gray import rank_lattice
from .ir import BlockSortOp, ComparatorDAG, ComparatorOp, SchedulePhase, ScheduleRound

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.machine_sort import MachineSorter
    from ..graphs.base import FactorGraph
    from ..graphs.product import ProductGraph
    from ..observability.events import TraceEvent

__all__ = [
    "emit_lattice_program",
    "emit_lattice_schedule",
    "emit_machine_schedule",
    "clear_emission_caches",
    "EmittedSchedule",
    "SpanInstr",
    "span_path_entry",
]

#: one lock covers both emission caches (they are touched together only by
#: :func:`clear_emission_caches`, and contention is negligible)
_EMIT_LOCK = threading.Lock()


def span_path_entry(name: str, attrs: dict[str, Any]) -> str:
    """Canonical path element for a span: name plus dimension and parity.

    Extends :func:`repro.observability.events.phase_key` with the
    transposition parity, so the two transpositions of one cleanup are
    distinct phases (they are separate routing calls in Lemma 3)."""
    dim = attrs.get("dim")
    if dim is None:
        return name
    parity = attrs.get("parity")
    if parity is None:
        return f"{name}[d{dim}]"
    return f"{name}[d{dim},p{parity}]"


class _PhaseRec:
    """Mutable phase record used while emitting."""

    __slots__ = ("path", "kind", "dim", "charged_rounds", "comparators", "block_sorts")

    def __init__(self, path: tuple[str, ...], kind: str, dim: int | None, rounds: int) -> None:
        self.path = path
        self.kind = kind
        self.dim = dim
        self.charged_rounds = rounds
        self.comparators: list[ComparatorOp] = []
        self.block_sorts: list[BlockSortOp] = []


@dataclass(frozen=True)
class SpanInstr:
    """One instruction of a span program: a span boundary or a point marker.

    ``op`` is ``"open"``, ``"close"`` or ``"point"``.  Span boundaries carry
    the attributes observed there during emission (static geometry on open;
    plus the charged costs on close); ``phase`` links a charged span to its
    :class:`SchedulePhase` index.  A point marker's payload is the first
    ``PG_dim`` subgraph of the state, ``dim = attrs["dim"]``.
    """

    op: str
    name: str
    attrs: dict[str, Any]
    phase: int | None


@dataclass(frozen=True)
class EmittedSchedule:
    """An emitted artifact: the IR plus the span program walked over it."""

    dag: ComparatorDAG
    program: tuple[SpanInstr, ...]


#: where the lattice emitter records a span program (None: not recorded)
_Program = Optional[list[SpanInstr]]


def _frozen(recs: list[_PhaseRec]) -> tuple[SchedulePhase, ...]:
    return tuple(
        SchedulePhase(
            index=i, path=p.path, kind=p.kind, dim=p.dim, charged_rounds=p.charged_rounds
        )
        for i, p in enumerate(recs)
    )


# ----------------------------------------------------------------------
# lattice emitter: keyless structural recursion over the id lattice
# ----------------------------------------------------------------------

_LATTICE_CACHE: dict[tuple[str, int, int, int, int], EmittedSchedule] = {}

LATTICE_CACHE_STATS = CacheStats("lattice-emission", size_fn=lambda: len(_LATTICE_CACHE))


def emit_lattice_schedule(
    factor: "FactorGraph", r: int, s2_rounds: int, routing_rounds: int
) -> ComparatorDAG:
    """Emit the lattice backend's schedule for ``PG(factor, r)``.

    ``s2_rounds`` / ``routing_rounds`` are the configured cost models'
    per-call charges (``S_2(N)`` and ``R(N)``); they parameterise the phases'
    ``charged_rounds`` but not the operation structure.
    """
    return emit_lattice_program(factor, r, s2_rounds, routing_rounds).dag


def emit_lattice_program(
    factor: "FactorGraph", r: int, s2_rounds: int, routing_rounds: int
) -> EmittedSchedule:
    """Emit the lattice schedule together with its span program.

    The program follows the first of every set of sibling subgraphs, as the
    parallel-time accounting does, so each charged span owns one phase.
    Merge-round point markers carry the round's first ``PG_j`` subgraph.
    """
    if r < 2:
        raise ValueError("the algorithm needs r >= 2 (§3.3)")
    n = int(factor.n)
    key = (factor.name, n, r, int(s2_rounds), int(routing_rounds))
    with _EMIT_LOCK:
        cached = _LATTICE_CACHE.get(key)
    if cached is not None:
        LATTICE_CACHE_STATS.record_hit()
        return cached
    t_build = perf_counter()

    ids = np.arange(n**r, dtype=np.intp).reshape((n,) * r)
    snake2 = np.argsort(np.asarray(rank_lattice(n, 2)).ravel())
    groups: dict[tuple[str, ...], int] = {}
    order: list[_PhaseRec] = []
    path: list[str] = ["sort"]
    program: list[SpanInstr] = []

    def group(path_key: tuple[str, ...], kind: str, dim: int, rounds: int) -> int:
        idx = groups.get(path_key)
        if idx is None:
            idx = groups[path_key] = len(order)
            order.append(_PhaseRec(path_key, kind, dim, rounds))
        return idx

    def record_block_sort(idx: int, block: np.ndarray, descending: bool) -> None:
        nodes = block.ravel()[snake2]
        order[idx].block_sorts.append(BlockSortOp(tuple(int(x) for x in nodes), descending))

    # span-program recorders; ``out`` is None for untraced siblings
    @contextmanager
    def recording(out: list[SpanInstr], name: str, attrs: dict[str, Any]) -> Iterator[None]:
        out.append(SpanInstr("open", name, attrs, None))
        yield
        out.append(SpanInstr("close", name, attrs, None))

    def span(out: _Program, name: str, **attrs: Any) -> AbstractContextManager[None]:
        return nullcontext() if out is None else recording(out, name, attrs)

    def leaf(out: _Program, name: str, phase: int | None, charged: dict, **attrs: Any) -> None:
        """Record a childless span; ``charged`` attrs join on close."""
        if out is not None:
            out.append(SpanInstr("open", name, attrs, phase))
            out.append(SpanInstr("close", name, {**attrs, **charged}, phase))

    def point(out: _Program, name: str, dim: int) -> None:
        if out is not None:
            out.append(SpanInstr("point", name, {"dim": dim}, None))

    def step4(a: np.ndarray, k: int, out: _Program, points: _Program) -> None:
        blocks = [a[idx] for idx in np.ndindex(a.shape[:-2])]
        granks = np.asarray(rank_lattice(n, k - 2)).ravel()
        rank_order = np.argsort(granks)
        parities = granks % 2
        base_path = (*path, f"cleanup[d{k}]")

        def sort_blocks(name: str, marker: str) -> None:
            idx = group((*base_path, f"{name}[d{k}]"), "s2", k, s2_rounds)
            for z, block in enumerate(blocks):
                record_block_sort(idx, block, bool(parities[z]))
            charged = {"rounds": s2_rounds, "blocks": len(blocks)}
            leaf(out, name, idx, charged, kind="s2", dim=k)
            point(points, f"merge{k}_{marker}", k)

        with span(out, "cleanup", dim=k):
            sort_blocks("block-sorts", "step4_sorted")
            for parity in (0, 1):
                idx = group(
                    (*base_path, f"transposition[d{k},p{parity}]"), "routing", k, routing_rounds
                )
                for z in range(parity, len(blocks) - 1, 2):
                    lo_ids = blocks[rank_order[z]].ravel()
                    hi_ids = blocks[rank_order[z + 1]].ravel()
                    order[idx].comparators.extend(
                        ComparatorOp(int(a_id), int(b_id)) for a_id, b_id in zip(lo_ids, hi_ids)
                    )
                charged = {"rounds": routing_rounds}
                leaf(out, "transposition", idx, charged, kind="routing", dim=k, parity=parity)
                point(points, f"merge{k}_step4_transposition{parity}", k)
            sort_blocks("final-block-sorts", "step4_final")

    def merge(a: np.ndarray, out: _Program, points: _Program) -> None:
        """Emit one merge, recording its spans into ``out`` and its point
        markers into ``points``."""
        pushed = 0
        parent = path[-1]
        if parent.startswith("merge[d"):
            path.append(f"column-merges[d{parent[len('merge[d'):-1]}]")
            pushed += 1
        k = a.ndim
        if k == 2:
            path.append("merge-base[d2]")
            idx = group(tuple(path), "s2", 2, s2_rounds)
            record_block_sort(idx, a, descending=False)
            leaf(out, "merge-base", idx, {}, kind="s2", dim=2, rounds=s2_rounds)
            path.pop()
        else:
            path.append(f"merge[d{k}]")
            with span(out, "merge", dim=k):
                leaf(out, "distribute", None, {}, kind="free", dim=k, rounds=0)
                with span(out, "column-merges", dim=k):
                    for v in range(n):
                        merge(a[..., v], out if v == 0 else None, None)
                point(points, f"merge{k}_after_step2", k)
                leaf(out, "interleave", None, {}, kind="free", dim=k, rounds=0)
                point(points, f"merge{k}_after_step3", k)
                step4(a, k, out, points)
            path.pop()
        for _ in range(pushed):
            path.pop()

    with span(program, "sort", backend="lattice", factor=factor.name, n=n, r=r, keys=n**r):
        # initial round: every dimension-{1,2} PG_2 block, ascending; one phase.
        initial = group(("sort", "initial-block-sorts[d2]"), "s2", 2, s2_rounds)
        for block in ids.reshape(-1, n, n):
            record_block_sort(initial, block, descending=False)
        charged = {"rounds": s2_rounds, "blocks": n ** (r - 2)}
        leaf(program, "initial-block-sorts", initial, charged, kind="s2", dim=2)
        point(program, "initial_sorted", r)
        # merge rounds j = 3..r: sibling subgraphs share the level's phases.
        for j in range(3, r + 1):
            sub = ids.reshape((-1,) + (n,) * j)
            for s in range(sub.shape[0]):
                merge(sub[s], program if s == 0 else None, program if s == 0 else None)
            point(program, f"after_merge_round_{j}", r)

    rounds = tuple(
        ScheduleRound(
            index=i,
            phase=i,
            charge=g.charged_rounds,
            comparators=tuple(g.comparators),
            block_sorts=tuple(g.block_sorts),
        )
        for i, g in enumerate(order)
    )
    dag = ComparatorDAG(
        backend="lattice",
        factor=factor.name,
        n=n,
        r=r,
        num_nodes=n**r,
        phases=_frozen(order),
        rounds=rounds,
        meta={"emitted": True, "s2_rounds": int(s2_rounds), "routing_rounds": int(routing_rounds)},
    )
    emitted = EmittedSchedule(dag=dag, program=tuple(program))
    LATTICE_CACHE_STATS.record_miss(perf_counter() - t_build)
    with _EMIT_LOCK:
        return _LATTICE_CACHE.setdefault(key, emitted)


# ----------------------------------------------------------------------
# machine emitter: plan the fine-grained recursion on zero keys
# ----------------------------------------------------------------------

class _MachineEmitRecorder:
    """Event-bus subscriber assembling the DAG and span program.

    Subscribes to the bus a :class:`~repro.observability.tracer.Tracer` and
    the planning :class:`~repro.machine.machine.NetworkMachine` publish to;
    every ``machine_step`` becomes one :class:`ScheduleRound` attributed to
    the innermost open charged (``s2``/``routing``) span.
    """

    def __init__(self, network: "ProductGraph") -> None:
        self.network = network
        self.phases: list[_PhaseRec] = []
        self.program: list[SpanInstr] = []
        self._rounds: list[tuple[int, int, tuple[ComparatorOp, ...]]] = []
        self._path: list[str] = []
        self._charged: list[int] = []
        self._span_phase: dict[int | None, int] = {}

    def on_event(self, event: "TraceEvent") -> None:
        if event.kind == "span_start":
            attrs = dict(event.attrs)
            self._path.append(span_path_entry(event.name, attrs))
            phase: int | None = None
            kind = attrs.get("kind")
            if kind in ("s2", "routing"):
                rec = _PhaseRec(tuple(self._path), str(kind), attrs.get("dim"), 0)
                self.phases.append(rec)
                phase = len(self.phases) - 1
                self._charged.append(phase)
                self._span_phase[event.span_id] = phase
            self.program.append(SpanInstr("open", event.name, attrs, phase))
        elif event.kind == "span_end":
            idx = self._span_phase.pop(event.span_id, None)
            if idx is not None:
                self.phases[idx].charged_rounds = int(event.attrs.get("rounds", 0))
                self._charged.pop()
            if self._path:
                self._path.pop()
            self.program.append(SpanInstr("close", event.name, dict(event.attrs), idx))
        elif event.kind == "machine_step":
            if not self._charged:
                raise RuntimeError("machine step observed outside any charged phase span")
            comparators = tuple(ComparatorOp(lo, hi) for lo, hi in event.attrs["flat_pairs"])
            self._rounds.append((self._charged[-1], int(event.attrs["rounds"]), comparators))

    def emitted(self) -> EmittedSchedule:
        rounds = tuple(
            ScheduleRound(index=i, phase=phase, charge=charge, comparators=comparators)
            for i, (phase, charge, comparators) in enumerate(self._rounds)
        )
        dag = ComparatorDAG(
            backend="machine",
            factor=self.network.factor.name,
            n=self.network.factor.n,
            r=self.network.r,
            num_nodes=self.network.num_nodes,
            phases=_frozen(self.phases),
            rounds=rounds,
            meta={"emitted": True},
        )
        return EmittedSchedule(dag=dag, program=tuple(self.program))


_MACHINE_CACHE: dict[tuple[str, int, int, str], EmittedSchedule] = {}

MACHINE_CACHE_STATS = CacheStats("machine-emission", size_fn=lambda: len(_MACHINE_CACHE))


def emit_machine_schedule(sorter: "MachineSorter") -> EmittedSchedule:
    """Emit the machine backend's schedule by planning one keyless run.

    Drives the sorter's recursion against a planning machine holding all-zero
    keys — every pair list, batching decision and routed cost depends only on
    the geometry, so the recorded schedule is the schedule of *every* run.
    """
    from ..machine.machine import NetworkMachine
    from ..observability import EventBus, Tracer

    network = sorter.network
    key = (network.factor.name, network.factor.n, network.r, sorter.sorter.name)
    with _EMIT_LOCK:
        cached = _MACHINE_CACHE.get(key)
    if cached is not None:
        MACHINE_CACHE_STATS.record_hit()
        return cached
    t_build = perf_counter()

    bus = EventBus()
    recorder = bus.subscribe(_MachineEmitRecorder(network))
    machine = NetworkMachine(network, np.zeros(network.num_nodes, dtype=np.int64), bus=bus)
    sorter._plan(machine, Tracer(bus))
    emitted = recorder.emitted()
    assert machine.rounds == emitted.dag.depth, "emission must attribute every planned round"
    MACHINE_CACHE_STATS.record_miss(perf_counter() - t_build)
    with _EMIT_LOCK:
        return _MACHINE_CACHE.setdefault(key, emitted)


def clear_emission_caches() -> None:
    """Drop every emitted schedule and reset both caches' statistics."""
    with _EMIT_LOCK:
        _LATTICE_CACHE.clear()
        _MACHINE_CACHE.clear()
    LATTICE_CACHE_STATS.reset()
    MACHINE_CACHE_STATS.reset()
