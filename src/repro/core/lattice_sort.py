"""Network implementation of the sorting algorithm on NumPy lattices (§4).

This is the production backend: the key lattice ``A`` (shape ``(N,)*r``,
``A[x_r, ..., x_1]`` = key at that node) *is* the machine state, and every
step of the paper's algorithm becomes an array operation with a cost charged
to a :class:`~repro.machine.metrics.CostLedger` in the paper's accounting:

* **Step 1** (distribute) and **Step 3** (interleave) are identity
  operations: the Gray-code structure of the snake order means the
  subsequences ``B_{u,v}`` already sit snake-ordered on the
  ``[u,v]PG^{k,1}`` subgraphs and the interleaved ``D`` is just the snake
  reading of the whole lattice.  No data moves, nothing is charged — the
  paper's central structural observation, reproduced literally.
* **Step 2** recurses into the ``N`` subgraphs ``[v]PG^1_{k-1}``
  (``A[..., v]``); all ``N`` run in parallel on a real machine, so the data
  transformation is applied to every ``v`` but the cost is charged once.
* **Step 4** sorts the dimension-{1,2} ``PG_2`` blocks in alternating local
  snake directions (even/odd by group-label Hamming weight = Gray rank
  parity), runs two odd-even block transposition steps (elementwise min/max
  toward the snake-predecessor block — same-node correspondence, a
  single-``G``-subgraph exchange), and re-sorts the blocks.  Charges
  ``2 S_2 + 2 R`` per merge level, exactly Lemma 3's recurrence.

The recursion runs once per geometry, in
:func:`repro.schedule.emit.emit_lattice_program`, which emits the fixed
network of block sorts and transpositions as a
:class:`~repro.schedule.ir.ComparatorDAG` plus the span program of a traced
run.  This module interprets it: untraced sorts run the DAG's cached
per-round plan (:func:`repro.schedule.compiled.round_plan`) in one pass;
traced sorts and merges walk the span program
(:func:`repro.schedule.walk.walk_program`) phase by phase.

Because the driver only pays for what it executes, the measured ledger
reproduces Lemma 3 and Theorem 1 *structurally*: ``(r-1)**2`` two-dimensional
sorts and ``(r-1)(r-2)`` routings for a full sort, with total rounds
``(r-1)^2 S_2(N) + (r-1)(r-2) R(N)``.  Tests assert this equality and the
fine-grained machine backend cross-validates the data movement.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from ..graphs.base import FactorGraph
from ..graphs.product import ProductGraph
from ..machine.metrics import CostLedger
from ..observability import coerce_tracer
from ..orders.snake import lattice_to_sequence, sequence_to_lattice
from ..schedule import (
    CompiledSchedule,
    ComparatorDAG,
    EmittedSchedule,
    SchedulePhase,
    SpanInstr,
    charge_phase,
    emit_lattice_program,
    emit_lattice_schedule,
    round_plan,
    walk_program,
)
from ..sorters2d.analytic import sorter_for_factor
from ..sorters2d.base import PublishedRoutingModel, RoutingModel, TwoDimSorterModel
from .multiway_merge import TracerLike

__all__ = ["ProductNetworkSorter", "SortOutcome"]


class SortOutcome(tuple):
    """``(lattice, ledger)`` with named access, returned by the sorter."""

    __slots__ = ()

    def __new__(cls, lattice: np.ndarray, ledger: CostLedger):
        return super().__new__(cls, (lattice, ledger))

    @property
    def lattice(self) -> np.ndarray:
        return self[0]

    @property
    def ledger(self) -> CostLedger:
        return self[1]


class ProductNetworkSorter:
    """Sorts key lattices on a product network per §4, with cost accounting.

    Parameters
    ----------
    network:
        the target :class:`ProductGraph` (``r >= 2``; §3.3's algorithm
        starts from two-dimensional blocks).
    sorter2d:
        the ``S_2(N)`` cost model; defaults to the §5-appropriate choice for
        the factor (:func:`repro.sorters2d.analytic.sorter_for_factor`).
    routing:
        the ``R(N)`` cost model; defaults to the paper's conservative
        full-permutation accounting
        (:class:`~repro.sorters2d.base.PublishedRoutingModel`).
    keep_log:
        whether ledgers retain the per-phase record list.
    """

    def __init__(
        self,
        network: ProductGraph,
        sorter2d: TwoDimSorterModel | None = None,
        routing: RoutingModel | None = None,
        keep_log: bool = True,
    ) -> None:
        if network.r < 2:
            raise ValueError("the algorithm needs r >= 2 (§3.3 sorts N**r keys, r >= 2)")
        self.network = network
        self.sorter2d = sorter2d if sorter2d is not None else sorter_for_factor(network.factor)
        self.routing = routing if routing is not None else PublishedRoutingModel(network.factor)
        self.keep_log = keep_log

    @classmethod
    def for_factor(
        cls,
        factor: FactorGraph,
        r: int,
        sorter2d: TwoDimSorterModel | None = None,
        routing: RoutingModel | None = None,
        keep_log: bool = True,
        **kwargs,
    ) -> "ProductNetworkSorter":
        """Build the sorter for the r-dimensional product of a factor.

        Extra keyword arguments are forwarded to the constructor (so
        subclasses like the adaptive sorter can add knobs)."""
        return cls(ProductGraph(factor, r), sorter2d, routing, keep_log, **kwargs)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Factor size ``N``."""
        return self.network.factor.n

    @property
    def r(self) -> int:
        """Number of dimensions."""
        return self.network.r

    def schedule(self) -> ComparatorDAG:
        """The network's emitted Schedule IR under this sorter's cost models.

        Cached per ``(factor, n, r, S_2, R)`` cell; the artifact every
        untraced sort interprets and the compiled batch kernel packs."""
        return emit_lattice_schedule(*self._cell())

    def emitted_schedule(self) -> EmittedSchedule:
        """:meth:`schedule` plus its span program — what traced runs walk."""
        return emit_lattice_program(*self._cell())

    def _cell(self) -> tuple[FactorGraph, int, int, int]:
        n = self.n
        return self.network.factor, self.r, self.sorter2d.rounds(n), self.routing.rounds(n)

    def sort_lattice(self, lattice: np.ndarray, tracer: TracerLike = None) -> SortOutcome:
        """Sort a key lattice into snake order (§3.3 driver).

        Returns a fresh sorted lattice plus the cost ledger; the input is
        not modified.  When a ``tracer`` is given, the run is recorded as a
        span tree following the *parallel-time* accounting (spans wrap
        exactly the charged phases), so a full sort contains ``(r-1)**2``
        spans of kind ``s2`` and ``(r-1)(r-2)`` of kind ``routing`` —
        Theorem 1 read off telemetry.  A tracer whose bus has subscribers
        additionally receives the intermediate lattice states
        (``initial_sorted``, ``merge3_after_step2``, ...) as ``point``
        events.

        Untraced runs execute the emitted schedule (:meth:`schedule`) in one
        pass of its cached per-round plan; traced runs walk its span program
        phase by phase — identical output and ledger either way.
        """
        a = self._own_copy(lattice)
        tracer = coerce_tracer(tracer)
        if tracer.disabled:
            return self._sort_via_schedule(a)
        return self._interpret(a, *self._program(), tracer)

    def sort_sequence(self, keys, tracer: TracerLike = None) -> SortOutcome:
        """Sort a flat key array given in node (flat-index) order."""
        keys = np.asarray(keys)
        if keys.ndim != 1 or keys.size != self.network.num_nodes:
            raise ValueError(
                f"expected {self.network.num_nodes} keys, got shape {keys.shape}"
            )
        return self.sort_lattice(keys.reshape(self.network.shape), tracer=tracer)

    def merge_sorted_subgraphs(self, lattice: np.ndarray, tracer: TracerLike = None) -> SortOutcome:
        """Run one top-level multiway merge (Lemma 3's ``M_r``).

        Requires every ``[u]PG^r_{r-1}`` slice (``lattice[u]``) to already be
        snake-sorted; merges them into a fully snake-sorted lattice.  Used by
        the Lemma 3 benchmark and the worked example of Figs. 12-15.
        """
        a = self._own_copy(lattice)
        for u in range(self.n):
            seq = lattice_to_sequence(a[u])
            if np.any(seq[:-1] > seq[1:]):
                raise ValueError(f"input subgraph [{u}]PG_{self.r - 1} is not snake-sorted")
        return self._interpret(a, *self._program(merge_only=True), tracer)

    def sorted_reference(self, lattice: np.ndarray) -> np.ndarray:
        """The lattice's keys placed in perfect snake order (ground truth)."""
        return sequence_to_lattice(np.sort(np.asarray(lattice), axis=None), self.n, self.r)

    # ------------------------------------------------------------------
    # schedule interpretation
    # ------------------------------------------------------------------
    def _own_copy(self, lattice: np.ndarray) -> np.ndarray:
        # C order, so that the walkers' ``reshape(1, -1)`` is a view of ``a``
        a = np.array(lattice, copy=True, order="C")
        if a.shape != self.network.shape:
            raise ValueError(f"lattice shape {a.shape} != network shape {self.network.shape}")
        return a

    def _sort_via_schedule(self, a: np.ndarray) -> SortOutcome:
        """Interpret the emitted IR round by round; synthesize the ledger
        from the phase list (phase order == the recursion's charge order)."""
        dag = self.schedule()
        out = round_plan(dag).run(a.reshape(-1))
        ledger = CostLedger(keep_log=self.keep_log)
        for phase in dag.phases:
            charge_phase(ledger, phase, "lattice")
        return SortOutcome(out.reshape(self.network.shape), ledger)

    def _program(
        self, merge_only: bool = False
    ) -> tuple[Sequence[SpanInstr], Sequence[SchedulePhase]]:
        """The span program to walk — a full sort's, or the top-level merge
        ``M_r``'s — and the phase table its charged spans index."""
        emitted = self.emitted_schedule()
        program, phases, r = emitted.program, emitted.dag.phases, self.r
        if not merge_only:
            return program, phases
        if r > 2:
            # the top-level merge[dr] span ends the program, but for the
            # after_merge_round_r marker and the close of sort
            top = ("merge", {"dim": r})
            start = next(i for i, x in enumerate(program) if (x.name, x.attrs) == top)
            return program[start:-2], phases
        # M_2 = S_2: the one PG_2 sort is the initial block-sort phase,
        # charged as a merge base
        phase = replace(phases[0], path=("merge-base[d2]",))
        attrs = {"kind": "s2", "dim": 2, "rounds": phase.charged_rounds}
        return [SpanInstr(op, "merge-base", attrs, 0) for op in ("open", "close")], (phase,)

    def _phase_runner(self) -> Callable[[int, np.ndarray], None]:
        """``run(i, state)``: apply phase ``i`` in place to a ``(1, N**r)`` state."""
        dag = self.schedule()
        # one IR round per lattice phase; an empty round compiles to no layer
        layers = iter(round_plan(dag).layers)
        by_phase = {rd.phase: next(layers) for rd in dag.rounds if rd.comparators or rd.block_sorts}

        def run(phase_index: int, state: np.ndarray) -> None:
            layer = by_phase.get(phase_index)
            if layer is not None:
                CompiledSchedule.apply_layer(state, layer)

        return run

    def _interpret(
        self,
        a: np.ndarray,
        program: Sequence[SpanInstr],
        phases: Sequence[SchedulePhase],
        tracer: TracerLike,
    ) -> SortOutcome:
        """Walk a span program over the lattice ``a`` in place."""
        run = self._phase_runner()
        state = a.reshape(1, -1)
        n = self.n

        def snapshot(dim: int) -> np.ndarray:
            return state[0, : n**dim].reshape((n,) * dim).copy()

        ledger = CostLedger(keep_log=self.keep_log)
        tracer = coerce_tracer(tracer)
        walk_program(program, phases, lambda i: run(i, state), tracer, ledger, "lattice", snapshot)
        return SortOutcome(a, ledger)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProductNetworkSorter({self.network!r}, S2={self.sorter2d.name}, "
            f"R={self.routing.name})"
        )
