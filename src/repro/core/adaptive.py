"""Adaptive variant: skip Step 4 when the interleave is already clean.

An engineering extension of the paper's algorithm (not claimed by the
paper).  Lemma 1 guarantees the dirty area after Step 3 is *at most* N² —
but for benign inputs it is often zero and the entire Step 4 (2 S₂ + 2 R
rounds per merge level) is wasted work.  The benign class is
**low-cardinality data**: when few distinct keys spread across many nodes,
the column counts of Step 1 balance exactly and the interleave lands
sorted.  Measured on 3^4 keys: all-equal and block-aligned inputs skip
every Step 4 (42 vs 126 rounds), random 0-1 keys skip up to 2 of 3 levels depending on the draw, and
full-entropy random keys skip none (paying only the check overhead) — see
``benchmarks/bench_adaptive.py``.  Sorting by flags, enum tags or bucket
ids is exactly this regime.

Detecting cleanliness is cheap on the network: every node compares its key
with its snake-successor's — one parallel compare round — followed by an
AND-reduction over a spanning tree; we charge a configurable
``check_rounds`` for the pair.  The skip decision must be **level
consistent**: all the merges of one level run in parallel, so Step 4 is
skipped only when *every* subgraph of the level came out clean (a single
dirty subgraph makes the whole level wait anyway — and the AND-reduction
naturally computes exactly this global predicate).

The sorter walks the emitted phases of
:class:`~repro.core.lattice_sort.ProductNetworkSorter`.  A ``cleanup[dk]``
group spans every merge instance of its level, so it is skipped — level
consistently — when its block sorts and transpositions would leave the
state unchanged: on post-Step-3 states, when every instance is clean.

Worst case: ``check_rounds`` extra per level.  Best case (fully clean
levels): ``2 S₂ + 2 R - check_rounds`` saved per level.  The ablation
benchmark quantifies the trade on sorted, nearly-sorted and random inputs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..machine.metrics import CostLedger
from ..observability import coerce_tracer
from ..schedule import SchedulePhase, SpanInstr, charge_phase
from .lattice_sort import ProductNetworkSorter, SortOutcome
from .multiway_merge import TracerLike

__all__ = ["AdaptiveProductNetworkSorter"]


class AdaptiveProductNetworkSorter(ProductNetworkSorter):
    """Lattice sorter with a level-consistent clean-check before Step 4.

    Parameters (beyond :class:`ProductNetworkSorter`)
    -------------------------------------------------
    check_rounds:
        rounds charged per cleanliness check (snake-neighbour compare plus
        AND reduction).  Default 2 — one compare round plus one pipelined
        reduction round, an explicit (optimistic) model.

    After each sort, :attr:`steps4_skipped` / :attr:`steps4_executed` count
    the level-batched Step 4 decisions.
    """

    def __init__(self, *args, check_rounds: int = 2, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if check_rounds < 0:
            raise ValueError("check_rounds must be nonnegative")
        self.check_rounds = check_rounds
        self.steps4_skipped = 0
        self.steps4_executed = 0

    def sort_lattice(self, lattice: np.ndarray, tracer: TracerLike = None) -> SortOutcome:
        return self._interpret(self._own_copy(lattice), *self._program(), tracer)

    def _interpret(
        self,
        a: np.ndarray,
        program: Sequence[SpanInstr],
        phases: Sequence[SchedulePhase],
        tracer: TracerLike,
    ) -> SortOutcome:
        """Run the program's charged phases with a clean check per cleanup.

        Skipped Step 4s break Theorem 1's span counts, so the trace is tagged
        with its own backend name: one span per executed phase.
        """
        charged = (phases[i.phase] for i in program if i.op == "close" and i.phase is not None)
        run = self._phase_runner()
        state = a.reshape(1, -1)
        ledger = CostLedger(keep_log=self.keep_log)
        self.steps4_skipped = self.steps4_executed = 0
        tracer = coerce_tracer(tracer)
        factor = self.network.factor.name
        with tracer.span("sort", backend="lattice-adaptive", factor=factor, n=self.n, r=self.r):
            for phase in charged:
                group = [phase]
                if phase.leaf == "block-sorts":  # first of the four cleanup phases
                    group += [next(charged) for _ in range(3)]
                    detail = f"adaptive clean check (k={phase.dim})"
                    ledger.charge_routing(self.check_rounds, detail=detail)
                    trial = state.copy()
                    for step in group[:3]:
                        run(step.index, trial)
                    if np.array_equal(trial, state):
                        self.steps4_skipped += 1
                        continue
                    self.steps4_executed += 1
                for step in group:
                    rounds = step.charged_rounds
                    with tracer.span(step.leaf, kind=step.kind, dim=step.dim, rounds=rounds):
                        run(step.index, state)
                    charge_phase(ledger, step, "lattice-adaptive")
        return SortOutcome(a, ledger)
