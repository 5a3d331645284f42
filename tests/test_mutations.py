"""Mutation tests: every piece of Step 4 is necessary.

Lemma 2 proves the clean-up works; these tests show nothing in it is
redundant by *mutating* the emitted schedule of the 3^3 lattice sorter and
replaying each mutant over a probe set of the 0-1 input space, asserting
every mutation breaks sorting on some input.  This both validates the
paper's construction (the two transposition steps, the alternating
directions and the final sorts all earn their rounds) and proves the test
suite has teeth (a regression in any step would be caught).  Each mutation
applies at every merge level, as a fault in the algorithm would.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np
import pytest

from repro.core.lattice_sort import ProductNetworkSorter
from repro.graphs import path_graph
from repro.schedule import (
    ComparatorDAG,
    ComparatorOp,
    SchedulePhase,
    ScheduleRound,
    replay,
    snake_order_nodes,
)

RoundEdit = Callable[[SchedulePhase, ScheduleRound], ScheduleRound]


def _mutate(dag: ComparatorDAG, edit: RoundEdit) -> ComparatorDAG:
    """The DAG with ``edit`` applied to every round (phases unchanged)."""
    rounds = tuple(edit(dag.phases[rd.phase], rd) for rd in dag.rounds)
    return replace(dag, rounds=rounds, meta={})


def _empty(rd: ScheduleRound) -> ScheduleRound:
    return replace(rd, comparators=(), block_sorts=())


def _drop(*leaves: str, parity: int | None = None) -> RoundEdit:
    def edit(phase: SchedulePhase, rd: ScheduleRound) -> ScheduleRound:
        hit = phase.leaf in leaves and (parity is None or phase.parity == parity)
        return _empty(rd) if hit else rd

    return edit


def _no_alternation(phase: SchedulePhase, rd: ScheduleRound) -> ScheduleRound:
    if phase.leaf != "block-sorts":
        return rd
    return replace(rd, block_sorts=tuple(replace(b, descending=False) for b in rd.block_sorts))


def _inverted(phase: SchedulePhase, rd: ScheduleRound) -> ScheduleRound:
    """Maxima to the predecessor block: every transposition flipped."""
    if phase.leaf != "transposition":
        return rd
    return replace(rd, comparators=tuple(ComparatorOp(op.hi, op.lo) for op in rd.comparators))


FAULTS: dict[str, RoundEdit] = {
    "skip_step4": _drop("block-sorts", "transposition", "final-block-sorts"),
    "skip_first_transposition": _drop("transposition", parity=0),
    "skip_second_transposition": _drop("transposition", parity=1),
    "no_alternation": _no_alternation,
    "skip_final_sorts": _drop("final-block-sorts"),
}


def _zero_one_probes(total: int, samples: int = 3000, seed: int = 0) -> np.ndarray:
    """A probe set over the 0-1 cube: thresholds, strides and random draws
    (exhausting 2^27 inputs is infeasible; this set reliably exposes every
    known mutation, as the tests assert)."""
    probes = []
    for z in range(total + 1):  # all threshold patterns, both orientations
        probes.append([0] * z + [1] * (total - z))
        probes.append([1] * (total - z) + [0] * z)
    for stride in (2, 3, 5, 7):
        probes.append([1 if i % stride == 0 else 0 for i in range(total)])
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        probes.append((rng.random(total) < rng.random()).astype(int).tolist())
    return np.asarray(probes)


def _sorts_every_probe(dag: ComparatorDAG, probes: np.ndarray) -> bool:
    out = replay(dag, probes)[:, snake_order_nodes(dag.n, dag.r)]
    return bool(np.array_equal(out, np.sort(probes, axis=1)))


def _schedule(n: int = 3, r: int = 3) -> ComparatorDAG:
    return ProductNetworkSorter.for_factor(path_graph(n), r, keep_log=False).schedule()


@pytest.mark.parametrize("fault", FAULTS)
def test_every_fault_breaks_sorting(fault):
    """Each mutation must fail on some probed 0-1 input of the 3^3 sorter."""
    mutant = _mutate(_schedule(), FAULTS[fault])
    assert not _sorts_every_probe(mutant, _zero_one_probes(27)), f"{fault!r} went undetected"


def test_unsabotaged_control():
    """The same probe sweep passes for the unmutated schedule (control)."""
    assert _sorts_every_probe(_schedule(), _zero_one_probes(27))


def test_transposition_direction_matters():
    """Maxima to the predecessor (inverted min/max) must also fail."""
    assert not _sorts_every_probe(_mutate(_schedule(), _inverted), _zero_one_probes(27))
