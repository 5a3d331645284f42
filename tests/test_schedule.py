"""Tests for the Schedule IR spine: one emitted artifact, many interpreters.

Pins the tentpole contract of the schedule refactor:

* the three interpreters — reference :func:`repro.schedule.replay`, the
  lattice backend's vectorised round-plan path, and the layer-packed
  compiled batch kernel — all agree with the snake-order ground truth on
  random lattices, for every canonical benchreg cell (Hypothesis property);
* the compiled kernel sorts a whole ``(batch, N**r)`` array in one pass;
* emission is keyless and cached, the compiled cache is keyed by the
  canonical schedule hash, and emitted hashes reproduce the hashes pinned
  in the blessed ``BENCH_seed.json`` byte for byte.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lattice_sort import ProductNetworkSorter
from repro.core.machine_sort import MachineSorter
from repro.observability.benchreg import DEFAULT_MATRIX
from repro.schedule import (
    ComparatorDAG,
    compile_schedule,
    replay,
    round_plan,
    snake_order_nodes,
)
from repro.staticcheck import emit_schedule

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CELL_IDS = [c.key for c in DEFAULT_MATRIX]


def _emit(cell) -> ComparatorDAG:
    return emit_schedule(cell.build_factor(), cell.r, backend=cell.backend)


def _snake_sorted(dag: ComparatorDAG, keys: np.ndarray) -> np.ndarray:
    """Ground truth: the keys placed in perfect snake order, flat node order."""
    expected = np.empty_like(keys)
    expected[..., snake_order_nodes(dag.n, dag.r)] = np.sort(keys, axis=-1)
    return expected


class TestInterpretersAgree:
    """The Hypothesis property of the issue: every interpreter of the one
    emitted artifact produces ``sorted_reference`` on random lattices."""

    @pytest.mark.parametrize("cell", DEFAULT_MATRIX, ids=CELL_IDS)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_replay_roundplan_compiled_match_reference(self, cell, data):
        dag = _emit(cell)
        keys = np.asarray(
            data.draw(
                st.lists(
                    st.integers(-(2**31), 2**31 - 1),
                    min_size=dag.num_nodes,
                    max_size=dag.num_nodes,
                )
            )
        )
        expected = _snake_sorted(dag, keys)
        assert np.array_equal(replay(dag, keys), expected)
        assert np.array_equal(round_plan(dag).run(keys), expected)
        assert np.array_equal(compile_schedule(dag).run(keys), expected)

    @pytest.mark.parametrize(
        "cell", [c for c in DEFAULT_MATRIX if c.backend == "lattice"],
        ids=[c.key for c in DEFAULT_MATRIX if c.backend == "lattice"],
    )
    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_lattice_backend_interprets_the_same_artifact(self, cell, data):
        sorter = ProductNetworkSorter.for_factor(cell.build_factor(), cell.r)
        dag = sorter.schedule()
        keys = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, 10**6),
                    min_size=dag.num_nodes,
                    max_size=dag.num_nodes,
                )
            )
        )
        lattice, ledger = sorter.sort_sequence(keys)
        assert np.array_equal(np.ravel(lattice), _snake_sorted(dag, keys))
        # the interpreted ledger equals the phase list's charges
        assert ledger.total_rounds == dag.depth

    @pytest.mark.parametrize(
        "cell", [c for c in DEFAULT_MATRIX if c.backend == "machine"],
        ids=[c.key for c in DEFAULT_MATRIX if c.backend == "machine"],
    )
    def test_machine_backend_interprets_the_same_artifact(self, cell, rng):
        sorter = MachineSorter.for_factor(cell.build_factor(), cell.r)
        dag = sorter.schedule()
        keys = rng.integers(0, 2**31, size=dag.num_nodes)
        machine, ledger = sorter.sort(keys)
        assert np.array_equal(machine.keys, replay(dag, keys))
        assert machine.rounds == ledger.total_rounds == dag.depth


class TestCompiledBatch:
    def test_batch_axis_thousand_rows_one_pass(self, rng):
        """>= 1000 independent lattices sorted in one compiled call."""
        cell = next(c for c in DEFAULT_MATRIX if c.key == "path-n3-r3-lattice")
        dag = _emit(cell)
        batch = rng.integers(0, 2**31, size=(1024, dag.num_nodes))
        out = compile_schedule(dag).run(batch)
        assert out.shape == batch.shape
        assert np.array_equal(out, _snake_sorted(dag, batch))
        # and the per-round plan agrees row for row
        assert np.array_equal(out, round_plan(dag).run(batch))

    def test_packing_never_worse_and_semantics_identical(self, rng):
        dag = _emit(next(c for c in DEFAULT_MATRIX if c.key == "k2-n2-r4-lattice"))
        packed = compile_schedule(dag)
        unpacked = round_plan(dag)
        # the emitted schedules are already near-maximally parallel; ASAP
        # packing may only fold layers, never split them
        assert packed.num_layers <= unpacked.num_layers <= len(dag.rounds)
        batch = rng.integers(0, 100, size=(64, dag.num_nodes))
        assert np.array_equal(packed.run(batch), unpacked.run(batch))

    def test_asap_packing_folds_independent_rounds(self):
        """Comparators from different rounds touching disjoint nodes land in
        one packed layer (and stay separate in the per-round plan)."""
        from repro.schedule import ComparatorOp, SchedulePhase, ScheduleRound

        phases = tuple(
            SchedulePhase(index=i, path=("sort", f"p{i}"), kind="routing",
                          dim=None, charged_rounds=1)
            for i in range(2)
        )
        rounds = (
            ScheduleRound(index=0, phase=0, charge=1,
                          comparators=(ComparatorOp(0, 1),)),
            ScheduleRound(index=1, phase=1, charge=1,
                          comparators=(ComparatorOp(2, 3),)),
        )
        dag = ComparatorDAG(backend="lattice", factor="synthetic", n=2, r=2,
                            num_nodes=4, phases=phases, rounds=rounds)
        assert compile_schedule(dag).num_layers == 1
        assert round_plan(dag).num_layers == 2
        out = compile_schedule(dag).run(np.array([3, 1, 9, 4]))
        assert np.array_equal(out, [1, 3, 4, 9])

    def test_kernel_cache_is_keyed_by_schedule_hash(self):
        dag = _emit(DEFAULT_MATRIX[0])
        assert compile_schedule(dag) is compile_schedule(dag)
        assert compile_schedule(dag).schedule_hash == dag.schedule_hash()
        assert compile_schedule(dag) is not round_plan(dag)

    def test_cache_hit_does_not_rehash(self, monkeypatch):
        """The schedule hash is memoised on the DAG: a kernel-cache hit never
        rebuilds the canonical form."""
        dag = _emit(DEFAULT_MATRIX[0])
        kernel = compile_schedule(dag)
        calls = []
        original = ComparatorDAG.canonical
        monkeypatch.setattr(
            ComparatorDAG, "canonical", lambda self: calls.append(1) or original(self)
        )
        assert compile_schedule(dag) is kernel
        assert calls == []

    def test_rejects_wrong_width(self):
        dag = _emit(DEFAULT_MATRIX[0])
        with pytest.raises(ValueError, match="keys per row"):
            compile_schedule(dag).run(np.zeros(dag.num_nodes + 1))


class TestEmission:
    def test_emission_is_keyless_and_cached(self):
        cell = DEFAULT_MATRIX[0]
        assert _emit(cell) is _emit(cell)

    def test_machine_emission_cached_per_cell(self):
        cell = next(c for c in DEFAULT_MATRIX if c.backend == "machine")
        sorter = MachineSorter.for_factor(cell.build_factor(), cell.r)
        assert sorter.emitted_schedule() is sorter.emitted_schedule()
        assert sorter.schedule().meta.get("emitted") is True

    def test_emitted_hashes_reproduce_the_blessed_seed(self):
        """The byte-identity acceptance criterion: fresh emissions equal the
        hashes pinned in BENCH_seed.json on every canonical cell."""
        with open(os.path.join(REPO_ROOT, "BENCH_seed.json")) as fh:
            pinned = {c["cell"]: c["schedule_hash"] for c in json.load(fh)["cells"]}
        for cell in DEFAULT_MATRIX:
            assert _emit(cell).schedule_hash() == pinned[cell.key], cell.key

    def test_lattice_program_owns_each_phase_once(self):
        """The span program follows the first sibling: every charged span
        owns one phase and every phase is owned by exactly one span."""
        for cell in DEFAULT_MATRIX:
            if cell.backend != "lattice":
                continue
            sorter = ProductNetworkSorter.for_factor(cell.build_factor(), cell.r)
            emitted = sorter.emitted_schedule()
            assert emitted.dag is sorter.schedule()
            owned = [i.phase for i in emitted.program if i.op == "open" and i.phase is not None]
            assert owned == list(range(len(emitted.dag.phases))), cell.key
