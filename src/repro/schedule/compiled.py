"""Compiled execution of the Schedule IR: packed layers, whole-batch passes.

The emitted :class:`~repro.schedule.ir.ComparatorDAG` orders operations by
*charged phase*; within a phase the operations are simultaneous, and across
phases an operation only truly depends on earlier operations touching the
same nodes.  :func:`compile_schedule` exploits this: an ASAP (as soon as
possible) scan assigns every comparator and block sort the earliest layer
after its last same-node predecessor, packing independent operations — even
from different phases — into maximal parallel layers.  Each layer then
executes as a constant number of NumPy passes over a whole ``(batch, N**r)``
key array:

* all of a layer's comparators as one fancy-indexed ``minimum``/``maximum``
  pair, and
* all of a layer's equal-width block sorts as one gathered
  ``(batch, blocks, width)`` ``np.sort`` (descending rows flipped), scattered
  back in the blocks' local snake orders.

With packing disabled the same machinery executes the DAG round by round —
the faithful per-phase semantics :meth:`CompiledSchedule.run` shares with
:func:`repro.schedule.ir.replay`; the lattice backend uses that plan for
single lattices and the packed kernel for batches.

Kernels are cached by the DAG's canonical SHA-256 schedule hash (see
:meth:`ComparatorDAG.schedule_hash`): two cells with byte-identical
schedules — however they were emitted — share one compiled artifact.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from ..observability.cachestats import CacheStats
from .ir import ComparatorDAG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability.kernelprof import KernelProfiler

__all__ = [
    "CompiledSchedule",
    "ScheduleLayer",
    "clear_kernel_cache",
    "compile_schedule",
    "get_profiler",
    "reject_nan",
    "round_plan",
    "set_profiler",
]


def reject_nan(keys: np.ndarray) -> None:
    """Raise ``ValueError`` when a float key array holds a NaN.

    The comparators' ``np.minimum``/``np.maximum`` propagate NaN, so one NaN
    key would come back as two and the output would not be a permutation of
    the input.  ±inf is accepted: min/max and ``np.sort`` order it alike.
    Only float dtypes pay for the check.
    """
    if keys.dtype.kind == "f" and np.isnan(keys).any():
        raise ValueError("NaN keys cannot be sorted by a comparator network")


@dataclass(frozen=True)
class ScheduleLayer:
    """One packed parallel layer: disjoint comparators and block sorts."""

    #: comparator endpoints (minimum side), fancy-index ready
    lo: np.ndarray
    #: comparator endpoints (maximum side)
    hi: np.ndarray
    #: equal-width block-sort groups: (nodes matrix ``(blocks, width)`` in
    #: local snake order, indices of rows sorted descending)
    block_groups: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def op_count(self) -> int:
        return int(self.lo.size) + sum(mat.shape[0] for mat, _ in self.block_groups)


class CompiledSchedule:
    """An executable layering of one :class:`ComparatorDAG`.

    ``packed=True`` (the default) applies the ASAP re-layering described in
    the module docstring; ``packed=False`` keeps one layer per IR round,
    preserving the emitted phase granularity exactly.
    """

    def __init__(
        self,
        dag: ComparatorDAG,
        packed: bool = True,
        schedule_hash: str | None = None,
        source_hash: str | None = None,
    ) -> None:
        self.num_nodes = dag.num_nodes
        # the canonical SHA-256 is expensive enough to compute exactly once:
        # compile_schedule passes the hash it already derived the cache key from
        self.schedule_hash = schedule_hash if schedule_hash is not None else dag.schedule_hash()
        #: hash of the schedule this kernel was derived *from* — differs from
        #: ``schedule_hash`` only for optimizer-produced kernels, where it
        #: names the original emitted schedule
        self.source_hash = source_hash if source_hash is not None else self.schedule_hash
        self.packed = packed
        #: benchreg-style label for profiler metrics (family-n-r, no backend:
        #: the kernel is backend-agnostic once emitted)
        self.cell = f"{dag.factor}-n{dag.n}-r{dag.r}"
        depth = np.zeros(dag.num_nodes, dtype=np.int64)
        # layer index -> ([lo...], [hi...], {width: ([rows of nodes], [descending])})
        comps: dict[int, tuple[list[int], list[int]]] = {}
        blocks: dict[int, dict[int, tuple[list[tuple[int, ...]], list[bool]]]] = {}
        for round_no, rd in enumerate(dag.rounds):
            for op in rd.comparators:
                layer = (
                    int(max(depth[op.lo], depth[op.hi])) + 1 if packed else round_no + 1
                )
                depth[op.lo] = depth[op.hi] = layer
                lo_list, hi_list = comps.setdefault(layer, ([], []))
                lo_list.append(op.lo)
                hi_list.append(op.hi)
            for blk in rd.block_sorts:
                idx = np.asarray(blk.nodes, dtype=np.intp)
                layer = int(depth[idx].max()) + 1 if packed else round_no + 1
                depth[idx] = layer
                rows, desc = blocks.setdefault(layer, {}).setdefault(len(blk.nodes), ([], []))
                rows.append(blk.nodes)
                desc.append(blk.descending)

        layers: list[ScheduleLayer] = []
        for layer in sorted(set(comps) | set(blocks)):
            lo_list, hi_list = comps.get(layer, ([], []))
            groups = tuple(
                (
                    np.asarray(rows, dtype=np.intp),
                    np.flatnonzero(np.asarray(desc, dtype=bool)),
                )
                for rows, desc in blocks.get(layer, {}).values()
            )
            layers.append(
                ScheduleLayer(
                    lo=np.asarray(lo_list, dtype=np.intp),
                    hi=np.asarray(hi_list, dtype=np.intp),
                    block_groups=groups,
                )
            )
        self.layers: tuple[ScheduleLayer, ...] = tuple(layers)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def _prepare(self, state: np.ndarray) -> tuple[np.ndarray, bool]:
        """Copy/validate ``state`` into a ``(batch, num_nodes)`` work array."""
        arr = np.array(state, copy=True)
        reject_nan(arr)
        squeeze = arr.ndim == 1
        if squeeze:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2 or arr.shape[1] != self.num_nodes:
            raise ValueError(
                f"state must have {self.num_nodes} keys per row, got {np.shape(state)}"
            )
        return arr, squeeze

    @staticmethod
    def apply_layer(arr: np.ndarray, layer: ScheduleLayer) -> None:
        """Execute one layer in place over a prepared ``(batch, N)`` array."""
        if layer.lo.size:
            lo = arr[:, layer.lo]
            hi = arr[:, layer.hi]
            arr[:, layer.lo] = np.minimum(lo, hi)
            arr[:, layer.hi] = np.maximum(lo, hi)
        for nodes, desc_rows in layer.block_groups:
            sub = np.sort(arr[:, nodes], axis=2)
            if desc_rows.size:
                sub[:, desc_rows] = sub[:, desc_rows, ::-1]
            arr[:, nodes] = sub

    def run(self, state: np.ndarray) -> np.ndarray:
        """Execute the schedule over a key vector or a whole batch.

        ``state`` has shape ``(num_nodes,)`` or ``(batch, num_nodes)``,
        indexed by flat node id; returns a fresh array of the same shape.
        Semantically identical to :func:`repro.schedule.ir.replay` — the
        property tests pin that equivalence — just fewer, wider passes.

        When a :class:`~repro.observability.kernelprof.KernelProfiler` is
        installed (see :func:`set_profiler`) and enabled, the run is timed
        layer by layer; otherwise the only overhead is one ``None`` check.
        """
        profiler = _PROFILER
        if profiler is not None and profiler.enabled:
            return profiler.profiled_run(self, state)
        arr, squeeze = self._prepare(state)
        for layer in self.layers:
            self.apply_layer(arr, layer)
        return arr[0] if squeeze else arr

    __call__ = run

    def describe(self) -> str:
        ops = sum(layer.op_count for layer in self.layers)
        mode = "packed" if self.packed else "per-round"
        return (
            f"compiled schedule {self.schedule_hash[:12]}: {self.num_layers} {mode} "
            f"layers, {ops} operations over {self.num_nodes} nodes"
        )


_KERNEL_LOCK = threading.Lock()
_KERNELS: dict[tuple[str, bool, bool], CompiledSchedule] = {}

#: hit/miss/compile-time accounting for the kernel cache (see
#: :mod:`repro.observability.cachestats`)
KERNEL_CACHE_STATS = CacheStats("compiled-kernels", size_fn=lambda: len(_KERNELS))

#: process-wide profiler hook; ``None`` (the default) keeps :meth:`run` on
#: the zero-instrumentation fast path
_PROFILER: "KernelProfiler | None" = None


def set_profiler(profiler: "KernelProfiler | None") -> "KernelProfiler | None":
    """Install (``None``: remove) the process-wide kernel profiler.

    Returns the previously installed profiler so callers can restore it —
    :class:`~repro.observability.kernelprof.KernelProfiler` does exactly
    that when used as a context manager.
    """
    global _PROFILER
    previous = _PROFILER
    _PROFILER = profiler
    return previous


def get_profiler() -> "KernelProfiler | None":
    """The currently installed process-wide kernel profiler, if any."""
    return _PROFILER


def compile_schedule(
    dag: ComparatorDAG, packed: bool = True, optimize: bool = False
) -> CompiledSchedule:
    """Compile (or fetch from the hash-keyed cache) a DAG's batch kernel.

    ``optimize=True`` first runs the certified optimizer pipeline
    (:func:`repro.schedule.optimize.optimize_schedule`, itself memoised by
    the original hash) and compiles the validated optimized schedule; the
    kernel then carries both hashes — ``source_hash`` names the original
    emitted schedule (also the cache key), ``schedule_hash`` the optimized
    one actually executed.  A failed certificate or validation falls back
    to compiling the unoptimized schedule.
    """
    schedule_hash = dag.schedule_hash()
    key = (schedule_hash, packed, optimize)
    with _KERNEL_LOCK:
        kernel = _KERNELS.get(key)
    if kernel is not None:
        KERNEL_CACHE_STATS.record_hit()
        return kernel
    # build outside the lock (compilation is pure); a racing thread may
    # build the same kernel, in which case setdefault keeps the first one
    t0 = perf_counter()
    target, target_hash = dag, schedule_hash
    if optimize:
        from .optimize import optimize_schedule

        result = optimize_schedule(dag)
        target, target_hash = result.optimized, result.optimized_hash
    built = CompiledSchedule(
        target, packed=packed, schedule_hash=target_hash, source_hash=schedule_hash
    )
    KERNEL_CACHE_STATS.record_miss(perf_counter() - t0)
    with _KERNEL_LOCK:
        return _KERNELS.setdefault(key, built)


def clear_kernel_cache() -> None:
    """Drop every compiled kernel and reset its cache statistics."""
    with _KERNEL_LOCK:
        _KERNELS.clear()
    KERNEL_CACHE_STATS.reset()


def round_plan(dag: ComparatorDAG) -> CompiledSchedule:
    """The unpacked (one layer per IR round) executor for a DAG."""
    return compile_schedule(dag, packed=False)
