"""Compiled execution of the Schedule IR: packed layers, whole-batch passes.

The emitted :class:`~repro.schedule.ir.ComparatorDAG` orders operations by
*charged phase*; within a phase the operations are simultaneous, and across
phases an operation only truly depends on earlier operations touching the
same nodes.  :func:`compile_schedule` exploits this: an ASAP (as soon as
possible) scan assigns every comparator and block sort the earliest layer
after its last same-node predecessor, packing independent operations — even
from different phases — into maximal parallel layers.

:meth:`CompiledSchedule.run` copies its input once into a node-major
``(N**r, batch)`` work array — one C-contiguous row of ``batch`` lanes per
node, transposed in cache-sized bands (:func:`_transposed`) — and executes
each layer as a constant number of NumPy passes over whole rows:

* all of a layer's comparators as one row gather ``w[lo]``, ``w[hi]``, a
  ``minimum``/``maximum`` pair and a scatter back, and
* each equal-width block-sort group either as one gathered
  ``(blocks, width, batch)`` slab sorted in place along the width axis
  (descending rows flipped) and scattered back in the blocks' local snake
  orders, or — when the group has enough lanes that comparators are
  cheaper — *lowered* to the stages of Batcher's odd-even merge-sort
  network along each block's local snake order, the first stage merged
  into the layer's own comparator slab.

Lowering is decided per group and batch from :data:`_LOWER_FROM_LANES`, a
cost table measured on this kernel: a group of width ``w`` is lowered when
its lane count ``blocks × batch`` reaches the width's entry; widths without
an entry always sort.  This is the agglomeration trade-off of the
optimizer's block-sort super-op run in the other direction, decided by
measurement.  The layers themselves (``lo``, ``hi``, ``block_groups``) stay
exactly as emitted; the lowered stages are derived lazily per layer and
batch regime.  One transpose at the end returns a fresh C-contiguous
``(batch, N**r)`` array.

:meth:`CompiledSchedule.apply_layer` keeps the per-layer ``(batch, N)``
in-place contract for every caller: it runs the node-major step on
``arr.T``, which for ``run``'s own buffer is the C-contiguous work array
itself, so the fast path pays no copy.

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
from dataclasses import dataclass, field
from itertools import zip_longest
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from ..baselines.batcher import odd_even_merge_sort_network
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


#: the one error every sorting entry point raises for a NaN key
NAN_KEYS_MESSAGE = "NaN keys cannot be sorted by a comparator network"


def reject_nan(keys: np.ndarray) -> None:
    """Raise ``ValueError`` when a float key array holds a NaN.

    The comparators' ``np.minimum``/``np.maximum`` propagate NaN, so one NaN
    key would come back as two and the output would not be a permutation of
    the input.  ±inf is accepted: min/max and ``np.sort`` order it alike.
    Only float dtypes pay for the check.
    """
    if keys.dtype.kind == "f" and np.isnan(keys).any():
        raise ValueError(NAN_KEYS_MESSAGE)


#: Lane count (``blocks × batch``) from which a block-sort group of a given
#: width runs faster as Batcher comparator stages than as an in-place sort;
#: widths without an entry always sort.  Measured node-major on int64 and
#: float64 by ``benchmarks/lowering_cost.py``; the table and the host are in
#: ``docs/schedule-ir.md``.
_LOWER_FROM_LANES: dict[int, int] = {4: 2048}

#: a batch size no run reaches: the group is never lowered
_NEVER = 1 << 62

#: index arrays: a comparator stage ``(lo, hi)`` or a block-sort group
#: ``(nodes, desc_rows)``
_Pair = tuple[np.ndarray, np.ndarray]
#: a layer's executable form in one batch regime: comparator stages run in
#: order, then block-sort groups sorted in place
_Plan = tuple[tuple[_Pair, ...], tuple[_Pair, ...]]


def _transposed(a: np.ndarray) -> np.ndarray:
    """A fresh C-contiguous copy of ``a.T`` for a 2-D array ``a``.

    A one-pass copy walks ``a`` down its columns.  When a row of ``a`` spans
    a large power of two of bytes, every read of one column lands in the
    same cache set: on a 2-core AMD EPYC host with NumPy 2.4 a
    ``(256, 4096)`` float64 batch took 44 ms to transpose that way, against
    3 ms for ``np.sort`` over it.  Arrays of 64K elements or more are copied
    in bands of at least 8 rows (one cache line of output per row) and about
    64 KB of float64 input, whose lines stay resident: 0.7 ms there.
    """
    if a.size < 1 << 16:
        return np.array(a.T, order="C")
    out = np.empty(a.shape[::-1], dtype=a.dtype)
    band = max(8, 8192 // a.shape[1])
    for i in range(0, a.shape[0], band):
        out[:, i : i + band] = a[i : i + band].T
    return out


def _lowered_from_batch(blocks: int, width: int) -> int:
    """The smallest batch at which a group of ``blocks`` blocks is lowered."""
    lanes = _LOWER_FROM_LANES.get(width)
    return _NEVER if lanes is None else -(-lanes // blocks)


def _lowered_stages(nodes: np.ndarray, desc_rows: np.ndarray) -> list[_Pair]:
    """Batcher odd-even merge-sort stages sorting every row of ``nodes``.

    Each row is one block's nodes in local snake order; a width that is not
    a power of two runs the next power's network with every comparator that
    touches a padded position dropped (a padded key is +inf, so those
    comparators never move anything).  Rows in ``desc_rows`` swap ends.
    """
    blocks, width = nodes.shape
    swap = np.zeros((blocks, 1), dtype=bool)
    swap[desc_rows] = True
    stages: list[_Pair] = []
    for stage in odd_even_merge_sort_network(1 << (width - 1).bit_length()):
        pairs = np.array([p for p in stage if p[1] < width], dtype=np.intp).reshape(-1, 2)
        if pairs.size:
            first, second = nodes[:, pairs[:, 0]], nodes[:, pairs[:, 1]]
            lo = np.where(swap, second, first)
            hi = np.where(swap, first, second)
            stages.append((lo.ravel(), hi.ravel()))
    return stages


def _apply_plan(w: np.ndarray, plan: _Plan) -> None:
    """Run one layer's plan in place over a node-major ``(N, batch)`` array."""
    stages, groups = plan
    for lo, hi in stages:
        a = w[lo]
        b = w[hi]
        w[lo] = np.minimum(a, b)
        w[hi] = np.maximum(a, b, out=b)
    for nodes, desc_rows in groups:
        sub = w[nodes]
        sub.sort(axis=1)
        if desc_rows.size:
            sub[desc_rows] = sub[desc_rows, ::-1]
        w[nodes] = sub


@dataclass(frozen=True)
class ScheduleLayer:
    """One packed parallel layer: disjoint comparators and block sorts.

    The fields are the layer as emitted.  :meth:`plan` derives, per batch
    size, which block-sort groups run lowered to comparator stages (see
    :data:`_LOWER_FROM_LANES`); the derived stages are cached on the layer.
    """

    #: comparator endpoints (minimum side), fancy-index ready
    lo: np.ndarray
    #: comparator endpoints (maximum side)
    hi: np.ndarray
    #: equal-width block-sort groups: (nodes matrix ``(blocks, width)`` in
    #: local snake order, indices of rows sorted descending)
    block_groups: tuple[_Pair, ...]
    #: per group, the smallest batch at which it is lowered
    _lower_at: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: the smallest of those, and the plan below it: nothing lowered
    _lower_from: int = field(init=False, repr=False, compare=False)
    _direct: _Plan = field(init=False, repr=False, compare=False)
    #: plans by lowered-group mask, built on first use
    _plans: dict[tuple[bool, ...], _Plan] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lower_at = tuple(_lowered_from_batch(*mat.shape) for mat, _ in self.block_groups)
        direct: _Plan = (((self.lo, self.hi),) if self.lo.size else (), self.block_groups)
        object.__setattr__(self, "_lower_at", lower_at)
        object.__setattr__(self, "_lower_from", min(lower_at, default=_NEVER))
        object.__setattr__(self, "_direct", direct)
        object.__setattr__(self, "_plans", {})

    @property
    def op_count(self) -> int:
        return int(self.lo.size) + sum(mat.shape[0] for mat, _ in self.block_groups)

    def plan(self, batch: int) -> _Plan:
        """The comparator stages and sorted groups this layer runs at ``batch``."""
        if batch < self._lower_from:
            return self._direct
        mask = tuple(batch >= at for at in self._lower_at)
        plan = self._plans.get(mask)
        if plan is None:
            plan = self._plans.setdefault(mask, self._lower(mask))
        return plan

    def _lower(self, mask: tuple[bool, ...]) -> _Plan:
        # stage k of every lowered group runs in one pass; the layer's own
        # comparator slab joins the first
        sequences = [[(self.lo, self.hi)]] if self.lo.size else []
        sequences += [_lowered_stages(*g) for g, low in zip(self.block_groups, mask) if low]
        stages = []
        for column in zip_longest(*sequences):
            pairs = [pair for pair in column if pair is not None]
            lo = np.concatenate([lo for lo, _ in pairs])
            hi = np.concatenate([hi for _, hi in pairs])
            stages.append((lo, hi))
        kept = tuple(g for g, low in zip(self.block_groups, mask) if not low)
        return tuple(stages), kept


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
        """Validate ``state`` and copy it into a node-major work array.

        Returns a fresh C-contiguous ``(num_nodes, batch)`` array — row
        ``i`` holds node ``i``'s key across the batch — and whether
        ``state`` was a single vector.
        """
        arr = np.asarray(state)
        squeeze = arr.ndim == 1
        if squeeze:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2 or arr.shape[1] != self.num_nodes:
            raise ValueError(
                f"state must have {self.num_nodes} keys per row, got {np.shape(state)}"
            )
        reject_nan(arr)
        return _transposed(arr), squeeze

    @staticmethod
    def _finish(work: np.ndarray, squeeze: bool) -> np.ndarray:
        """The caller's layout of a finished work array from :meth:`_prepare`."""
        return work[:, 0] if squeeze else _transposed(work)

    @staticmethod
    def apply_layer(arr: np.ndarray, layer: ScheduleLayer) -> None:
        """Execute one layer in place over a ``(batch, N)`` array.

        The step runs node-major on ``arr.T``; :meth:`run` passes the
        ``.T`` view of its C-contiguous work array, so there that is the
        work array itself.  Any other ``(batch, N)`` array works too, at
        the cost of strided row gathers.
        """
        w = arr.T
        _apply_plan(w, layer.plan(w.shape[1]))

    def run(self, state: np.ndarray) -> np.ndarray:
        """Execute the schedule over a key vector or a whole batch.

        ``state`` has shape ``(num_nodes,)`` or ``(batch, num_nodes)``,
        indexed by flat node id; returns a fresh C-contiguous array of the
        same shape.  Semantically identical to
        :func:`repro.schedule.ir.replay` — the property tests pin that
        equivalence — just fewer, wider passes.

        When a :class:`~repro.observability.kernelprof.KernelProfiler` is
        installed (see :func:`set_profiler`) and enabled, the run is timed
        layer by layer; otherwise the only overhead is one ``None`` check.
        """
        profiler = _PROFILER
        if profiler is not None and profiler.enabled:
            return profiler.profiled_run(self, state)
        work, squeeze = self._prepare(state)
        view = work.T
        for layer in self.layers:
            self.apply_layer(view, layer)
        return self._finish(work, squeeze)

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
