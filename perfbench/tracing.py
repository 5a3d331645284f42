"""Span recording around the public layer boundaries of ``repro``.

The traced run wraps, for its duration only, the public functions and
methods each layer exposes (emission, hashing, the optimizer, kernel
construction and lookup, kernel execution, the sorter entry points).  Every
wrapped call becomes a :class:`Span` with a name, start, end, parent and the
operation id of the benchmark operation it serves.  Spans stay in memory and
are written out as JSON lines when the run ends.  Nothing in ``repro``
changes: :func:`instrument` swaps attributes in and restores them on exit.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: str | None
    id: int
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    children: float = 0.0  # summed duration of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part covered by direct children (which never
        overlap: every traced call runs on one thread, nested)."""
        return self.duration - self.children


class Recorder:
    """In-memory span store with a nesting stack (single-threaded use)."""

    traced = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op: str | None = None
        #: per-round plan layers seen built: ``id(layer) -> (layer, phase kind)``
        self.plan_kinds: dict[int, tuple[Any, str]] = {}

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, 0.0, parent.id if parent else None, self.op, len(self.spans), attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = perf_counter()
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.children += sp.duration

    def self_times(self, op_prefix: str) -> dict[str, float]:
        """Summed self time per span name, over operations starting with
        ``op_prefix``."""
        out: dict[str, float] = {}
        for sp in self.spans:
            if sp.op is not None and sp.op.startswith(op_prefix):
                out[sp.name] = out.get(sp.name, 0.0) + sp.self_time
        return out

    def find(self, name: str, op_prefix: str = "") -> list[Span]:
        return [sp for sp in self.spans
                if sp.name == name and (sp.op or "").startswith(op_prefix)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sp in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sp.id,
                            "name": sp.name,
                            "start": sp.start,
                            "end": sp.end,
                            "parent": sp.parent,
                            "op": sp.op,
                            "attrs": sp.attrs,
                        }
                    )
                    + "\n"
                )


class NullRecorder:
    """The untraced stand-in: same interface, records nothing."""

    traced = False
    op: str | None = None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        yield None


def _wrap(rec: Recorder, name: str, fn: Callable[..., Any],
          counter: Callable[[], int] | None = None,
          after: Callable[[Span, bool, Any], None] | None = None) -> Callable[..., Any]:
    """Wrap ``fn`` in a span; with ``counter`` (a cache statistic read before
    and after the call) the span records whether that statistic moved."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with rec.span(name) as sp:
            before = counter() if counter is not None else 0
            result = fn(*args, **kwargs)
            if after is not None:
                moved = counter is not None and counter() != before
                after(sp, moved, result)
        return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


@contextmanager
def instrument(rec: Recorder) -> Iterator[None]:
    """Wrap every layer boundary in spans for the duration of the block.

    Per-round plans built inside the block are entered in
    ``rec.plan_kinds``, which lets the ``apply_layer`` wrapper attribute a
    plan layer's time to the paper's ``s2`` or ``routing`` phase; packed
    kernel layers are not in it and run unrecorded.
    """
    from repro import schedule
    from repro.core import lattice_sort
    from repro.core.lattice_sort import ProductNetworkSorter
    from repro.schedule import compiled, emit, ir, optimize
    from repro.schedule.compiled import CompiledSchedule

    plan_kinds = rec.plan_kinds

    def after_emit(sp: Span, miss: bool, dag: Any) -> None:
        sp.attrs["miss"] = miss
        if miss:
            sp.attrs["ops"] = dag.comparator_count + dag.block_sort_count

    def after_optimize(sp: Span, miss: bool, res: Any) -> None:
        sp.attrs["miss"] = miss
        if miss:
            sp.attrs["validated"] = int(res.ok)
            sp.attrs["ops_removed"] = res.comparators_removed + res.block_sorts_removed

    def after_compile(sp: Span, hit: bool, kernel: Any) -> None:
        sp.attrs["hit"] = hit

    orig_init = CompiledSchedule.__init__
    orig_apply = CompiledSchedule.apply_layer

    def init(self: Any, dag: Any, packed: bool = True, *args: Any, **kwargs: Any) -> None:
        with rec.span("compiled.build") as sp:
            orig_init(self, dag, packed, *args, **kwargs)
            sp.attrs["layers"] = self.num_layers
        if not packed:
            kinds = [
                dag.phases[rd.phase].kind
                for rd in dag.rounds
                if rd.comparators or rd.block_sorts
            ]
            if len(kinds) != len(self.layers):
                raise RuntimeError("per-round plan layers do not match the IR rounds")
            for layer, kind in zip(self.layers, kinds):
                plan_kinds[id(layer)] = (layer, kind)

    def apply_layer(arr: Any, layer: Any) -> None:
        entry = plan_kinds.get(id(layer))
        if entry is None or entry[0] is not layer:
            orig_apply(arr, layer)
            return
        with rec.span(f"plan.{entry[1]}"):
            orig_apply(arr, layer)

    compile_w = _wrap(rec, "compiled.lookup", compiled.compile_schedule,
                      lambda: compiled.KERNEL_CACHE_STATS.hits, after_compile)
    round_plan_w = _wrap(rec, "plan.lookup", lattice_sort.round_plan)
    emit_w = _wrap(rec, "emit", emit.emit_lattice_schedule,
                   lambda: emit.LATTICE_CACHE_STATS.misses, after_emit)
    patches: list[tuple[Any, str, Any]] = [
        (emit, "emit_lattice_schedule", emit_w),
        (lattice_sort, "emit_lattice_schedule", emit_w),
        (ir.ComparatorDAG, "schedule_hash", _wrap(rec, "ir.hash", ir.ComparatorDAG.schedule_hash)),
        (optimize, "optimize_schedule",
         _wrap(rec, "optimize", optimize.optimize_schedule,
               lambda: optimize.OPTIMIZER_CACHE_STATS.misses, after_optimize)),
        (compiled, "compile_schedule", compile_w),
        (schedule, "compile_schedule", compile_w),
        (lattice_sort, "round_plan", round_plan_w),
        (CompiledSchedule, "__init__", init),
        (CompiledSchedule, "apply_layer", staticmethod(apply_layer)),
        (CompiledSchedule, "run", _wrap(rec, "kernel.run", CompiledSchedule.run)),
        (ProductNetworkSorter, "schedule",
         _wrap(rec, "sorter.schedule", ProductNetworkSorter.schedule)),
        (ProductNetworkSorter, "sort_sequence",
         _wrap(rec, "sort_sequence", ProductNetworkSorter.sort_sequence)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
