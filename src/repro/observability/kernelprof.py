"""Per-layer profiler for the compiled batch kernel — the hot path's x-ray.

PR 6 made :class:`~repro.schedule.compiled.CompiledSchedule` the execution
spine, 40–147× faster than the interpreted path, but the tracing stack only
instruments the interpreted backends.  This module closes that gap:

* :class:`KernelProfiler` re-executes a kernel layer by layer (via the
  kernel's own ``apply_layer``, on the same node-major work array
  ``CompiledSchedule.run`` uses), timing each layer with
  ``time.perf_counter_ns`` and deriving per-layer op counts, **occupancy**
  (comparator-slot utilisation: key-endpoints-touched ÷ 2 ÷ ⌊N/2⌋ — exactly
  1.0 when a layer engages every disjoint pair the network offers, the
  comparator-agglomeration ideal) and estimated bytes touched (read+write of
  every engaged key across the batch).  Results land in a
  :class:`RunProfile`, in a :class:`~repro.observability.metrics.MetricsRegistry`
  (``repro_compiled_run_seconds{cell,packed}`` /
  ``repro_compiled_layer_seconds`` histograms with p50/p99 derivable from
  the buckets, ``repro_compiled_keys_total`` / ``repro_compiled_runs_total``
  counters) and — when a tracer is attached — as ``compiled-run`` /
  ``kernel-layer`` spans on the event bus, so the Chrome-trace export
  renders compiled layers alongside interpreted phase spans.
* Installed process-wide (:meth:`KernelProfiler.install` or the context
  manager), the profiler intercepts every ``CompiledSchedule.run``; when no
  profiler is installed the kernel pays a single ``None`` check.
* :func:`profile_cell` sweeps a benchreg cell's kernel across batch sizes
  for both the packed and per-round plans, verifying every profiled output
  against the snake-order ground truth; :func:`render_profile` prints the
  per-layer tables plus an occupancy heatmap
  (:func:`repro.viz.render_heatmap`), and :func:`profile_chrome_trace`
  exports the layer spans as Chrome trace-event JSON.

This module must not import :mod:`repro.schedule` at module level — the
schedule modules import :mod:`repro.observability.cachestats`, which
triggers this package's ``__init__``; all schedule imports are deferred
into function bodies.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ContextManager, Iterable

import numpy as np

from ..viz import render_heatmap
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..schedule.compiled import CompiledSchedule
    from .tracer import Tracer

__all__ = [
    "KernelProfiler",
    "LayerProfile",
    "RUN_TIME_BUCKETS",
    "RunProfile",
    "profile_cell",
    "profile_chrome_trace",
    "render_profile",
    "resolve_profile_cell",
]

#: fine-grained sub-second buckets for compiled-run / per-layer wall time —
#: a 1-2.5-5 ladder from 1µs to 1s, so p50/p99 interpolate meaningfully at
#: the tens-of-microseconds scale the kernel actually runs at
RUN_TIME_BUCKETS = (
    1e-6,
    2.5e-6,
    5e-6,
    1e-5,
    2.5e-5,
    5e-5,
    1e-4,
    2.5e-4,
    5e-4,
    1e-3,
    2.5e-3,
    5e-3,
    1e-2,
    2.5e-2,
    5e-2,
    0.1,
    0.25,
    0.5,
    1.0,
)


@dataclass(frozen=True)
class LayerProfile:
    """One kernel layer of one profiled run."""

    #: layer position in the kernel's execution order
    index: int
    #: two-key comparators executed by the layer
    comparators: int
    #: individual block sorts (rows across all equal-width groups)
    block_rows: int
    #: keys engaged by the layer (comparator endpoints + block-sort members)
    nodes_touched: int
    #: layer wall time, nanoseconds (``perf_counter_ns``)
    wall_ns: int
    #: comparator-slot utilisation: ``nodes_touched / 2 / floor(N / 2)``
    occupancy: float
    #: estimated bytes moved: read + write of every engaged key, whole batch
    bytes_touched: int

    @property
    def op_count(self) -> int:
        return self.comparators + self.block_rows

    def to_json(self) -> dict[str, Any]:
        return {
            "layer": self.index,
            "comparators": self.comparators,
            "block_rows": self.block_rows,
            "ops": self.op_count,
            "nodes_touched": self.nodes_touched,
            "wall_ns": self.wall_ns,
            "occupancy": self.occupancy,
            "bytes_touched": self.bytes_touched,
        }


@dataclass(frozen=True)
class RunProfile:
    """One profiled execution of a compiled kernel over one batch."""

    cell: str
    schedule_hash: str
    packed: bool
    batch: int
    num_nodes: int
    wall_ns: int
    layers: tuple[LayerProfile, ...]

    @property
    def keys(self) -> int:
        """Keys sorted by the run: batch rows × lattice width."""
        return self.batch * self.num_nodes

    @property
    def wall_s(self) -> float:
        return self.wall_ns / 1e9

    @property
    def keys_per_s(self) -> float:
        return self.keys / self.wall_s if self.wall_ns else float("inf")

    @property
    def op_count(self) -> int:
        return sum(layer.op_count for layer in self.layers)

    @property
    def mean_occupancy(self) -> float:
        if not self.layers:
            return 0.0
        return sum(layer.occupancy for layer in self.layers) / len(self.layers)

    @property
    def max_occupancy(self) -> float:
        return max((layer.occupancy for layer in self.layers), default=0.0)

    def to_json(self) -> dict[str, Any]:
        return {
            "cell": self.cell,
            "schedule_hash": self.schedule_hash,
            "packed": self.packed,
            "batch": self.batch,
            "num_nodes": self.num_nodes,
            "keys": self.keys,
            "wall_ns": self.wall_ns,
            "wall_s": self.wall_s,
            "keys_per_s": self.keys_per_s,
            "ops": self.op_count,
            "mean_occupancy": self.mean_occupancy,
            "max_occupancy": self.max_occupancy,
            "layers": [layer.to_json() for layer in self.layers],
        }


class KernelProfiler:
    """Times compiled-kernel runs layer by layer and feeds the telemetry.

    ``registry`` (default: a private one) receives the histogram/counter
    instruments listed in the module docstring; ``tracer`` (optional) gets a
    ``compiled-run`` span wrapping one ``kernel-layer`` span per layer, all
    with ``kind="kernel"``.  ``enabled=False`` turns :meth:`profiled_run`
    back into a plain run — the knob the near-zero-overhead contract and its
    test lean on.

    Use directly (``out, profile = profiler.run(kernel, keys)``) or install
    process-wide so every ``CompiledSchedule.run`` is captured::

        with KernelProfiler(registry=registry) as profiler:
            sorter.sort_sequence(keys)          # compiled path now profiled
        print(profiler.last_profile.keys_per_s)
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: "Tracer | None" = None,
        enabled: bool = True,
        history: int = 256,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self.enabled = enabled
        self.history: deque[RunProfile] = deque(maxlen=history)
        self._previous: "KernelProfiler | None" = None
        r = self.registry
        self._run_seconds = r.histogram(
            "repro_compiled_run_seconds",
            "end-to-end compiled-kernel run wall time, by cell and plan",
            buckets=RUN_TIME_BUCKETS,
        )
        self._layer_seconds = r.histogram(
            "repro_compiled_layer_seconds",
            "per-layer compiled-kernel wall time, by cell",
            buckets=RUN_TIME_BUCKETS,
        )
        self._keys_total = r.counter(
            "repro_compiled_keys_total", "keys sorted by the compiled kernel, by cell"
        )
        self._runs_total = r.counter(
            "repro_compiled_runs_total", "profiled compiled-kernel runs, by cell and plan"
        )

    @property
    def last_profile(self) -> RunProfile | None:
        """The most recent :class:`RunProfile`, if any run was profiled."""
        return self.history[-1] if self.history else None

    # -- capture --------------------------------------------------------

    def run(self, kernel: "CompiledSchedule", state: np.ndarray) -> tuple[np.ndarray, RunProfile]:
        """Execute ``kernel`` over ``state``, returning (output, profile)."""
        # the same node-major work array run() uses, so the layers timed
        # here are the layers run() executes
        work, squeeze = kernel._prepare(state)
        view = work.T
        batch = work.shape[1]
        itemsize = int(work.itemsize)
        slots = max(kernel.num_nodes // 2, 1)
        tracer = self.tracer
        layers: list[LayerProfile] = []
        run_span: ContextManager[Any] = (
            tracer.span(
                "compiled-run",
                kind="kernel",
                cell=kernel.cell,
                packed=kernel.packed,
                batch=batch,
                layers=kernel.num_layers,
            )
            if tracer is not None
            else nullcontext()
        )
        t_run = time.perf_counter_ns()
        with run_span:
            for index, layer in enumerate(kernel.layers):
                comparators = int(layer.lo.size)
                block_rows = sum(int(mat.shape[0]) for mat, _ in layer.block_groups)
                touched = 2 * comparators + sum(int(mat.size) for mat, _ in layer.block_groups)
                layer_span: ContextManager[Any] = (
                    tracer.span(
                        "kernel-layer",
                        kind="kernel",
                        cell=kernel.cell,
                        layer=index,
                        ops=comparators + block_rows,
                    )
                    if tracer is not None
                    else nullcontext()
                )
                with layer_span:
                    # Histogram.time() both feeds the per-layer histogram and
                    # hands back the raw nanoseconds for the LayerProfile —
                    # no hand-rolled perf_counter_ns delta at this site
                    with self._layer_seconds.time(cell=kernel.cell) as timer:
                        kernel.apply_layer(view, layer)
                    wall = timer.elapsed_ns
                layers.append(
                    LayerProfile(
                        index=index,
                        comparators=comparators,
                        block_rows=block_rows,
                        nodes_touched=touched,
                        wall_ns=wall,
                        occupancy=touched / 2 / slots,
                        bytes_touched=2 * batch * touched * itemsize,
                    )
                )
        wall_ns = time.perf_counter_ns() - t_run
        profile = RunProfile(
            cell=kernel.cell,
            schedule_hash=kernel.schedule_hash,
            packed=kernel.packed,
            batch=batch,
            num_nodes=kernel.num_nodes,
            wall_ns=wall_ns,
            layers=tuple(layers),
        )
        self._record(profile)
        return kernel._finish(work, squeeze), profile

    def profiled_run(self, kernel: "CompiledSchedule", state: np.ndarray) -> np.ndarray:
        """The hook ``CompiledSchedule.run`` dispatches to when installed."""
        if not self.enabled:  # pragma: no cover - run() short-circuits first
            work, squeeze = kernel._prepare(state)
            for layer in kernel.layers:
                kernel.apply_layer(work.T, layer)
            return kernel._finish(work, squeeze)
        out, _ = self.run(kernel, state)
        return out

    def _record(self, profile: RunProfile) -> None:
        # per-layer seconds were already observed live by Histogram.time()
        plan = "packed" if profile.packed else "per-round"
        self._run_seconds.observe(profile.wall_s, cell=profile.cell, packed=plan)
        self._keys_total.inc(profile.keys, cell=profile.cell)
        self._runs_total.inc(cell=profile.cell, packed=plan)
        self.history.append(profile)

    # -- derived statistics ---------------------------------------------

    def run_quantile(self, q: float, cell: str, packed: bool = True) -> float:
        """Bucket-interpolated run-latency quantile for one (cell, plan)."""
        plan = "packed" if packed else "per-round"
        return self._run_seconds.quantile(q, cell=cell, packed=plan)

    def percentiles(self, cell: str, packed: bool = True) -> dict[str, float]:
        """p50/p99 run latency, derived from the histogram buckets."""
        return {
            "p50": self.run_quantile(0.50, cell, packed),
            "p99": self.run_quantile(0.99, cell, packed),
        }

    # -- process-wide installation --------------------------------------

    def install(self) -> "KernelProfiler":
        """Route every ``CompiledSchedule.run`` through this profiler."""
        from ..schedule.compiled import set_profiler

        self._previous = set_profiler(self)
        return self

    def uninstall(self) -> None:
        """Remove this profiler, restoring whatever was installed before."""
        from ..schedule.compiled import get_profiler, set_profiler

        if get_profiler() is self:
            set_profiler(self._previous)
        self._previous = None

    def __enter__(self) -> "KernelProfiler":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()


# ----------------------------------------------------------------------
# cell sweeps: the `repro profile` engine
# ----------------------------------------------------------------------


def resolve_profile_cell(key: str) -> Any:
    """Map a cell name to its benchreg :class:`WorkloadCell`.

    Accepts full benchreg keys (``path-n3-r3-lattice``) and bare geometry
    names (``path-n3-r3``, defaulting to the lattice cell — the kernel is
    the same artifact either way).
    """
    from .benchreg import DEFAULT_MATRIX

    wanted = {key, f"{key}-lattice"}
    for cell in DEFAULT_MATRIX:
        if cell.key in wanted:
            return cell
    names = ", ".join(sorted({c.key.rsplit("-", 1)[0] for c in DEFAULT_MATRIX}))
    raise ValueError(f"unknown profile cell {key!r}; known cells: {names}")


def profile_cell(
    key: str,
    batches: tuple[int, ...] = (1, 16, 256),
    runs: int = 5,
    seed: int = 0,
    profiler: KernelProfiler | None = None,
    optimize: bool = False,
) -> dict[str, Any]:
    """Profile one benchreg cell's kernel across a batch-size sweep.

    ``optimize=True`` profiles the certified optimizer's output instead of
    the raw emitted schedule (still verified against the snake ground
    truth); the document records both hashes so the win is attributable.

    Both plans (packed ASAP layers and the faithful per-round plan) are
    profiled ``runs`` times per batch size; every profiled output is checked
    against the snake-order ground truth, so reported numbers only ever
    describe correct executions.  Per-layer detail comes from each batch's
    fastest run (least scheduler noise); ``keys_per_s`` uses the median.
    """
    from ..schedule import compile_schedule, snake_order_nodes
    from ..staticcheck import emit_schedule

    if runs < 1:
        raise ValueError("runs must be >= 1")
    cell = resolve_profile_cell(key)
    dag = emit_schedule(cell.build_factor(), cell.r, backend=cell.backend)
    prof = profiler if profiler is not None else KernelProfiler()
    rng = np.random.default_rng(seed)
    snake = snake_order_nodes(dag.n, dag.r)
    doc: dict[str, Any] = {
        "cell": cell.key,
        "factor": dag.factor,
        "n": dag.n,
        "r": dag.r,
        "num_nodes": dag.num_nodes,
        "schedule_hash": dag.schedule_hash(),
        "optimize": optimize,
        "seed": seed,
        "runs": runs,
        "plans": [],
    }
    for packed in (True, False):
        kernel = compile_schedule(dag, packed=packed, optimize=optimize)
        if optimize:
            doc["optimized_schedule_hash"] = kernel.schedule_hash
        plan: dict[str, Any] = {
            "plan": "packed" if packed else "per-round",
            "packed": packed,
            "layers": kernel.num_layers,
            "ops": sum(layer.op_count for layer in kernel.layers),
            "batches": [],
        }
        for batch in batches:
            keys = rng.integers(0, 2**31, size=(int(batch), dag.num_nodes))
            expected = np.empty_like(keys)
            expected[:, snake] = np.sort(keys, axis=1)
            kernel.run(keys)  # warm-up: first-touch allocations, caches
            profiles: list[RunProfile] = []
            out = None
            for _ in range(runs):
                out, profile = prof.run(kernel, keys)
                profiles.append(profile)
            if not np.array_equal(out, expected):
                raise AssertionError(
                    f"profiled kernel output diverged from snake ground truth on {cell.key}"
                )
            walls = np.array([p.wall_s for p in profiles])
            best = profiles[int(np.argmin(walls))]
            plan["batches"].append(
                {
                    "batch": int(batch),
                    "keys": best.keys,
                    "wall_s": {
                        "min": float(walls.min()),
                        "p50": float(np.percentile(walls, 50)),
                        "max": float(walls.max()),
                    },
                    "keys_per_s": float(best.keys / np.percentile(walls, 50)),
                    "per_layer": [layer.to_json() for layer in best.layers],
                }
            )
        last = plan["batches"][-1]["per_layer"]
        plan["mean_occupancy"] = (
            sum(layer["occupancy"] for layer in last) / len(last) if last else 0.0
        )
        plan["max_occupancy"] = max((layer["occupancy"] for layer in last), default=0.0)
        doc["plans"].append(plan)
    return doc


def _layer_table(per_layer: list[dict[str, Any]]) -> list[str]:
    header = (
        f"  {'layer':>5} {'comps':>6} {'blocks':>6} {'ops':>5} "
        f"{'occ%':>6} {'wall µs':>8} {'est KiB':>8}"
    )
    lines = [header]
    for layer in per_layer:
        lines.append(
            f"  {layer['layer']:>5} {layer['comparators']:>6} {layer['block_rows']:>6} "
            f"{layer['ops']:>5} {layer['occupancy'] * 100:>6.1f} "
            f"{layer['wall_ns'] / 1e3:>8.1f} {layer['bytes_touched'] / 1024:>8.1f}"
        )
    return lines


def render_profile(doc: dict[str, Any]) -> str:
    """Human-readable sweep report: per-layer tables + occupancy heatmap."""
    lines = [
        f"kernel profile — {doc['cell']} (N={doc['num_nodes']}, "
        f"schedule {doc['schedule_hash'][:12]}, {doc['runs']} runs/point)"
    ]
    for plan in doc["plans"]:
        lines.append("")
        lines.append(
            f"{plan['plan']} plan: {plan['layers']} layers, {plan['ops']} ops, "
            f"mean occupancy {plan['mean_occupancy'] * 100:.1f}%"
        )
        lines.append(f"  {'batch':>7} {'keys':>9} {'p50 µs':>9} {'min µs':>9} {'keys/s':>13}")
        for point in plan["batches"]:
            wall = point["wall_s"]
            lines.append(
                f"  {point['batch']:>7} {point['keys']:>9} {wall['p50'] * 1e6:>9.1f} "
                f"{wall['min'] * 1e6:>9.1f} {point['keys_per_s']:>13,.0f}"
            )
        lines.append(f"per-layer detail (batch {plan['batches'][-1]['batch']}):")
        lines.extend(_layer_table(plan["batches"][-1]["per_layer"]))

    width = max(plan["layers"] for plan in doc["plans"])
    matrix = []
    for plan in doc["plans"]:
        occ = [round(layer["occupancy"] * 100, 1) for layer in plan["batches"][-1]["per_layer"]]
        matrix.append(occ + [0.0] * (width - len(occ)))
    lines.append("")
    lines.append(
        render_heatmap(
            matrix,
            [plan["plan"] for plan in doc["plans"]],
            [f"L{i}" for i in range(width)],
            title="occupancy by layer (%, packed layers fold independent rounds together)",
        )
    )
    return "\n".join(lines)


def profile_chrome_trace(
    key: str, batch: int = 256, seed: int = 0, runs: int = 1
) -> str:
    """Chrome trace-event JSON of profiled runs (both plans) of one cell."""
    from .export import chrome_trace_json
    from .tracer import Tracer

    tracer = Tracer()
    profiler = KernelProfiler(tracer=tracer)
    profile_cell(key, batches=(batch,), runs=runs, seed=seed, profiler=profiler)
    return chrome_trace_json(tracer)


def collect_cache_metrics(registry: MetricsRegistry) -> None:
    """Scrape-time collector: mirror schedule-cache stats into ``registry``."""
    from .cachestats import publish_cache_metrics

    publish_cache_metrics(registry)


def summarize_history(profiles: Iterable[RunProfile]) -> dict[str, Any]:
    """Aggregate a profile history: runs, keys, wall time by (cell, plan)."""
    out: dict[str, Any] = {}
    for profile in profiles:
        plan = "packed" if profile.packed else "per-round"
        entry = out.setdefault(
            f"{profile.cell}/{plan}", {"runs": 0, "keys": 0, "wall_s": 0.0}
        )
        entry["runs"] += 1
        entry["keys"] += profile.keys
        entry["wall_s"] += profile.wall_s
    return out
