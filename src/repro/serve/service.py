"""The micro-batched sort service: per-cell queues over compiled kernels.

:class:`SortService` is the asyncio front-end the high-throughput arc has
been building toward: concurrent callers :meth:`~SortService.submit`
independent ``N``-key requests against a ``(family, n, r)`` cell, and the
service coalesces them into whole ``(batch, N)`` arrays for one pass of the
cell's :class:`~repro.schedule.compiled.CompiledSchedule` — the 40-147×
batch-axis amortisation measured by benchreg, now behind a queue.

Mechanics, per cell queue:

* **deadline-aware micro-batching** — a flusher coroutine collects requests
  until either ``max_batch`` is reached or ``max_delay_ms`` has passed since
  the *oldest* queued request, whichever comes first, then executes the
  whole batch;
* **admission control** — each queue is bounded at ``max_queue_depth``
  outstanding requests; excess load is shed with an explicit
  :class:`Rejected` (the HTTP front-end maps it to ``503``), never silently
  dropped, and every shed request is counted;
* **kernel execution stays on the event loop** — one compiled pass over the
  canonical cells is tens of microseconds, far below the cost of a thread
  handoff, and it keeps the ``kind="serve"`` span discipline trivially
  correct (spans never interleave because the flush never awaits while one
  is open).

Telemetry lands in the shared :class:`~repro.observability.metrics.MetricsRegistry`
(scrape-ready via :mod:`repro.observability.httpexpo`):

==========================================  =========  ======================
metric                                      type       meaning
==========================================  =========  ======================
``repro_serve_queue_depth``                 gauge      outstanding requests,
                                                       by cell
``repro_serve_queue_depth_peak``            gauge      high-water mark
``repro_serve_batch_occupancy``             histogram  batch size ÷ max_batch
                                                       at flush
``repro_serve_request_seconds``             histogram  arrival → completion
                                                       latency (p50/p99 via
                                                       ``Histogram.quantile``)
``repro_serve_queue_wait_seconds``          histogram  arrival → flush start
``repro_serve_requests_total``              counter    by cell and outcome
                                                       (completed / rejected
                                                       / error)
``repro_serve_rejections_total``            counter    shed requests, by cell
                                                       and reason
``repro_serve_deadline_misses_total``       counter    completions past the
                                                       configured deadline
``repro_serve_batches_total``               counter    kernel flushes, by cell
``repro_serve_flush_errors_total``          counter    kernel-flush exceptions
==========================================  =========  ======================

With a :class:`~repro.observability.tracer.Tracer` attached, every flush
publishes a ``serve-flush`` span (batch size, occupancy, oldest wait)
wrapping a ``serve-kernel`` span around the compiled pass, and every arrival
/ rejection is a point event — so a Chrome export shows the request
lifecycle next to the compiled layers.  See ``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from math import isnan
from typing import TYPE_CHECKING, Any

import numpy as np

from ..observability.metrics import MetricsRegistry
from ..schedule.compiled import reject_nan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability.tracer import Tracer
    from ..schedule.compiled import CompiledSchedule

__all__ = [
    "OCCUPANCY_BUCKETS",
    "REQUEST_TIME_BUCKETS",
    "Rejected",
    "ServiceConfig",
    "SortService",
]

#: request-latency buckets: a 1-2.5-5 ladder from 100µs to 2.5s — micro-batch
#: waits sit at the max_delay scale (milliseconds), overload pushes higher
REQUEST_TIME_BUCKETS = (
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
    2.5,
)

#: batch-occupancy buckets (fraction of ``max_batch`` filled at flush)
OCCUPANCY_BUCKETS = (0.0625, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)


class Rejected(RuntimeError):
    """Admission control shed this request (the 503-style signal).

    Carries the cell and a machine-readable ``reason`` (``queue_full`` or
    ``shutting_down``); the HTTP front-end maps it to ``503`` with the
    reason in the body, and every rejection increments
    ``repro_serve_rejections_total{cell,reason}``.
    """

    def __init__(self, cell: str, reason: str) -> None:
        super().__init__(f"sort request for {cell!r} rejected: {reason}")
        self.cell = cell
        self.reason = reason


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for :class:`SortService` (validated on construction)."""

    #: flush when this many requests are queued for one cell
    max_batch: int = 64
    #: ... or when the oldest queued request has waited this long
    max_delay_ms: float = 2.0
    #: admission bound: outstanding (queued, unflushed) requests per cell
    max_queue_depth: int = 512
    #: optional latency SLO; completions past it count a deadline miss
    deadline_ms: float | None = None
    #: artificial per-flush service time — the overload / backpressure drill
    #: knob used by tests and the load generator, never on by default
    flush_penalty_s: float = 0.0
    #: run the certified schedule optimizer before compiling each cell's
    #: kernel (see :mod:`repro.schedule.optimize`); a failed certificate
    #: falls back to the unoptimized schedule, so serving stays correct
    optimize: bool = False

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive when set")
        if self.flush_penalty_s < 0:
            raise ValueError("flush_penalty_s must be >= 0")

    def to_json(self) -> dict[str, Any]:
        return {
            "max_batch": self.max_batch,
            "max_delay_ms": self.max_delay_ms,
            "max_queue_depth": self.max_queue_depth,
            "deadline_ms": self.deadline_ms,
            "flush_penalty_s": self.flush_penalty_s,
            "optimize": self.optimize,
        }


@dataclass
class _Request:
    """One queued sort request: keys, completion future, arrival stamp."""

    keys: np.ndarray
    future: "asyncio.Future[np.ndarray]"
    arrival: float


@dataclass
class _CellQueue:
    """Per-cell state: the compiled kernel, its queue and its flusher."""

    key: str
    kernel: "CompiledSchedule"
    queue: "asyncio.Queue[_Request]"
    depth: int = 0
    flusher: "asyncio.Task[None] | None" = field(default=None, repr=False)


def _resolve_kernel(cell_key: str, optimize: bool = False) -> "CompiledSchedule":
    """Emit (cached) and compile (cached) the kernel behind a cell name.

    ``optimize=True`` serves the certified optimized schedule instead (both
    hashes stay visible on the kernel: ``source_hash`` names the emitted
    schedule, ``schedule_hash`` the optimized one actually executed).
    """
    from ..observability.kernelprof import resolve_profile_cell
    from ..schedule import compile_schedule
    from ..staticcheck import emit_schedule

    cell = resolve_profile_cell(cell_key)
    dag = emit_schedule(cell.build_factor(), cell.r, backend=cell.backend)
    return compile_schedule(dag, optimize=optimize)


class SortService:
    """Asyncio sort service; see the module docstring for the big picture.

    Use as an async context manager::

        async with SortService(config, registry=registry) as service:
            sorted_row = await service.submit("path-n3-r3", keys)

    ``registry`` defaults to a private one; pass a shared registry to expose
    the serve metrics on an existing ``/metrics`` endpoint.  ``tracer``
    (optional) receives the ``kind="serve"`` spans and point events.  All
    service methods must run on one event loop; cross-thread callers (the
    HTTP front-end) go through ``asyncio.run_coroutine_threadsafe``.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        registry: MetricsRegistry | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self._queues: dict[str, _CellQueue] = {}
        self._closed = False
        r = self.registry
        self._queue_depth = r.gauge(
            "repro_serve_queue_depth", "outstanding sort requests, by cell"
        )
        self._queue_peak = r.gauge(
            "repro_serve_queue_depth_peak", "queue-depth high-water mark, by cell"
        )
        self._occupancy = r.histogram(
            "repro_serve_batch_occupancy",
            "batch fill fraction (batch size / max_batch) at flush, by cell",
            buckets=OCCUPANCY_BUCKETS,
        )
        self._request_seconds = r.histogram(
            "repro_serve_request_seconds",
            "request latency (arrival to completion) in seconds, by cell",
            buckets=REQUEST_TIME_BUCKETS,
        )
        self._queue_wait = r.histogram(
            "repro_serve_queue_wait_seconds",
            "time a request waited before its batch flushed, by cell",
            buckets=REQUEST_TIME_BUCKETS,
        )
        self._requests = r.counter(
            "repro_serve_requests_total", "sort requests, by cell and outcome"
        )
        self._rejections = r.counter(
            "repro_serve_rejections_total", "requests shed by admission control, by cell and reason"
        )
        self._deadline_misses = r.counter(
            "repro_serve_deadline_misses_total", "completions past the configured deadline, by cell"
        )
        self._batches = r.counter("repro_serve_batches_total", "kernel flushes, by cell")
        self._flush_errors = r.counter(
            "repro_serve_flush_errors_total", "exceptions raised during a batch flush, by cell"
        )

    # -- queue management ------------------------------------------------

    def prewarm(self, cell_key: str) -> str:
        """Build the cell's queue and kernel up front; returns the canonical
        cell label.  Must run on the service's event loop."""
        return self._get_queue(cell_key).key

    def _get_queue(self, cell_key: str) -> _CellQueue:
        queue = self._queues.get(cell_key)
        if queue is None:
            kernel = _resolve_kernel(cell_key, optimize=self.config.optimize)
            # canonical label (family-nN-rR); alias both spellings so a
            # second resolve of either name finds the same queue
            queue = self._queues.get(kernel.cell)
            if queue is None:
                queue = _CellQueue(key=kernel.cell, kernel=kernel, queue=asyncio.Queue())
                self._queues[kernel.cell] = queue
                self._queue_depth.set(0, cell=queue.key)
            self._queues.setdefault(cell_key, queue)
        return queue

    def _ensure_flusher(self, queue: _CellQueue) -> None:
        if queue.flusher is None or queue.flusher.done():
            queue.flusher = asyncio.get_running_loop().create_task(
                self._flusher(queue), name=f"repro-serve-flusher-{queue.key}"
            )

    @property
    def cells(self) -> tuple[str, ...]:
        """Canonical labels of every queue created so far, sorted."""
        return tuple(sorted({q.key for q in self._queues.values()}))

    # -- submission ------------------------------------------------------

    def _reject(self, cell: str, reason: str) -> None:
        self._rejections.inc(cell=cell, reason=reason)
        self._requests.inc(cell=cell, outcome="rejected")
        if self.tracer is not None:
            self.tracer.event("serve-reject", kind="serve", cell=cell, reason=reason)
        raise Rejected(cell, reason)

    async def submit(self, cell_key: str, keys: Any) -> np.ndarray:
        """Sort one request's keys through the cell's batched kernel.

        Returns the sorted row (snake order over the product lattice) once
        the micro-batch containing this request has flushed.  Raises
        :class:`Rejected` immediately when the queue is full or the service
        is shutting down, and ``ValueError`` on a malformed key vector
        (wrong shape, or a NaN key) before the request is queued, so a bad
        request never fails its batch-mates.
        """
        loop = asyncio.get_running_loop()
        queue = self._get_queue(cell_key)
        arr = np.asarray(keys)
        if arr.ndim != 1 or arr.shape[0] != queue.kernel.num_nodes:
            raise ValueError(
                f"cell {queue.key} sorts {queue.kernel.num_nodes}-key vectors, "
                f"got shape {arr.shape}"
            )
        reject_nan(arr)
        if self._closed:
            self._reject(queue.key, "shutting_down")
        if queue.depth >= self.config.max_queue_depth:
            self._reject(queue.key, "queue_full")
        queue.depth += 1
        self._queue_depth.set(queue.depth, cell=queue.key)
        self._queue_peak.set_max(queue.depth, cell=queue.key)
        request = _Request(keys=arr, future=loop.create_future(), arrival=loop.time())
        if self.tracer is not None:
            self.tracer.event("serve-arrival", kind="serve", cell=queue.key, depth=queue.depth)
        queue.queue.put_nowait(request)
        self._ensure_flusher(queue)
        return await request.future

    # -- batching --------------------------------------------------------

    async def _flusher(self, queue: _CellQueue) -> None:
        """Collect → flush forever: ``max_batch`` or ``max_delay_ms`` since
        the oldest queued request, whichever is reached first."""
        config = self.config
        loop = asyncio.get_running_loop()
        while True:
            first = await queue.queue.get()
            batch = [first]
            flush_at = first.arrival + config.max_delay_ms / 1e3
            while len(batch) < config.max_batch:
                remaining = flush_at - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(await asyncio.wait_for(queue.queue.get(), timeout=remaining))
                except asyncio.TimeoutError:
                    break
            if config.flush_penalty_s > 0:  # overload drills only
                await asyncio.sleep(config.flush_penalty_s)
            self._flush(queue, batch)

    def _flush(self, queue: _CellQueue, batch: list[_Request]) -> None:
        """Execute one batch synchronously (no awaits: spans stay nested)."""
        from contextlib import nullcontext

        config = self.config
        loop = asyncio.get_running_loop()
        flush_start = loop.time()
        occupancy = len(batch) / config.max_batch
        oldest_wait = flush_start - min(req.arrival for req in batch)
        span_ctx: Any = (
            self.tracer.span(
                "serve-flush",
                kind="serve",
                cell=queue.key,
                batch=len(batch),
                occupancy=occupancy,
                oldest_wait_ms=oldest_wait * 1e3,
            )
            if self.tracer is not None
            else nullcontext()
        )
        out: list[np.ndarray] | None = None
        error: BaseException | None = None
        with span_ctx:
            kernel_ctx: Any = (
                self.tracer.span("serve-kernel", kind="serve", cell=queue.key, batch=len(batch))
                if self.tracer is not None
                else nullcontext()
            )
            with kernel_ctx:
                try:
                    with self._flush_errors.count_exceptions(cell=queue.key):
                        out = self._run_by_dtype(queue.kernel, batch)
                except Exception as exc:  # deliver the failure, keep serving
                    error = exc
        completion = loop.time()
        queue.depth -= len(batch)
        self._queue_depth.set(queue.depth, cell=queue.key)
        self._batches.inc(cell=queue.key)
        self._occupancy.observe(occupancy, cell=queue.key)
        for i, req in enumerate(batch):
            latency = completion - req.arrival
            self._queue_wait.observe(flush_start - req.arrival, cell=queue.key)
            self._request_seconds.observe(latency, cell=queue.key)
            if config.deadline_ms is not None and latency * 1e3 > config.deadline_ms:
                self._deadline_misses.inc(cell=queue.key)
            if req.future.cancelled():
                continue
            if error is not None:
                self._requests.inc(cell=queue.key, outcome="error")
                req.future.set_exception(error)
            else:
                assert out is not None
                self._requests.inc(cell=queue.key, outcome="completed")
                req.future.set_result(out[i])

    @staticmethod
    def _run_by_dtype(kernel: "CompiledSchedule", batch: list[_Request]) -> list[np.ndarray]:
        """One kernel pass per distinct key dtype in the batch.

        Stacking mixed dtypes would promote every row to a common type (an
        int64 request beside a float64 one would be rounded to float64), so
        each dtype's requests are stacked and sorted on their own; returns
        the sorted rows in batch order.
        """
        by_dtype: dict[np.dtype, list[int]] = {}
        for i, req in enumerate(batch):
            by_dtype.setdefault(req.keys.dtype, []).append(i)
        rows: dict[int, np.ndarray] = {}
        for members in by_dtype.values():
            rows.update(zip(members, kernel.run(np.stack([batch[i].keys for i in members]))))
        return [rows[i] for i in range(len(batch))]

    # -- lifecycle -------------------------------------------------------

    async def drain(self) -> None:
        """Wait until every queue is empty (all admitted requests flushed)."""
        while any(q.depth for q in self._queues.values()):
            await asyncio.sleep(0.001)

    async def aclose(self) -> None:
        """Graceful shutdown: stop admitting, flush the backlog, stop flushers."""
        self._closed = True
        await self.drain()
        tasks = {q.flusher for q in self._queues.values() if q.flusher is not None}
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def __aenter__(self) -> "SortService":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    # -- health ----------------------------------------------------------

    def readiness(self) -> tuple[bool, str]:
        """The ``/readyz`` answer: ``(ready, reason)``.

        Not ready while shutting down (draining: alive, but no new traffic)
        or while any queue sits at the admission bound (the next submit
        would shed) — the signal a load balancer needs *before* requests
        start bouncing off admission control.  Thread-safe: reads two ints.
        """
        if self._closed:
            return False, "shutting down"
        saturated = sorted(
            {q.key for q in self._queues.values() if q.depth >= self.config.max_queue_depth}
        )
        if saturated:
            return False, f"queue saturated: {', '.join(saturated)}"
        return True, "ok"

    def queues_snapshot(self) -> dict[str, Any]:
        """JSON-safe per-queue health: depths, outcomes, latency quantiles.

        The document behind ``GET /queues.json`` and the ``repro report``
        serving table; quantiles with no observations come back as ``None``
        (never NaN, which strict JSON parsers refuse).  Both the end-to-end
        request latency and the queue-wait component get p50/p99 — the
        spread between them is the flush (kernel) time.
        """

        def _q(hist: Any, q: float, cell: str) -> float | None:
            value = hist.quantile(q, cell=cell)
            return None if isnan(value) else value * 1e3

        out: dict[str, Any] = {}
        for key in self.cells:
            occupancy = self._occupancy.snapshot_series(cell=key)
            out[key] = {
                "cell": key,
                "depth": int(self._queues[key].depth),
                "peak_depth": int(self._queue_peak.value(cell=key)),
                "batches": int(self._batches.value(cell=key)),
                "completed": int(self._requests.value(cell=key, outcome="completed")),
                "rejected": int(self._requests.value(cell=key, outcome="rejected")),
                "errors": int(self._requests.value(cell=key, outcome="error")),
                "deadline_misses": int(self._deadline_misses.value(cell=key)),
                "mean_batch_occupancy": (
                    occupancy["sum"] / occupancy["count"] if occupancy["count"] else 0.0
                ),
                "p50_ms": _q(self._request_seconds, 0.50, key),
                "p99_ms": _q(self._request_seconds, 0.99, key),
                "queue_wait_p50_ms": _q(self._queue_wait, 0.50, key),
                "queue_wait_p99_ms": _q(self._queue_wait, 0.99, key),
            }
        return out
