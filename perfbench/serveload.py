"""Load for the in-process sort service: an open loop and a closed loop.

Phase A is an open loop: one coroutine sends every request at its due time,
precomputed from the seed as Poisson arrivals, and each request's latency is
timed from when it was *due*, so a stall also charges the requests queued
behind it.  How late the generator itself ran is reported as its lag.
(``repro.serve.loadgen`` starts one coroutine per request at t=0 and times
from send, which hides generator lag; it is deliberately not reused.)

Phase B is a closed loop: a fixed number of workers per cell, each sending
its next request only after the previous one returned; completions per
second at that concurrency is the service's capacity.

Both phases run in chunks between the run's other stages, on one event loop
and one service each, so that they sample the whole run.  Outputs are kept
for verification after the timed region.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass
class Outcome:
    """One request: which pool vector it sent, and what came back."""

    cell: int
    key: int
    result: Any = None  # the sorted row, or the exception raised
    latency: float = float("nan")
    done: float = float("nan")  # event-loop time of completion


class ServeLoad:
    """Two services (phase A, phase B) on one event loop, driven in chunks."""

    def __init__(self, cells: list[str], pools: list[np.ndarray], traced: bool,
                 workers: int) -> None:
        from repro.observability import Tracer
        from repro.serve import ServiceConfig, SortService

        self.cells, self.pools, self.workers = cells, pools, workers
        self.loop = asyncio.new_event_loop()
        self.services = [
            SortService(ServiceConfig(optimize=True), tracer=Tracer() if traced else None)
            for _ in range(2)
        ]
        self.warm: list[Outcome] = []  # warm-up requests: untimed, still verified
        self.lag: list[float] = []  # generator lag per phase A request, seconds
        self._warmed = [False, False]

    async def _send(self, service: Any, o: Outcome, due: float) -> None:
        try:
            o.result = await service.submit(self.cells[o.cell], self.pools[o.cell][o.key])
        except Exception as exc:  # a rejection or error is a counted failure
            o.result = exc
        o.done = self.loop.time()
        o.latency = o.done - due

    async def _warm_up(self, phase: int) -> None:
        if self._warmed[phase]:
            return
        self._warmed[phase] = True
        service = self.services[phase]
        for cell in self.cells:
            service.prewarm(cell)
        warm = [Outcome(c, k) for c in range(len(self.cells)) for k in range(16)]
        self.warm += warm
        now = self.loop.time()
        await asyncio.gather(*(self._send(service, o, now) for o in warm))

    async def _open_chunk(self, due: np.ndarray, cell_idx: np.ndarray,
                          key_idx: np.ndarray) -> list[Outcome]:
        await self._warm_up(0)
        outcomes = [Outcome(int(c), int(k)) for c, k in zip(cell_idx, key_idx)]
        tasks = []
        start = self.loop.time() + 0.005
        for i, o in enumerate(outcomes):
            target = start + float(due[i])
            delay = target - self.loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lag.append(self.loop.time() - target)
            tasks.append(self.loop.create_task(self._send(self.services[0], o, target)))
        await asyncio.gather(*tasks)
        return outcomes

    async def _closed_burst(self, per_worker: int, offset: int) -> tuple[list[Outcome], float]:
        await self._warm_up(1)
        pool_size = len(self.pools[0])
        outcomes: list[Outcome] = []

        async def worker(c: int, w: int) -> None:
            for j in range(offset + w, offset + w + self.workers * per_worker, self.workers):
                o = Outcome(c, j % pool_size)
                outcomes.append(o)
                await self._send(self.services[1], o, self.loop.time())

        start = self.loop.time()
        await asyncio.gather(
            *(worker(c, w) for c in range(len(self.cells)) for w in range(self.workers))
        )
        return outcomes, start

    def open_chunk(self, due: np.ndarray, cell_idx: np.ndarray,
                   key_idx: np.ndarray) -> list[Outcome]:
        """Send request ``i`` at ``due[i]`` seconds after the chunk starts."""
        return self.loop.run_until_complete(self._open_chunk(due, cell_idx, key_idx))

    def closed_burst(self, per_worker: int, offset: int) -> tuple[list[Outcome], float]:
        """Every worker keeps one request outstanding until it sent
        ``per_worker``; ``offset`` varies the pool vectors between bursts.
        Returns the outcomes and the burst's start on the loop's clock."""
        return self.loop.run_until_complete(self._closed_burst(per_worker, offset))

    def close(self) -> tuple[list[dict[str, Any]], list[float]]:
        """Drain and stop both services; returns their ``queues_snapshot()``
        and the phase B flush durations (traced runs only)."""
        try:
            for service in self.services:
                self.loop.run_until_complete(service.aclose())
            tracer = self.services[1].tracer
            flushes = [s.duration for s in tracer.find("serve-flush")] if tracer else []
            return [s.queues_snapshot() for s in self.services], flushes
        finally:
            self.loop.close()
