"""The telemetry spine: typed events and the bus that fans them out.

One run of the sorter produces a single stream of :class:`TraceEvent`
objects — span boundaries from the :class:`~repro.observability.tracer.Tracer`,
machine super-steps from :class:`~repro.machine.machine.NetworkMachine`,
and free-form point events (the old ``trace(event, payload)`` states).
Every consumer (cost ledger, machine timeline, topology observatory, legacy
trace callbacks, exporters) is a *subscriber* on one :class:`EventBus`, so a
single run feeds all of them without any instrumentation site being charged
twice.

Event kinds
-----------
``span_start`` / ``span_end``
    a phase of the algorithm opening/closing; ``span_end`` carries the
    final attributes (``kind``, ``rounds``, ``comparisons``, ``dim``, ...).
``point``
    an instantaneous observation with a payload — the lingua franca of the
    legacy ``trace`` hook (``step1_B``, ``step3_D``, ...).
``machine_step``
    one compare-exchange super-step of the fine-grained machine, published
    once by :meth:`~repro.machine.machine.NetworkMachine.compare_exchange`;
    the attrs carry the pair list, the rounds charged and every per-step
    fact the machine derived (per-pair dimension and adjacency, link
    traversals, routes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = [
    "TraceEvent",
    "EventBus",
    "CallbackSubscriber",
    "LedgerSubscriber",
    "point_event",
    "phase_key",
]

#: the one clock the whole telemetry layer uses (monotonic, sub-µs)
clock = time.perf_counter


def phase_key(name: str, dim: Any = None) -> str:
    """Canonical phase key for a span: ``name`` plus its dimension, if any.

    Every consumer that groups telemetry by phase — the timeline's
    ``phase_summary`` table and the topology observatory's per-phase edge
    attribution — must agree on what "a phase" is, or their rows can never
    be joined.  This is the one definition: ``"merge[d3]"`` for a span named
    ``merge`` carrying ``dim=3``, bare ``name`` when no dimension applies.
    """
    return f"{name}[d{dim}]" if dim is not None else name


@dataclass(frozen=True)
class TraceEvent:
    """One observation on the bus.  Immutable; subscribers must not mutate
    ``attrs`` (it is shared across all subscribers)."""

    kind: str
    name: str
    time: float
    span_id: int | None = None
    parent_id: int | None = None
    attrs: Mapping[str, Any] = field(default_factory=dict)


def point_event(name: str, payload: Any = None, **attrs: Any) -> TraceEvent:
    """Build an instantaneous ``point`` event (legacy-trace compatible)."""
    if payload is not None:
        attrs = dict(attrs, payload=payload)
    return TraceEvent(kind="point", name=name, time=clock(), attrs=attrs)


class EventBus:
    """Fans every published event out to the attached subscribers.

    A subscriber is either a plain callable ``subscriber(event)`` or an
    object exposing ``on_event(event)``.  Publication with no subscribers is
    a cheap no-op; instrumentation sites should additionally guard expensive
    payload construction behind :attr:`active`.
    """

    __slots__ = ("_subscribers",)

    def __init__(self) -> None:
        self._subscribers: list[Callable[[TraceEvent], None]] = []

    @property
    def active(self) -> bool:
        """True when at least one subscriber is attached."""
        return bool(self._subscribers)

    def subscribe(self, subscriber: Any) -> Any:
        """Attach a subscriber; returns it (handy for chaining)."""
        handler = getattr(subscriber, "on_event", None)
        self._subscribers.append(handler if callable(handler) else subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Any) -> None:
        """Detach a previously attached subscriber (no-op if absent)."""
        handler = getattr(subscriber, "on_event", None)
        target = handler if callable(handler) else subscriber
        try:
            self._subscribers.remove(target)
        except ValueError:
            pass

    def publish(self, event: TraceEvent) -> None:
        """Deliver the event to every subscriber, in attach order."""
        for deliver in self._subscribers:
            deliver(event)


class CallbackSubscriber:
    """Adapter: replay ``point`` events into a legacy ``trace(name, payload)``
    callable — how pre-bus observers (e.g. ``DirtyAreaProbe``) keep working
    unchanged on the unified spine."""

    __slots__ = ("callback",)

    def __init__(self, callback: Callable[[str, Any], None]) -> None:
        self.callback = callback

    def on_event(self, event: TraceEvent) -> None:
        if event.kind == "point":
            self.callback(event.name, event.attrs.get("payload"))


class LedgerSubscriber:
    """Adapter: charge a :class:`~repro.machine.metrics.CostLedger` from
    ``span_end`` events whose ``kind`` attr is ``"s2"`` or ``"routing"``.

    The drivers still keep their own internal ledger; attaching this
    subscriber builds an *independent* invoice from telemetry alone, which
    tests compare against the driver's — same totals, no double charge.
    """

    __slots__ = ("ledger",)

    def __init__(self, ledger: Any) -> None:
        self.ledger = ledger

    def on_event(self, event: TraceEvent) -> None:
        if event.kind != "span_end":
            return
        charge = event.attrs.get("kind")
        if charge not in ("s2", "routing"):
            return
        rounds = int(event.attrs.get("rounds", 0))
        comparisons = int(event.attrs.get("comparisons", 0))
        if charge == "s2":
            self.ledger.charge_s2(rounds, detail=event.name, comparisons=comparisons)
        else:
            self.ledger.charge_routing(rounds, detail=event.name, comparisons=comparisons)
