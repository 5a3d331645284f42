"""Exporters: span trees and machine timelines to shareable formats.

Three targets, one per audience:

``spans_to_jsonl`` / ``timeline_to_jsonl``
    newline-delimited JSON — one record per span (or per machine step),
    stable keys, made for ``jq`` and cross-PR diffing of benchmark
    trajectories.

``to_chrome_trace`` / ``chrome_trace_json``
    the Chrome trace-event format (the ``traceEvents`` array flavour),
    loadable in Perfetto or ``chrome://tracing``.  Every paper dimension
    gets its own named track (``tid``), so a sort of an ``r``-dimensional
    product renders as ``r`` lanes of S₂/routing slices plus a ``driver``
    lane for the structural spans; a machine timeline adds a parallelism
    counter track.

``phase_summary``
    a fixed-width text table aggregating spans by phase name — the quick
    terminal answer to "where did the rounds go".
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from typing import Any

from .events import phase_key
from .timeline import MachineTimeline
from .tracer import Span, Tracer

__all__ = [
    "spans_to_jsonl",
    "timeline_to_jsonl",
    "to_chrome_trace",
    "chrome_trace_json",
    "phase_summary",
]


def _roots(source: Tracer | Iterable[Span]) -> list[Span]:
    # any tracer-shaped object (Tracer, NullTracer) exposes .roots; a bare
    # iterable of spans is taken as the roots themselves
    roots = getattr(source, "roots", None)
    if roots is not None:
        return list(roots)
    return list(source)


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of attr values to JSON-safe types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    try:
        return int(value)  # numpy integers
    except (TypeError, ValueError):
        return repr(value)


def span_record(span: Span) -> dict[str, Any]:
    """The flat dict a span serialises to (one JSONL line)."""
    return {
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "kind": span.kind,
        "start": span.start,
        "end": span.end,
        "duration_s": span.duration,
        "rounds": span.rounds,
        "attrs": {k: _jsonable(v) for k, v in span.attrs.items()},
    }


def spans_to_jsonl(source: Tracer | Iterable[Span]) -> str:
    """Serialise every span (depth-first) as newline-delimited JSON."""
    lines = []
    for root in _roots(source):
        for span in root.walk():
            lines.append(json.dumps(span_record(span), sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def timeline_to_jsonl(timeline: MachineTimeline) -> str:
    """Serialise every machine super-step as newline-delimited JSON."""
    lines = []
    for step in timeline.steps:
        lines.append(
            json.dumps(
                {
                    "step": step.index,
                    "pairs": step.pairs,
                    "rounds": step.rounds,
                    "dimension": step.dimension,
                    "adjacent": step.adjacent,
                    "utilisation": step.utilisation,
                    "routed_hops": step.routed_hops,
                    "peak_buffer_depth": step.peak_buffer_depth,
                    "time": step.time,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------

#: tid used for spans that belong to no single paper dimension
DRIVER_TRACK = 0


def _time_origin(roots: list[Span], timeline: MachineTimeline | None) -> float:
    starts = [r.start for r in roots]
    if timeline is not None and timeline.steps:
        starts.append(timeline.steps[0].time)
    return min(starts, default=0.0)


def to_chrome_trace(
    source: Tracer | Iterable[Span],
    timeline: MachineTimeline | None = None,
    process_name: str = "product-network sort",
) -> dict[str, Any]:
    """Build a Chrome trace-event JSON document (as a dict).

    Spans become complete (``ph: "X"``) events; the track (``tid``) of each
    span is its ``dim`` attribute, inherited from the nearest ancestor when
    absent, with dimension-less spans on the ``driver`` track.  Timestamps
    are microseconds relative to the earliest recorded instant, as the
    format expects.
    """
    roots = _roots(source)
    origin = _time_origin(roots, timeline)
    to_us = lambda t: (t - origin) * 1e6
    events: list[dict[str, Any]] = []
    tracks: set[int] = set()

    def emit(span: Span, inherited_dim: int | None) -> None:
        dim = span.attrs.get("dim", inherited_dim)
        tid = int(dim) if dim is not None else DRIVER_TRACK
        tracks.add(tid)
        end = span.end if span.end is not None else span.start
        events.append(
            {
                "name": span.name,
                "cat": span.kind or "phase",
                "ph": "X",
                "ts": to_us(span.start),
                "dur": max(to_us(end) - to_us(span.start), 0.0),
                "pid": 0,
                "tid": tid,
                "args": {k: _jsonable(v) for k, v in span.attrs.items()},
            }
        )
        for child in span.children:
            emit(child, dim if dim is not None else inherited_dim)

    for root in roots:
        emit(root, None)

    if timeline is not None:
        for step in timeline.steps:
            events.append(
                {
                    "name": "parallelism",
                    "ph": "C",
                    "ts": to_us(step.time),
                    "pid": 0,
                    "args": {"pairs": step.pairs},
                }
            )

    meta: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "args": {"name": process_name},
        }
    ]
    for tid in sorted(tracks):
        label = "driver" if tid == DRIVER_TRACK else f"dimension {tid}"
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": label},
            }
        )
        meta.append(
            {"name": "thread_sort_index", "ph": "M", "pid": 0, "tid": tid, "args": {"sort_index": tid}}
        )

    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def chrome_trace_json(
    source: Tracer | Iterable[Span],
    timeline: MachineTimeline | None = None,
    **kwargs: Any,
) -> str:
    """:func:`to_chrome_trace`, serialised."""
    return json.dumps(to_chrome_trace(source, timeline=timeline, **kwargs), indent=1)


# ----------------------------------------------------------------------
# text summary
# ----------------------------------------------------------------------

def phase_summary(source: Tracer | Iterable[Span], timeline: MachineTimeline | None = None) -> str:
    """Aggregate spans by phase key into a fixed-width text table.

    Rows are keyed by :func:`~repro.observability.events.phase_key` — the
    same normalisation the topology observatory uses for per-phase edge
    attribution, so the two tables join on the phase column.
    """
    agg: dict[tuple[str, str], dict[str, float]] = {}
    order: list[tuple[str, str]] = []
    for root in _roots(source):
        for span in root.walk():
            key = (phase_key(span.name, span.attrs.get("dim")), span.kind)
            if key not in agg:
                agg[key] = {"count": 0, "rounds": 0, "comparisons": 0, "wall_ms": 0.0}
                order.append(key)
            a = agg[key]
            a["count"] += 1
            a["rounds"] += span.rounds
            a["comparisons"] += int(span.attrs.get("comparisons", 0))
            a["wall_ms"] += span.duration * 1e3

    headers = ["phase", "kind", "count", "rounds", "comparisons", "wall ms"]
    body = [
        [
            name,
            kind or "-",
            str(int(agg[(name, kind)]["count"])),
            str(int(agg[(name, kind)]["rounds"])),
            str(int(agg[(name, kind)]["comparisons"])),
            f"{agg[(name, kind)]['wall_ms']:.3f}",
        ]
        for name, kind in order
    ]
    widths = [
        max(len(headers[c]), max((len(row[c]) for row in body), default=0))
        for c in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in body]
    if timeline is not None:
        s = timeline.summary()
        lines.append("")
        lines.append(
            f"machine: {s['steps']} super-steps, {s['rounds']} rounds, "
            f"mean parallelism {s['mean_parallelism']:.1f} pairs/step, "
            f"peak utilisation {s['peak_utilisation']:.0%}, "
            f"{s['routed_steps']} routed steps"
        )
        if s["dimension_steps"]:
            per_dim = ", ".join(f"d{d}: {c}" for d, c in s["dimension_steps"].items())
            lines.append(f"steps per dimension: {per_dim}")
    return "\n".join(lines)
