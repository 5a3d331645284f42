"""Unified tracing & telemetry for the product-network sorters.

The paper's claims are structural — Lemma 3 and Theorem 1 count *which
phases run, how often, at what cost* — so this package records a run as a
hierarchical tree of phase :class:`~repro.observability.tracer.Span` objects
(distribute → column-merges → interleave → clean-up, recursing through
dimensions ``3..r``), streams everything over one
:class:`~repro.observability.events.EventBus`, and exports to JSONL, Chrome
trace-event JSON (Perfetto / ``chrome://tracing``) and text summaries.

Typical use::

    from repro.core.lattice_sort import ProductNetworkSorter
    from repro.observability import Tracer, chrome_trace_json
    from repro.graphs import path_graph

    tracer = Tracer()
    sorter = ProductNetworkSorter.for_factor(path_graph(3), r=3)
    sorter.sort_sequence(keys, tracer=tracer)
    assert tracer.count(kind="s2") == (3 - 1) ** 2        # Theorem 1, live
    open("sort.trace.json", "w").write(chrome_trace_json(tracer))

Passing ``tracer=None`` (the default everywhere) routes through the shared
:data:`~repro.observability.tracer.NULL_TRACER`, whose spans are one
preallocated no-op object — untraced runs pay essentially nothing.

On top of the metrics layer sits the *flight recorder* (``docs/slo.md``):
:class:`~repro.observability.tsdb.TimeSeriesStore` samples every registry
series into ring buffers, :class:`~repro.observability.slo.SLOEvaluator`
turns the samples into multi-window burn-rate alerts, and
:mod:`~repro.observability.dashboard` renders both as a terminal or HTML
dashboard (``repro dash`` / ``repro serve --slo``).
"""

from .cachestats import CacheStats, all_cache_stats, publish_cache_metrics
from .dashboard import (
    dashboard_html,
    fetch_dashboard_inputs,
    flight_recorder_routes,
    render_dashboard,
)
from .critical_path import (
    ConformanceReport,
    MergeLevelCheck,
    PhaseBreakdown,
    conformance_report,
)
from .events import (
    CallbackSubscriber,
    EventBus,
    LedgerSubscriber,
    TraceEvent,
    phase_key,
    point_event,
)
from .heatmap import (
    render_imbalance_table,
    render_topology_heatmap,
    topology_html,
    topology_json,
    topology_svg,
)
from .export import (
    chrome_trace_json,
    phase_summary,
    spans_to_jsonl,
    timeline_to_jsonl,
    to_chrome_trace,
)
from .httpexpo import MetricsServer, build_metrics_server
from .kernelprof import (
    KernelProfiler,
    LayerProfile,
    RunProfile,
    profile_cell,
    render_profile,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSubscriber,
    quantile_from_buckets,
)
from .slo import (
    SEVERITIES,
    BurnPolicy,
    SLOEvaluator,
    SLOSpec,
    default_serve_slos,
)
from .timeline import MachineStep, MachineTimeline
from .tsdb import TimeSeriesStore
from .topology import CongestionIndex, LinkObservatory
from .tracer import NULL_TRACER, NullTracer, Span, Tracer, coerce_tracer, point_emitter

__all__ = [
    "TraceEvent",
    "EventBus",
    "CallbackSubscriber",
    "LedgerSubscriber",
    "point_event",
    "phase_key",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "coerce_tracer",
    "point_emitter",
    "MachineStep",
    "MachineTimeline",
    "spans_to_jsonl",
    "timeline_to_jsonl",
    "to_chrome_trace",
    "chrome_trace_json",
    "phase_summary",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSubscriber",
    "quantile_from_buckets",
    "CacheStats",
    "all_cache_stats",
    "publish_cache_metrics",
    "KernelProfiler",
    "LayerProfile",
    "RunProfile",
    "profile_cell",
    "render_profile",
    "MetricsServer",
    "build_metrics_server",
    "TimeSeriesStore",
    "SLOSpec",
    "SLOEvaluator",
    "BurnPolicy",
    "SEVERITIES",
    "default_serve_slos",
    "render_dashboard",
    "dashboard_html",
    "flight_recorder_routes",
    "fetch_dashboard_inputs",
    "ConformanceReport",
    "MergeLevelCheck",
    "PhaseBreakdown",
    "conformance_report",
    "CongestionIndex",
    "LinkObservatory",
    "render_topology_heatmap",
    "render_imbalance_table",
    "topology_json",
    "topology_svg",
    "topology_html",
]
