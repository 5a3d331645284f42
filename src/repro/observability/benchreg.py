"""Benchmark-regression harness: the repo's persisted perf trajectory.

Runs a canonical **workload matrix** of (factor graph, r, backend) cells —
every cell is one full traced sort — and snapshots, per cell:

* the cost ledger (total/S₂/routing rounds, call counts, comparisons),
* span statistics and the per-phase round/comparison breakdown,
* the :mod:`~repro.observability.critical_path` conformance verdict
  (Lemma 3 / Theorem 1, from telemetry),
* machine traffic counters (machine-backend cells): operations, pairs per
  dimension, adjacent/routed pairs, link traversals — counts gated at zero
  tolerance, parallelism and utilisation informational,
* the :class:`~repro.observability.topology.LinkObservatory` snapshot
  (machine-backend cells): per-link traversal totals, congestion and
  load-imbalance indices per dimension and per phase, peak buffer depth —
  structural totals gated at zero tolerance,
* a compiled-kernel ``profile`` block (lattice cells run with a batch):
  p50/p99 run latency, keys/s and per-layer occupancy summary from the
  :class:`~repro.observability.kernelprof.KernelProfiler` — layer/op counts
  structural, the rest informational,
* wall time (informational; never a pass/fail signal by default),
* an always-on ``optimize`` block (schema v7): the certified optimizer
  pipeline (:func:`repro.schedule.optimize.optimize_schedule`) run over the
  cell's emitted schedule — both schedule hashes, per-pass certificate
  verdicts, translation-validation status, the remaining op/round/layer
  counts (zero-tolerance structural gates) and the removed counts plus the
  optimized-vs-baseline compiled speedup (informational); a fallback or a
  failed validation on a canonical cell fails the candidate outright, and
* with ``--serving`` (schema v6) a top-level ``serving`` section: the
  canonical :mod:`repro.serve` load-generation suite — per scenario the
  structural counts (offered / completed / rejected / mismatches / errors)
  are compared for exact equality, while latency percentiles and
  throughput stay informational; each scenario also carries the flight
  recorder's ``slo`` alert snapshot (see :mod:`repro.observability.slo`),
  and *any* page-severity alert during these deliberately-below-capacity
  runs fails the candidate even without a baseline (burn rates themselves
  stay informational).

The snapshot is written as a schema-versioned ``BENCH_<label>.json`` at the
repo root, so every PR leaves a comparable perf record in git history.
:func:`compare_documents` diffs two snapshots cell by cell with per-metric
thresholds (structural metrics tolerate zero regression; wall time is
reported but not thresholded unless asked) — the CLI exits non-zero on any
regression, which is what the CI ``bench-quick`` job gates on.

Blessing a new baseline is deliberate: run ``repro bench run --label
<name>``, eyeball the diff ``repro bench compare`` prints, and commit the
new file (see ``docs/benchmarking.md``).
"""

from __future__ import annotations

import glob
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "WorkloadCell",
    "DEFAULT_MATRIX",
    "run_cell",
    "run_matrix",
    "write_document",
    "load_document",
    "find_baseline",
    "DEFAULT_THRESHOLDS",
    "SERVING_STRUCTURAL_COUNTS",
    "MetricDelta",
    "ComparisonResult",
    "compare_documents",
    "bench_path",
]

#: bump when the BENCH JSON layout changes incompatibly
#: (v2: machine cells gained ``topology`` blocks and richer ``traffic``;
#: v3: every cell pins its canonical ``schedule_hash`` — an accidental
#: schedule change fails ``repro bench compare`` — and lattice cells may
#: carry a ``compiled`` batch-kernel speedup block;
#: v4: lattice cells run with a batch also carry a ``profile`` block —
#: p50/p99 compiled-run latency, keys/s and per-layer occupancy summary —
#: informational except the structural layer/op counts;
#: v5: documents run with ``--serving`` carry a top-level ``serving``
#: section — :mod:`repro.serve` load-generation scenarios whose structural
#: counts (offered / completed / rejected / mismatches / errors) are gated
#: at zero tolerance while latency and throughput stay informational;
#: v6: serving scenarios run under the flight recorder — each carries an
#: ``slo`` alert snapshot and a ``server_latency_ms`` server-vs-client
#: section, and a page-severity alert during the canonical (below-capacity)
#: suite fails the candidate outright, baseline or not;
#: v7: every cell carries an ``optimize`` block — the certified optimizer's
#: optimized schedule hash, per-pass certificates, translation-validation
#: verdict and remaining/removed op counts; remaining counts are gated at
#: zero tolerance, removed counts and the optimized-kernel speedup stay
#: informational, and an optimizer fallback or failed validation on a
#: canonical cell is a hard candidate error)
SCHEMA_VERSION = 7

#: profiled runs behind each ``profile`` block's percentiles
PROFILE_RUNS = 9


# ----------------------------------------------------------------------
# workload matrix
# ----------------------------------------------------------------------

def _factor_builders() -> dict[str, Callable[[int], Any]]:
    from .. import graphs

    return {
        "path": graphs.path_graph,
        "cycle": lambda n: graphs.cycle_graph(max(3, n)),
        "k2": lambda n: graphs.k2(),
        "complete": graphs.complete_graph,
        "tree": lambda n: graphs.complete_binary_tree(max(1, n)),
        "petersen": lambda n: graphs.petersen_graph().canonically_labelled(),
        "debruijn": lambda n: graphs.de_bruijn_graph(max(2, n)),
    }


@dataclass(frozen=True)
class WorkloadCell:
    """One benchmark cell: a factor family at size ``n``, dimensions ``r``,
    on one backend (``lattice`` = modelled costs, ``machine`` = measured)."""

    family: str
    n: int
    r: int
    backend: str

    @property
    def key(self) -> str:
        """Stable identifier used to match cells across snapshots."""
        return f"{self.family}-n{self.n}-r{self.r}-{self.backend}"

    def build_factor(self):
        builders = _factor_builders()
        if self.family not in builders:
            raise ValueError(f"unknown factor family {self.family!r}")
        return builders[self.family](self.n)


#: the canonical matrix: §5 families at small sizes, r in {2, 3, 4}, both
#: backends — wide enough to regress on, small enough for every CI run
DEFAULT_MATRIX: tuple[WorkloadCell, ...] = (
    WorkloadCell("path", 3, 2, "lattice"),
    WorkloadCell("path", 3, 3, "lattice"),
    WorkloadCell("path", 4, 3, "lattice"),
    WorkloadCell("cycle", 4, 3, "lattice"),
    WorkloadCell("k2", 2, 4, "lattice"),
    WorkloadCell("k2", 2, 2, "machine"),
    WorkloadCell("k2", 2, 3, "machine"),
    WorkloadCell("k2", 2, 4, "machine"),
    WorkloadCell("path", 3, 3, "machine"),
)


# ----------------------------------------------------------------------
# running cells
# ----------------------------------------------------------------------

def run_cell(
    cell: WorkloadCell, seed: int = 0, compiled_batch: int | None = None
) -> dict[str, Any]:
    """Execute one cell under full telemetry and flatten it to a record.

    ``compiled_batch`` (lattice cells only) additionally benchmarks the
    layer-packed compiled kernel against the interpreted lattice path on a
    batch of that many random key rows, landing the speedup in a
    ``compiled`` block."""
    from ..core.lattice_sort import ProductNetworkSorter
    from ..core.machine_sort import MachineSorter
    from ..orders import lattice_to_sequence
    from .critical_path import conformance_report
    from .tracer import Tracer

    factor = cell.build_factor()
    rng = np.random.default_rng(seed)
    tracer = Tracer()
    traffic = topology = None

    t0 = time.perf_counter()
    if cell.backend == "machine":
        sorter: Any = MachineSorter.for_factor(factor, cell.r)
        keys = rng.integers(0, 2**31, size=sorter.network.num_nodes)
        machine, ledger = sorter.sort(keys, tracer=tracer)
        seq = lattice_to_sequence(machine.lattice())
        s2_model = routing_model = None
        comparisons = int(machine.comparisons)
        traffic, topology = _traffic_record(sorter, keys)
    elif cell.backend == "lattice":
        sorter = ProductNetworkSorter.for_factor(factor, cell.r)
        keys = rng.integers(0, 2**31, size=sorter.network.num_nodes)
        lattice, ledger = sorter.sort_sequence(keys, tracer=tracer)
        seq = lattice_to_sequence(lattice)
        s2_model = sorter.sorter2d.rounds(factor.n)
        routing_model = sorter.routing.rounds(factor.n)
        # the lattice backend models costs, it does not count comparisons
        comparisons = int(ledger.comparisons)
    else:
        raise ValueError(f"unknown backend {cell.backend!r}")
    wall = time.perf_counter() - t0

    sorted_ok = bool(np.all(np.asarray(seq)[:-1] <= np.asarray(seq)[1:]))
    report = conformance_report(tracer, s2_model, routing_model)
    span_count = sum(1 for _ in tracer.iter_spans())

    record: dict[str, Any] = {
        "cell": cell.key,
        "family": cell.family,
        "factor": factor.name,
        "n": factor.n,
        "r": cell.r,
        "backend": cell.backend,
        "keys": int(np.asarray(seq).size),
        "seed": seed,
        "sorted_ok": sorted_ok,
        # canonical emitted-schedule hash: a pure function of (G, N, r,
        # backend); any drift is an accidental schedule change
        "schedule_hash": sorter.schedule().schedule_hash(),
        "metrics": {
            "total_rounds": ledger.total_rounds,
            "s2_rounds": ledger.s2_rounds,
            "routing_rounds": ledger.routing_rounds,
            "s2_calls": ledger.s2_calls,
            "routing_calls": ledger.routing_calls,
            "comparisons": comparisons,
            "span_count": span_count,
            "wall_time_s": wall,
        },
        "phases": [
            {
                "name": p.name,
                "kind": p.kind,
                "count": p.count,
                "rounds": p.rounds,
                "comparisons": p.comparisons,
            }
            for p in report.phases
        ],
        "conformance": {
            "ok": report.ok,
            "theorem1_calls_ok": report.theorem1_calls_ok,
            "theorem1_rounds_ok": report.theorem1_rounds_ok,
            "matches_model": report.matches_model,
            "predicted_total_rounds": report.predicted_total_rounds,
            "model_total_rounds": report.model_total_rounds,
            "vacuous_routing_spans": report.vacuous_routing_spans,
            "deviations": report.deviations,
        },
    }
    if traffic is not None:
        record["traffic"] = traffic
    if topology is not None:
        record["topology"] = topology
    if compiled_batch and cell.backend == "lattice":
        record["compiled"] = _compiled_record(sorter, compiled_batch, rng)
        record["profile"] = _profile_record(sorter, compiled_batch, rng)
    record["optimize"] = _optimize_record(
        sorter, factor, cell, s2_model, routing_model, seed, compiled_batch, rng
    )
    return record


def _optimize_record(
    sorter,
    factor,
    cell: WorkloadCell,
    s2_model: int | None,
    routing_model: int | None,
    seed: int,
    compiled_batch: int | None,
    rng,
) -> dict[str, Any]:
    """Run the certified optimizer over the cell's emitted schedule (v7).

    Every pass must produce a passing :class:`OptimizationCertificate` and
    the translation validator must prove optimized ≡ original, so the
    recorded counts always describe a schedule that provably still sorts.
    The remaining comparator/block-sort/round/layer counts are structural
    (zero-tolerance in :data:`DEFAULT_THRESHOLDS`); the removed counts and
    the optimized-vs-baseline compiled speedup (lattice cells run with a
    batch) are informational, where larger is better.
    """
    from ..graphs.product import ProductGraph
    from ..schedule import compile_schedule, optimize_schedule, snake_order_nodes

    dag = sorter.schedule()
    result = optimize_schedule(
        dag,
        validate=True,
        network=ProductGraph(factor, cell.r),
        s2_model_rounds=s2_model,
        routing_model_rounds=routing_model,
        seed=seed,
    )
    opt = result.optimized
    baseline_kernel = compile_schedule(dag)
    optimized_kernel = compile_schedule(dag, optimize=True)
    record: dict[str, Any] = {
        "optimized_schedule_hash": result.optimized_hash,
        "fell_back": bool(result.fell_back),
        "validated": bool(result.validation.ok) if result.validation else False,
        "certificates": {c.pass_name: bool(c.ok) for c in result.certificates},
        "comparators": opt.comparator_count,
        "block_sorts": opt.block_sort_count,
        "rounds": len(opt.rounds),
        "layers": optimized_kernel.num_layers,
        "baseline_layers": baseline_kernel.num_layers,
        "comparators_removed": result.comparators_removed,
        "rounds_removed": result.rounds_removed,
    }
    if compiled_batch and cell.backend == "lattice":
        keys = rng.integers(0, 2**31, size=(int(compiled_batch), dag.num_nodes))
        t0 = time.perf_counter()
        baseline_out = baseline_kernel.run(keys)
        baseline_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        optimized_out = optimized_kernel.run(keys)
        optimized_wall = time.perf_counter() - t0
        snake = snake_order_nodes(dag.n, dag.r)
        expected = np.empty_like(keys)
        expected[:, snake] = np.sort(keys, axis=1)
        record["batch"] = int(compiled_batch)
        record["matches"] = bool(
            np.array_equal(optimized_out, expected)
            and np.array_equal(baseline_out, expected)
        )
        record["speedup"] = (
            baseline_wall / optimized_wall if optimized_wall > 0 else float("inf")
        )
    return record


def _compiled_record(sorter, batch: int, rng) -> dict[str, Any]:
    """Benchmark the compiled batch kernel against the interpreted path.

    Sorts ``batch`` independent key rows twice: row by row through the
    lattice backend (which interprets the emitted IR per lattice) and as one
    whole ``(batch, N**r)`` array through the layer-packed compiled kernel.
    Both outputs are checked against the snake-order ground truth, so the
    recorded speedup is only ever between two *correct* executions.
    """
    from ..schedule import compile_schedule, snake_order_nodes

    dag = sorter.schedule()
    kernel = compile_schedule(dag)  # warm the hash-keyed cache
    keys = rng.integers(0, 2**31, size=(batch, dag.num_nodes))

    t0 = time.perf_counter()
    interpreted = np.stack(
        [np.ravel(sorter.sort_sequence(row).lattice) for row in keys]
    )
    interpreted_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    compiled_out = kernel.run(keys)
    compiled_wall = time.perf_counter() - t0

    snake = snake_order_nodes(dag.n, dag.r)
    expected = np.empty_like(keys)
    expected[:, snake] = np.sort(keys, axis=1)
    matches = bool(
        np.array_equal(compiled_out, expected) and np.array_equal(interpreted, expected)
    )
    return {
        "batch": int(batch),
        "schedule_hash": kernel.schedule_hash,
        "rounds": len(dag.rounds),
        "layers": kernel.num_layers,
        "matches": matches,
        "interpreted_wall_s": interpreted_wall,
        "compiled_wall_s": compiled_wall,
        "speedup": interpreted_wall / compiled_wall if compiled_wall > 0 else float("inf"),
    }


def _profile_record(sorter, batch: int, rng) -> dict[str, Any]:
    """Profile the packed kernel: latency percentiles, throughput, occupancy.

    :data:`PROFILE_RUNS` profiled executions of one batch feed the p50/p99
    (sample percentiles; scrapers derive the same from the histogram
    buckets) — everything informational except the structural ``layers`` /
    ``ops`` counts, which the ASAP packing fully determines.
    """
    from ..schedule import compile_schedule
    from .kernelprof import KernelProfiler

    kernel = compile_schedule(sorter.schedule())
    profiler = KernelProfiler()
    keys = rng.integers(0, 2**31, size=(int(batch), kernel.num_nodes))
    kernel.run(keys)  # warm-up
    profiles = [profiler.run(kernel, keys)[1] for _ in range(PROFILE_RUNS)]
    walls = np.array([p.wall_s for p in profiles])
    representative = profiles[int(np.argmin(walls))]
    return {
        "batch": int(batch),
        "runs": len(profiles),
        "p50_run_s": float(np.percentile(walls, 50)),
        "p99_run_s": float(np.percentile(walls, 99)),
        "keys_per_s": float(representative.keys / np.percentile(walls, 50)),
        "layers": len(representative.layers),
        "ops": representative.op_count,
        "mean_occupancy": representative.mean_occupancy,
        "max_occupancy": representative.max_occupancy,
    }


def _traffic_record(sorter, keys) -> tuple[dict[str, Any], dict[str, Any]]:
    """Re-run the machine sort with the topology observatory riding the
    event bus (the schedule is oblivious, so the second run's traffic is
    identical).  A tracer shares the bus so the observatory can attribute
    every link traversal to its phase."""
    from .topology import LinkObservatory
    from .tracer import Tracer

    tracer = Tracer()
    observatory = LinkObservatory(sorter.network, bus=tracer.bus)
    sorter.sort(keys, tracer=tracer)
    return observatory.traffic(), observatory.snapshot()


def _serving_record(seed: int = 0) -> dict[str, Any]:
    """Run the canonical :mod:`repro.serve` load-generation suite (v6).

    Every scenario drives an in-process :class:`~repro.serve.SortService`
    with open-loop arrivals well below the compiled kernels' capacity, so a
    healthy build completes every request with zero rejections and zero
    ground-truth mismatches — which is exactly what the comparison gates on.
    Each run carries the flight recorder (``slo=True``): the burn-rate alert
    snapshot rides along, and :func:`_compare_serving` treats any
    page-severity alert during these clean runs as a candidate error.
    """
    from ..serve import ServiceConfig, default_scenarios, run_loadgen

    config = ServiceConfig(max_batch=32, max_delay_ms=1.0, max_queue_depth=1024)
    return {
        "config": config.to_json(),
        "scenarios": [
            run_loadgen(s, config=config, slo=True) for s in default_scenarios(seed)
        ],
    }


def run_matrix(
    cells: tuple[WorkloadCell, ...] = DEFAULT_MATRIX,
    seed: int = 0,
    label: str = "local",
    compiled_batch: int | None = None,
    serving: bool = False,
) -> dict[str, Any]:
    """Run every cell and assemble the schema-versioned snapshot document.

    ``serving=True`` additionally runs the canonical serving load-generation
    suite and lands it in the document's top-level ``serving`` section."""
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "created": time.time(),
        "seed": seed,
        "cells": [
            run_cell(cell, seed=seed, compiled_batch=compiled_batch) for cell in cells
        ],
    }
    if serving:
        doc["serving"] = _serving_record(seed)
    return doc


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def bench_path(label: str, root: str = ".") -> str:
    """The canonical file name for a labelled snapshot."""
    safe = "".join(c if (c.isalnum() or c in "-_") else "-" for c in label)
    return os.path.join(root, f"BENCH_{safe}.json")


def write_document(doc: dict[str, Any], path: str) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def load_document(path: str) -> dict[str, Any]:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise ValueError(f"{path} is not a BENCH snapshot (no schema_version)")
    return doc


def find_baseline(root: str = ".", exclude: str | None = None) -> str | None:
    """The most recent ``BENCH_*.json`` under ``root`` (by the ``created``
    stamp inside the file), skipping ``exclude``."""
    best_path, best_created = None, -1.0
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        if exclude is not None and os.path.abspath(path) == os.path.abspath(exclude):
            continue
        try:
            doc = load_document(path)
        except (ValueError, json.JSONDecodeError):
            continue
        created = float(doc.get("created", 0.0))
        if created > best_created:
            best_path, best_created = path, created
    return best_path


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------

#: max tolerated relative increase per metric; ``None`` = informational only
DEFAULT_THRESHOLDS: dict[str, float | None] = {
    "total_rounds": 0.0,
    "s2_rounds": 0.0,
    "routing_rounds": 0.0,
    "s2_calls": 0.0,
    "routing_calls": 0.0,
    "comparisons": 0.0,
    "span_count": 0.0,
    "wall_time_s": None,  # CI machines vary wildly; opt in via --wall-threshold
    # topology block scalars (machine cells): the schedule is oblivious, so
    # edge-count totals are structural — zero regression tolerated
    "topology.steps": 0.0,
    "topology.routed_steps": 0.0,
    "topology.directed_edges": 0.0,
    "topology.used_edges": 0.0,
    "topology.total_traversals": 0.0,
    "topology.max_load": 0.0,
    "topology.peak_buffer_depth": 0.0,
    "topology.mean_load": None,   # redundant with the totals; informational
    "topology.gini": None,
    # traffic block scalars (machine cells): pair and traversal counts are
    # structural like the topology totals — zero tolerance; the derived
    # ratios stay informational like topology.mean_load
    "traffic.operations": 0.0,
    "traffic.pair_count": 0.0,
    "traffic.adjacent_pairs": 0.0,
    "traffic.routed_pairs": 0.0,
    "traffic.routed_link_traversals": 0.0,
    "traffic.link_traversals": 0.0,
    "traffic.peak_buffer_depth": 0.0,
    "traffic.mean_parallelism": None,
    "traffic.peak_node_utilisation": None,
    # compiled block (lattice cells run with a batch): layer count is
    # structural (the ASAP packing is deterministic); the walls and the
    # speedup are wall-clock and stay informational
    "compiled.layers": 0.0,
    "compiled.rounds": 0.0,
    "compiled.batch": None,
    "compiled.interpreted_wall_s": None,
    "compiled.compiled_wall_s": None,
    "compiled.speedup": None,
    # profile block (v4): layer/op counts are structural — the ASAP packing
    # is deterministic — latency percentiles, throughput and occupancy are
    # wall-clock/derived and stay informational
    "profile.layers": 0.0,
    "profile.ops": 0.0,
    "profile.batch": None,
    "profile.runs": None,
    "profile.p50_run_s": None,
    "profile.p99_run_s": None,
    "profile.keys_per_s": None,
    "profile.mean_occupancy": None,
    "profile.max_occupancy": None,
    # optimize block (v7): the remaining op/round/layer counts after the
    # certified pipeline are structural — the passes are deterministic, so
    # any increase means the optimizer got weaker; the removed counts and
    # the kernel speedup are the same facts seen from the other side
    # (higher is better) and stay informational
    "optimize.comparators": 0.0,
    "optimize.block_sorts": 0.0,
    "optimize.rounds": 0.0,
    "optimize.layers": 0.0,
    "optimize.baseline_layers": 0.0,
    "optimize.comparators_removed": None,
    "optimize.rounds_removed": None,
    "optimize.batch": None,
    "optimize.speedup": None,
    # serving scenarios (v5+): structural counts are compared for *exact*
    # equality in compare_documents (zero tolerance, handled outside the
    # threshold machinery); everything wall-clock stays informational
    "serving.duration_s": None,
    "serving.offered_rps": None,
    "serving.completed_rps": None,
    "serving.latency_ms.p50": None,
    "serving.latency_ms.p90": None,
    "serving.latency_ms.p99": None,
    "serving.latency_ms.max": None,
    "serving.latency_ms.mean": None,
    # v6: server-side histogram percentiles (and the client's bucketed view
    # lives under server_latency_ms.client_bucketed in the document, not
    # here); SLO burn rates are gated structurally — a page-severity alert
    # during the canonical suite is a hard error, never a threshold
    "serving.server_request_ms.p50": None,
    "serving.server_request_ms.p99": None,
    "serving.server_queue_wait_ms.p50": None,
    "serving.server_queue_wait_ms.p99": None,
}

#: structural per-scenario counts gated at exact equality between snapshots
SERVING_STRUCTURAL_COUNTS = ("offered", "completed", "rejected", "mismatches", "errors")


def _comparable_metrics(cell: dict[str, Any]) -> dict[str, float]:
    """A cell's ``metrics`` dict plus flattened block scalars."""
    out: dict[str, float] = dict(cell.get("metrics", {}))
    for block in ("topology", "traffic", "compiled", "profile", "optimize"):
        for key, value in (cell.get(block) or {}).items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            out[f"{block}.{key}"] = value
    return out


#: informational metrics where larger is better (throughput, speedup);
#: the improved/"=" arrows flip direction for these
HIGHER_IS_BETTER = frozenset({
    "compiled.speedup",
    "optimize.comparators_removed",
    "optimize.rounds_removed",
    "optimize.speedup",
    "profile.keys_per_s",
    "profile.mean_occupancy",
    "profile.max_occupancy",
    "serving.completed_rps",
    "serving.offered_rps",
})


@dataclass(frozen=True)
class MetricDelta:
    """One metric of one cell, baseline vs candidate."""

    cell: str
    metric: str
    baseline: float
    candidate: float
    threshold: float | None

    @property
    def regressed(self) -> bool:
        if self.threshold is None:
            return False
        if self.baseline == 0:
            return self.candidate > 0
        return self.candidate > self.baseline * (1.0 + self.threshold)

    @property
    def improved(self) -> bool:
        if self.metric in HIGHER_IS_BETTER:
            return self.candidate > self.baseline
        return self.candidate < self.baseline

    def describe(self) -> str:
        arrow = "REGRESSED" if self.regressed else ("improved" if self.improved else "=")
        return f"{self.cell}: {self.metric} {self.baseline:g} -> {self.candidate:g} [{arrow}]"


@dataclass
class ComparisonResult:
    """Everything ``repro bench compare`` reports."""

    baseline_label: str
    candidate_label: str
    deltas: list[MetricDelta]
    #: hard failures that are not metric deltas (missing cells, conformance)
    errors: list[str]
    #: cells present only in the candidate (informational)
    new_cells: list[str]
    #: informational remarks (e.g. candidate skipped the serving suite)
    notes: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.errors

    def render(self) -> str:
        lines = [
            f"benchmark comparison: baseline '{self.baseline_label}' -> "
            f"candidate '{self.candidate_label}'"
        ]
        for err in self.errors:
            lines.append(f"  ERROR: {err}")
        changed = [d for d in self.deltas if d.regressed or d.improved]
        for delta in changed:
            lines.append("  " + delta.describe())
        if not changed and not self.errors:
            lines.append("  all compared metrics unchanged")
        for cell in self.new_cells:
            lines.append(f"  note: new cell {cell} (no baseline)")
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append(
            f"verdict: {'OK' if self.ok else 'REGRESSION'} "
            f"({len(self.regressions)} regressed metrics, {len(self.errors)} errors)"
        )
        return "\n".join(lines)


def compare_documents(
    baseline: dict[str, Any],
    candidate: dict[str, Any],
    thresholds: dict[str, float | None] | None = None,
) -> ComparisonResult:
    """Diff two snapshots cell by cell; see :data:`DEFAULT_THRESHOLDS`."""
    limits = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        limits.update(thresholds)

    result = ComparisonResult(
        baseline_label=str(baseline.get("label", "?")),
        candidate_label=str(candidate.get("label", "?")),
        deltas=[],
        errors=[],
        new_cells=[],
    )
    if baseline.get("schema_version") != candidate.get("schema_version"):
        result.errors.append(
            f"schema mismatch: baseline v{baseline.get('schema_version')} vs "
            f"candidate v{candidate.get('schema_version')} — re-bless the baseline"
        )
        return result

    base_cells = {c["cell"]: c for c in baseline.get("cells", [])}
    cand_cells = {c["cell"]: c for c in candidate.get("cells", [])}

    for key in base_cells:
        if key not in cand_cells:
            result.errors.append(f"cell {key} missing from candidate")
    result.new_cells = [key for key in cand_cells if key not in base_cells]

    for key, cand in cand_cells.items():
        if not cand.get("sorted_ok", False):
            result.errors.append(f"cell {key}: candidate output UNSORTED")
        conf = cand.get("conformance", {})
        if not conf.get("ok", False):
            detail = "; ".join(conf.get("deviations", [])) or "unspecified"
            result.errors.append(f"cell {key}: conformance failed ({detail})")
        compiled = cand.get("compiled")
        if compiled is not None and not compiled.get("matches", True):
            result.errors.append(
                f"cell {key}: compiled kernel output diverges from the "
                "interpreted path / snake ground truth"
            )
        optimize = cand.get("optimize")
        if optimize is not None:
            # candidate invariants (v7), baseline or not: every canonical
            # cell must optimize with passing certificates and a proven
            # translation — a fallback means a pass broke
            if optimize.get("fell_back", False):
                failed = [
                    name
                    for name, ok in (optimize.get("certificates") or {}).items()
                    if not ok
                ]
                result.errors.append(
                    f"cell {key}: optimizer fell back to the unoptimized "
                    f"schedule (failed: {', '.join(failed) or 'translation validation'})"
                )
            elif not optimize.get("validated", True):
                result.errors.append(
                    f"cell {key}: optimizer translation validation failed"
                )
            if not optimize.get("matches", True):
                result.errors.append(
                    f"cell {key}: optimized kernel output diverges from the "
                    "snake ground truth"
                )
        base = base_cells.get(key)
        if base is None:
            continue
        base_hash, cand_hash = base.get("schedule_hash"), cand.get("schedule_hash")
        if base_hash and cand_hash and base_hash != cand_hash:
            result.errors.append(
                f"cell {key}: schedule hash drift {base_hash[:12]} -> "
                f"{cand_hash[:12]} — the emitted schedule changed"
            )
        base_opt_hash = (base.get("optimize") or {}).get("optimized_schedule_hash")
        cand_opt_hash = (cand.get("optimize") or {}).get("optimized_schedule_hash")
        if base_opt_hash and cand_opt_hash and base_opt_hash != cand_opt_hash:
            result.errors.append(
                f"cell {key}: optimized schedule hash drift "
                f"{base_opt_hash[:12]} -> {cand_opt_hash[:12]} — the "
                "optimizer's output changed"
            )
        cand_metrics = _comparable_metrics(cand)
        base_metrics = _comparable_metrics(base)
        for metric, threshold in limits.items():
            if metric not in cand_metrics or metric not in base_metrics:
                continue
            result.deltas.append(
                MetricDelta(
                    cell=key,
                    metric=metric,
                    baseline=float(base_metrics[metric]),
                    candidate=float(cand_metrics[metric]),
                    threshold=threshold,
                )
            )
    _compare_serving(result, baseline, candidate, limits)
    return result


def _serving_scalars(scenario_result: dict[str, Any]) -> dict[str, float]:
    """Flatten one scenario result's informational numbers for deltas."""
    out: dict[str, float] = {}
    for key, value in (scenario_result.get("latency_ms") or {}).items():
        out[f"serving.latency_ms.{key}"] = float(value)
    for key in ("duration_s", "offered_rps", "completed_rps"):
        value = scenario_result.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"serving.{key}"] = float(value)
    srv = scenario_result.get("server_latency_ms") or {}
    for section in ("request", "queue_wait"):
        for quantile, value in (srv.get(section) or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[f"serving.server_{section}_ms.{quantile}"] = float(value)
    return out


def _compare_serving(
    result: ComparisonResult,
    baseline: dict[str, Any],
    candidate: dict[str, Any],
    limits: dict[str, float | None],
) -> None:
    """Gate the v6 ``serving`` section.

    Candidate invariants hold regardless of the baseline: ground-truth
    mismatches, request errors and rejections are hard errors — the
    canonical suite runs far below capacity, so *any* shed request means the
    service (not the load) changed — and so is a page-severity SLO alert
    firing during one of these clean runs (the burn rates themselves stay
    informational).  Against a baseline, the structural counts must match
    exactly (zero tolerance); latency and throughput feed informational
    deltas.  A candidate without a serving section is a note, not an error —
    plain matrix runs (and older comparisons) stay valid.
    """
    base = baseline.get("serving")
    cand = candidate.get("serving")
    if cand is None:
        if base is not None:
            result.notes.append(
                "baseline has a serving section but the candidate was run "
                "without --serving; serving comparison skipped"
            )
        return
    base_scenarios = {
        s["scenario"]["key"]: s for s in (base or {}).get("scenarios", [])
    }
    cand_scenarios = {s["scenario"]["key"]: s for s in cand.get("scenarios", [])}

    for key, scenario in cand_scenarios.items():
        label = f"serving:{key}"
        counts = scenario.get("counts", {})
        if counts.get("mismatches", 0):
            result.errors.append(
                f"{label}: {counts['mismatches']} responses diverged from "
                "the snake-order ground truth"
            )
        if counts.get("errors", 0):
            result.errors.append(f"{label}: {counts['errors']} requests errored")
        if counts.get("rejected", 0):
            result.errors.append(
                f"{label}: {counts['rejected']} requests shed — the canonical "
                "suite runs below capacity, rejections mean lost throughput"
            )
        slo = scenario.get("slo")
        if isinstance(slo, dict) and int(slo.get("page_alerts", 0)):
            worst = slo.get("max_severity_seen", "page")
            result.errors.append(
                f"{label}: {slo['page_alerts']} page-severity SLO alert(s) "
                f"fired during a clean run (worst seen: {worst}) — the "
                "canonical suite must never burn error budget at page rate"
            )
        base_scenario = base_scenarios.get(key)
        if base_scenario is None:
            if base is not None:
                result.new_cells.append(label)
            continue
        base_counts = base_scenario.get("counts", {})
        for name in SERVING_STRUCTURAL_COUNTS:
            if int(counts.get(name, 0)) != int(base_counts.get(name, 0)):
                result.errors.append(
                    f"{label}: structural count '{name}' changed "
                    f"{base_counts.get(name, 0)} -> {counts.get(name, 0)} "
                    "(zero tolerance)"
                )
        cand_scalars = _serving_scalars(scenario)
        base_scalars = _serving_scalars(base_scenario)
        for metric, cand_value in cand_scalars.items():
            if metric not in base_scalars:
                continue
            result.deltas.append(
                MetricDelta(
                    cell=label,
                    metric=metric,
                    baseline=base_scalars[metric],
                    candidate=cand_value,
                    threshold=limits.get(metric),
                )
            )
    if base is not None:
        for key in base_scenarios:
            if key not in cand_scenarios:
                result.errors.append(f"serving scenario {key} missing from candidate")
