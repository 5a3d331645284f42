"""The workloads, their seeded inputs, the timed units and the checks.

Every workload runs the same six kinds of unit on its own geometry cells,
interleaved in per-workload shares of the run (see ``BENCHMARK.md`` for why
each workload exists):

* **cold pass** — drop every schedule cache, then per cell build the sorter,
  emit the schedule, compile the optimized kernel, and run one vector
  through the kernel and one through ``sort_sequence`` (whose first call
  builds the per-round plan);
* **warm round** — one warm ``sort_sequence`` call per cell;
* **kernel round** — one batch per cell through the warm packed kernel, int64
  and finite float64, each also sorted by ``np.sort`` as the reference;
* **serve chunk / burst** — the four canonical serving cells behind an
  in-process ``SortService``: open-loop arrivals (phase A) or a closed loop
  (phase B);
* **reference** — a fixed pure-Python loop and a fixed NumPy loop that do
  not touch ``repro``.  Host-bound timings are reported at the reference's
  nominal speed, which takes the host's drift out of them.

Every output is checked against the snake ground truth (``np.sort``
permuted by ``snake_order_nodes``), dtype included, outside the timed
region.  A mismatch, an exception or a rejection counts as a failure.
"""

from __future__ import annotations

import gc
import resource
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import mean, median
from time import perf_counter
from typing import Any, Iterator

import numpy as np

from tracing import NullRecorder, Recorder, instrument

# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One product-network geometry ``PG(family(n), r)``."""

    family: str
    n: int
    r: int

    @property
    def name(self) -> str:
        return f"{self.family}-n{self.n}-r{self.r}"

    @property
    def keys(self) -> int:
        return self.n**self.r

    def factor(self) -> Any:
        from repro.graphs import library

        if self.family == "k2":
            return library.k2()
        if self.family == "petersen":
            return library.petersen_graph()
        return {"path": library.path_graph, "cycle": library.cycle_graph}[self.family](self.n)


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    #: rows per kernel batch, one entry per cell
    rows: tuple[int, ...]
    #: shares of ``--seconds`` given to each kind of unit
    cold: float
    warm: float
    kernel: float
    serve_a: float
    serve_b: float
    ref: float


#: the canonical serving cells (``SortService`` resolves only the nine
#: benchreg cells; these four cover three families and widths 4, 9 and 16)
SERVE_CELLS = (Cell("path", 3, 3), Cell("path", 4, 3), Cell("cycle", 4, 3), Cell("k2", 2, 4))
SERVE_RATE = 1000.0  # phase A offered load, requests per second over all cells
SERVE_WORKERS = 16  # phase B outstanding requests per cell (max_queue_depth is 512)
CHUNK_REQUESTS = 500  # phase A requests per chunk (about 0.5 s)
BURST_PER_WORKER = 32  # phase B requests per worker per burst (about 0.2 s)
LAG_LIMIT_MS = 10.0  # a chunk whose generator lag p99 exceeds this is late

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scale-cold",
            (Cell("k2", 2, 12), Cell("path", 4, 6), Cell("cycle", 8, 4), Cell("petersen", 10, 3)),
            rows=(8, 8, 8, 8),
            cold=0.47, warm=0.19, kernel=0.08, serve_a=0.08, serve_b=0.06, ref=0.12,
        ),
        Workload(
            "kernel-batch",
            (Cell("k2", 2, 10), Cell("path", 4, 5), Cell("cycle", 8, 4)),
            rows=(64, 64, 256),
            cold=0.22, warm=0.09, kernel=0.4, serve_a=0.11, serve_b=0.06, ref=0.12,
        ),
        Workload(
            "serve-open",
            SERVE_CELLS,
            rows=(64, 64, 64, 64),
            cold=0.17, warm=0.05, kernel=0.08, serve_a=0.35, serve_b=0.23, ref=0.12,
        ),
    )
}

VECTOR_POOL = 8  # cold/warm single vectors per cell
BATCH_POOL = 2  # kernel batches per cell and dtype
SERVE_POOL = 256  # serving key vectors per cell

# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def snake_expected(keys: np.ndarray, cell: Cell) -> np.ndarray:
    """The ground truth: sorted keys placed at the snake-order node ids."""
    return snake_place(np.sort(keys, axis=-1), cell)


def snake_place(sorted_keys: np.ndarray, cell: Cell) -> np.ndarray:
    from repro.schedule import snake_order_nodes

    out = np.empty_like(sorted_keys)
    out[..., snake_order_nodes(cell.n, cell.r)] = sorted_keys
    return out


def _int_keys(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.integers(-(2**62), 2**62, size=shape, dtype=np.int64)


@dataclass
class Inputs:
    """Everything a run feeds the program, generated from one seed."""

    vectors: dict[str, np.ndarray]
    batches: dict[tuple[str, str], list[np.ndarray]]
    serve_pools: list[np.ndarray]
    serve_expected: list[np.ndarray]
    due: np.ndarray
    serve_cell: np.ndarray
    serve_key: np.ndarray


def make_inputs(wl: Workload, seed: int, seconds: float) -> Inputs:
    rng = np.random.default_rng(seed)
    vectors = {c.name: _int_keys(rng, (VECTOR_POOL, c.keys)) for c in wl.cells}
    batches: dict[tuple[str, str], list[np.ndarray]] = {}
    for cell, rows in zip(wl.cells, wl.rows):
        batches[(cell.name, "int64")] = [_int_keys(rng, (rows, cell.keys)) for _ in range(BATCH_POOL)]
        batches[(cell.name, "float64")] = [
            rng.standard_normal((rows, cell.keys)) * 1e6 for _ in range(BATCH_POOL)
        ]
    pools = [_int_keys(rng, (SERVE_POOL, c.keys)) for c in SERVE_CELLS]
    # twice the chunks the run's share of phase A needs; a run uses a prefix
    n_a = CHUNK_REQUESTS * (2 + int(2 * wl.serve_a * seconds * SERVE_RATE / CHUNK_REQUESTS))
    return Inputs(
        vectors=vectors,
        batches=batches,
        serve_pools=pools,
        serve_expected=[snake_expected(p, c) for p, c in zip(pools, SERVE_CELLS)],
        due=np.cumsum(rng.exponential(1.0 / SERVE_RATE, n_a)),
        serve_cell=rng.integers(0, len(SERVE_CELLS), n_a),
        serve_key=rng.integers(0, SERVE_POOL, n_a),
    )


# ----------------------------------------------------------------------
# host reference
# ----------------------------------------------------------------------

#: the reference loops' times on the 2-core Xeon host the benchmark was
#: calibrated on (see ``BENCHMARK.md``); host-bound timings are reported
#: as if the host ran the loops in exactly these times
PY_REF_NOMINAL_S = 0.015
NP_REF_NOMINAL_S = 0.04


class Reference:
    """Two fixed loops that do not touch ``repro``, timed between the
    program's units to measure how fast the host runs at the moment.

    The shared host's speed drifts by up to 1.5x over minutes.  Python-bound
    work (emission, hashing, request handling) drifts with the Python loop,
    the packed kernel with the NumPy loop, so each host-bound timing is
    divided by its loop's time over the same run.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)  # fixed: the same work on every seed
        self.batch = rng.integers(0, 2**40, size=(256, 4096))  # 8 MiB, beyond the L2
        self.perm = rng.permutation(4096)
        self.pairs = [(i, i ^ 5) for i in range(4096)]
        self.table = {p: (p[0] * 7) % 1013 for p in self.pairs}

    def python(self) -> float:
        """Tuple, hash, dict and sort work like emission's and hashing's, on
        small fixed data, with the collector off so that the program's heap
        does not enter it."""
        gc.disable()
        try:
            t0 = perf_counter()
            acc = 0
            for _ in range(8):
                fresh = {}
                for a, b in self.pairs:
                    fresh[(b, a)] = self.table[(a, b)] ^ hash((b, a))
                acc += sum(sorted(fresh.values())[:16])
            return perf_counter() - t0
        finally:
            gc.enable()

    def numpy(self) -> float:
        """Comparator-slab work like the kernel's: gather, min/max, scatter."""
        lo, hi = self.perm[:2048], self.perm[2048:]
        t0 = perf_counter()
        a = self.batch.copy()
        for _ in range(3):
            x, y = a[:, lo], a[:, hi]
            a[:, lo] = np.minimum(x, y)
            a[:, hi] = np.maximum(x, y)
        return perf_counter() - t0


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------


class Checker:
    """Counts operations attempted and failed; keeps the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(f"{label}: {reason}")

    def check(self, label: str, out: Any, expected: np.ndarray) -> bool:
        """Count one operation; ``out`` may be the exception it raised."""
        self.attempted += 1
        if isinstance(out, BaseException):
            self.fail(label, f"{type(out).__name__}: {out}")
            return False
        out = np.asarray(out)
        if out.dtype != expected.dtype:
            self.fail(label, f"dtype {out.dtype} != {expected.dtype}")
            return False
        if out.shape != expected.shape or not np.array_equal(out, expected):
            self.fail(label, "output is not the snake-ordered permutation of the input")
            return False
        return True


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------


@dataclass
class Result:
    """What the stages measured (untraced unless stated)."""

    # samples by cell (cold, warm) or by cell and dtype (kernel, np.sort)
    cold_s: dict[str, list[float]] = field(default_factory=dict)
    warm_ms: dict[str, list[float]] = field(default_factory=dict)
    kernel_s: dict[str, list[float]] = field(default_factory=dict)
    npsort_s: dict[str, list[float]] = field(default_factory=dict)
    batch_keys: dict[str, int] = field(default_factory=dict)
    serve_latency: list[float] = field(default_factory=list)  # on-time phase A chunks, seconds
    late_latency: list[float] = field(default_factory=list)  # late phase A chunks, seconds
    chunks: int = 0  # phase A chunks run
    late_chunks: int = 0  # phase A chunks whose generator ran late
    lag: list[float] = field(default_factory=list)  # phase A generator lag, seconds
    burst_rps: list[float] = field(default_factory=list)  # phase B, per burst
    snapshots: dict[str, Any] = field(default_factory=dict)
    flush_s: list[float] = field(default_factory=list)
    ref_py_s: list[float] = field(default_factory=list)  # reference loops
    ref_np_s: list[float] = field(default_factory=list)
    # traced-run bookkeeping: untraced/traced wall time of identical units
    untraced_unit_s: float = 0.0
    traced_unit_s: float = 0.0
    traced: dict[str, int] = field(default_factory=dict)  # traced units, by kind
    kernel_bytes: int = 0  # per split round, from array sizes


def _attempt(fn: Any, *args: Any) -> Any:
    try:
        return fn(*args)
    except Exception as exc:  # counted as a failed operation by the checker
        return exc


def _sort_sequence(sorter: Any, keys: np.ndarray) -> Any:
    try:
        return sorter.sort_sequence(keys)[0].reshape(-1)
    except Exception as exc:  # counted as a failed operation by the checker
        return exc


def cold_pass(wl: Workload, inputs: Inputs, p: int, checker: Checker, res: Result,
              rec: Recorder | NullRecorder, built: dict[str, Any]) -> float:
    """Drop every schedule cache, then build each cell cold: sorter, schedule,
    optimized kernel, one vector through the kernel and one through
    ``sort_sequence`` (whose first call builds the per-round plan).  Fills
    ``built`` with each cell's sorter and kernel; returns the timed total."""
    from repro import schedule
    from repro.core.lattice_sort import ProductNetworkSorter
    from repro.schedule import compiled

    built.clear()
    schedule.clear_caches()
    gc.collect()
    total = 0.0
    for cell in wl.cells:
        x = inputs.vectors[cell.name][p % VECTOR_POOL]
        rec.op = f"cold/{cell.name}/{p}"
        t0 = perf_counter()
        with rec.span("cold.cell"):
            sorter = ProductNetworkSorter.for_factor(cell.factor(), cell.r)
            kernel = compiled.compile_schedule(sorter.schedule(), optimize=True)
            y = _attempt(kernel.run, x)
            z = _sort_sequence(sorter, x)
        t1 = perf_counter()
        total += t1 - t0
        res.cold_s.setdefault(cell.name, []).append(t1 - t0)
        expected = snake_expected(x, cell)
        checker.check(f"cold kernel {cell.name}", y, expected)
        checker.check(f"cold sort_sequence {cell.name}", z, expected)
        built[cell.name] = (sorter, kernel)
    return total


def warm_round(wl: Workload, inputs: Inputs, j: int, checker: Checker, res: Result,
               rec: Recorder | NullRecorder, built: dict[str, Any]) -> float:
    """One warm single-vector ``sort_sequence`` call per cell; returns the
    timed total."""
    total = 0.0
    for cell in wl.cells:
        x = inputs.vectors[cell.name][(j + 1) % VECTOR_POOL]
        rec.op = f"warm/{cell.name}/{j}"
        t0 = perf_counter()
        with rec.span("warm.call"):
            out = _sort_sequence(built[cell.name][0], x)
        t1 = perf_counter()
        total += t1 - t0
        res.warm_ms.setdefault(cell.name, []).append((t1 - t0) * 1e3)
        checker.check(f"warm sort_sequence {cell.name}", out, snake_expected(x, cell))
    return total


def traced_pair(unit: Any, i: int, res: Result, rec: Recorder | NullRecorder,
                kind: str) -> None:
    """Run ``unit`` untraced; in a traced run, run it again under
    instrumentation (into a throwaway result) and book both wall times."""
    wall = unit(i, res, NullRecorder())
    if not rec.traced:
        return
    with instrument(rec):
        traced = unit(i, Result(), rec)
    res.untraced_unit_s += wall
    res.traced_unit_s += traced
    res.traced[kind] = res.traced.get(kind, 0) + 1


def kernel_round(wl: Workload, inputs: Inputs, j: int, checker: Checker, res: Result,
                 rec: Recorder | NullRecorder, built: dict[str, Any]) -> float:
    """One batch per cell and dtype through the warm packed kernel the caller
    holds, each also sorted by ``np.sort``; returns the timed total."""
    total = 0.0
    for cell in wl.cells:
        kernel = built[cell.name][1]
        for dtype in ("int64", "float64"):
            batch = inputs.batches[(cell.name, dtype)][j % BATCH_POOL]
            rec.op = f"kernel/{cell.name}/{dtype}/{j}"
            t0 = perf_counter()
            with rec.span("kernel.batch"):
                out = _attempt(kernel.run, batch)
            t1 = perf_counter()
            ref = np.sort(batch, axis=1)
            t2 = perf_counter()
            total += t1 - t0
            label = f"{cell.name}/{dtype}"
            res.kernel_s.setdefault(label, []).append(t1 - t0)
            res.npsort_s.setdefault(label, []).append(t2 - t1)
            res.batch_keys[label] = batch.size
            checker.check(f"kernel {cell.name} {dtype}", out, snake_place(ref, cell))
    return total


def _single_kind_layers(kernel: Any) -> list[tuple[str, Any]]:
    """Split each packed layer into single-kind layers: its comparator slab,
    then one layer per block-sort width.  Ops within a packed layer touch
    disjoint nodes, so applying the parts in sequence equals the whole."""
    from repro.schedule import ScheduleLayer

    empty = np.empty(0, dtype=np.intp)
    parts: list[tuple[str, Any]] = []
    for layer in kernel.layers:
        if layer.lo.size:
            parts.append(("cmp", ScheduleLayer(lo=layer.lo, hi=layer.hi, block_groups=())))
        for group in layer.block_groups:
            parts.append((f"w{group[0].shape[1]}", ScheduleLayer(empty, empty, (group,))))
    return parts


def _bytes_computed(kernel: Any, rows: int, itemsize: int) -> int:
    """Bytes a kernel pass reads and writes, from the index array sizes:
    a comparator reads and writes both keys, a block sort gathers and
    scatters every key of its block."""
    total = 0
    for layer in kernel.layers:
        total += 4 * int(layer.lo.size)
        total += sum(2 * int(nodes.size) for nodes, _ in layer.block_groups)
    return total * rows * itemsize


def kernel_split(wl: Workload, inputs: Inputs, j: int, checker: Checker, res: Result,
                 rec: Recorder, built: dict[str, Any]) -> None:
    """Traced runs only: the kernel round's batches again, each packed layer
    applied as single-kind layers through ``CompiledSchedule.apply_layer``,
    checked like ``run``.  This is not the work ``run`` does (it adds a pass
    per kind), so it stays out of the tracing overhead."""
    from repro.schedule import CompiledSchedule

    for cell, rows in zip(wl.cells, wl.rows):
        kernel = built[cell.name][1]
        parts = _single_kind_layers(kernel)
        for dtype in ("int64", "float64"):
            batch = inputs.batches[(cell.name, dtype)][j % BATCH_POOL]
            arr = np.array(batch, copy=True)
            rec.op = f"split/{cell.name}/{dtype}/{j}"
            for kind, part in parts:
                with rec.span(f"kernel.{kind}"):
                    CompiledSchedule.apply_layer(arr, part)
            if "split" not in res.traced:
                res.kernel_bytes += _bytes_computed(kernel, rows, batch.itemsize)
            checker.check(f"kernel layer split {cell.name} {dtype}", arr,
                          snake_place(np.sort(batch, axis=1), cell))
    res.traced["split"] = res.traced.get("split", 0) + 1


def _verify_serve(checker: Checker, inputs: Inputs, outcomes: list[Any]) -> list[bool]:
    return [
        checker.check(f"serve {SERVE_CELLS[o.cell].name}", o.result,
                      inputs.serve_expected[o.cell][o.key])
        for o in outcomes
    ]


@contextmanager
def _own_heap() -> Iterator[None]:
    """Collect, then hide every object alive from the collector while the
    block runs.  The other stages' objects (a 4096-key schedule holds 10^5
    op objects) are not serving's cost, and a full collection of them
    stalled the event loop for over 10 ms on a loaded host."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def serve_chunk(serve: Any, inputs: Inputs, i: int, checker: Checker, res: Result) -> None:
    """Phase A chunk ``i``: ``CHUNK_REQUESTS`` open-loop arrivals.

    A chunk whose generator lag p99 exceeds ``LAG_LIMIT_MS`` is late: the
    host stalled the generator, so the load it offered was not the seeded
    one.  Its outputs are still verified; its latencies are kept apart."""
    i %= len(inputs.due) // CHUNK_REQUESTS
    part = slice(i * CHUNK_REQUESTS, (i + 1) * CHUNK_REQUESTS)
    due = inputs.due[part]
    lag_from = len(serve.lag)
    with _own_heap():
        chunk = serve.open_chunk(due - due[0], inputs.serve_cell[part], inputs.serve_key[part])
    ok = _verify_serve(checker, inputs, chunk)
    late = np.percentile(serve.lag[lag_from:], 99) * 1e3 > LAG_LIMIT_MS
    res.chunks += 1
    res.late_chunks += int(late)
    # a failed or refused request misses every latency limit
    latency = [o.latency if good else np.inf for o, good in zip(chunk, ok)]
    (res.late_latency if late else res.serve_latency).extend(latency)


def serve_burst(serve: Any, inputs: Inputs, i: int, checker: Checker, res: Result) -> None:
    """Phase B burst ``i``: ``BURST_PER_WORKER`` requests per closed-loop worker."""
    with _own_heap():
        burst, start = serve.closed_burst(BURST_PER_WORKER, i * BURST_PER_WORKER * SERVE_WORKERS)
    ok = _verify_serve(checker, inputs, burst)
    res.burst_rps.append(sum(ok) / (max(o.done for o in burst) - start))


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


def run_workload(wl: Workload, inputs: Inputs, seconds: float, checker: Checker,
                 rec: Recorder | NullRecorder) -> Result:
    """Interleave the stages' units in their shares of ``seconds``.

    Each next unit is the one whose stage is furthest below its share, so
    every stage samples the whole run rather than one stretch of a shared
    host's speed.  The run ends when the next unit would not fit.
    """
    import serveload

    res = Result()
    built: dict[str, Any] = {}  # cell -> (sorter, kernel) of the latest cold pass
    reference = Reference()
    serve = serveload.ServeLoad([c.name for c in SERVE_CELLS], inputs.serve_pools,
                                traced=rec.traced, workers=SERVE_WORKERS)

    def pair(stage: Any, kind: str) -> Any:
        def unit(i: int, r: Result, span: Any) -> float:
            return stage(wl, inputs, i, checker, r, span, built)

        return lambda i: traced_pair(unit, i, res, rec, kind)

    def kernel(i: int) -> None:
        pair(kernel_round, "kernel")(i)
        if rec.traced:
            kernel_split(wl, inputs, i, checker, res, rec, built)

    def ref(i: int) -> None:
        res.ref_py_s.append(reference.python())
        res.ref_np_s.append(reference.numpy())

    units = {
        "cold": (wl.cold, pair(cold_pass, "cold")),
        "warm": (wl.warm, pair(warm_round, "warm")),
        "kernel": (wl.kernel, kernel),
        "serve_a": (wl.serve_a, lambda i: serve_chunk(serve, inputs, i, checker, res)),
        "serve_b": (wl.serve_b, lambda i: serve_burst(serve, inputs, i, checker, res)),
        "ref": (wl.ref, ref),
    }
    done = dict.fromkeys(units, 0)
    spent = dict.fromkeys(units, 0.0)
    last = dict.fromkeys(units, 0.0)
    start = perf_counter()
    try:
        while True:
            pending = [name for name in units if done[name] == 0]
            name = pending[0] if pending else min(units, key=lambda n: spent[n] / units[n][0])
            if not pending and perf_counter() - start + last[name] > seconds:
                break
            t0 = perf_counter()
            units[name][1](done[name])
            last[name] = perf_counter() - t0
            spent[name] += last[name]
            done[name] += 1
    finally:
        (snap_a, snap_b), res.flush_s = serve.close()
    res.snapshots = {"a": snap_a, "b": snap_b}
    res.lag = serve.lag
    _verify_serve(checker, inputs, serve.warm)
    return res


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def raw_end_to_end(res: Result) -> dict[str, float]:
    """Every compute timing is the mean of its repetitions in the run, per
    cell (and dtype), combined over the cells as each metric names.

    On a shared host a run's samples fall into a fast and a slow mode: a
    median jumps between the modes as their shares shift, a mean moves in
    proportion.  Latency stays a median (``serve_p50_ms``).
    """
    warm = [mean(v) for v in res.warm_ms.values()]
    kernel = sum(mean(v) for v in res.kernel_s.values())
    # only when every chunk was late (an invalid run) do late chunks count
    latency = res.serve_latency or res.late_latency
    p50, p99 = np.percentile(np.array(latency) * 1e3, [50, 99])
    return {
        "cold_s": sum(mean(v) for v in res.cold_s.values()),
        "call_ms_gmean": float(np.exp(np.mean(np.log(warm)))),
        "kernel_keys_per_s": sum(res.batch_keys.values()) / kernel,
        "oblivious_price_x": kernel / sum(mean(v) for v in res.npsort_s.values()),
        "serve_p50_ms": float(p50),
        "serve_p99_ms": float(p99),
        "serve_capacity_rps": mean(res.burst_rps),
        "peak_rss_mb": peak_rss_mb(),
    }


def end_to_end(res: Result) -> dict[str, float]:
    """The raw figures with the host-bound timings put at the reference's
    nominal speed: Python-bound ones (the cold path, warm calls, serving
    capacity) by the Python loop, the kernel by the NumPy loop.  Ratios to
    the same run's ``np.sort``, serving latency (set by the flusher's delay)
    and memory are left as measured."""
    py = mean(res.ref_py_s) / PY_REF_NOMINAL_S  # > 1: the host ran slow
    nump = mean(res.ref_np_s) / NP_REF_NOMINAL_S
    out = raw_end_to_end(res)
    out["cold_s"] /= py
    out["call_ms_gmean"] /= py
    out["serve_capacity_rps"] *= py
    out["kernel_keys_per_s"] *= nump
    return out


def per_layer(res: Result, rec: Recorder) -> dict[str, float]:
    """Layer self times and counts from the traced units: cold-path figures
    per cold pass, plan figures per warm round (one call per cell),
    ``sort_sequence`` figures per warm call, kernel figures per split round."""
    passes, rounds, kernel_rounds = (max(res.traced.get(k, 0), 1)
                                     for k in ("cold", "warm", "split"))
    cold = rec.self_times("cold/")
    warm = rec.self_times("warm/")
    kern = rec.self_times("split/")

    def per_pass(name: str, attr: str) -> float:
        return sum(sp.attrs.get(attr, 0) for sp in rec.find(name, "cold/")) / passes

    children: dict[int, list[Any]] = {}
    for sp in rec.spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    lookup = run = rest = 0.0
    calls = [sp for root in rec.find("warm.call") for sp in children.get(root.id, [])
             if sp.name == "sort_sequence"]
    for call in calls:
        kids = children.get(call.id, [])
        lk = sum(k.duration for k in kids if k.name in ("sorter.schedule", "plan.lookup"))
        rn = sum(k.duration for k in kids if k.name == "kernel.run")
        lookup += lk
        run += rn
        rest += call.duration - lk - rn
    n_calls = max(len(calls), 1)
    hits = [sp.duration for sp in rec.find("compiled.lookup") if sp.attrs.get("hit")]
    roots = rec.find("cold.cell") + rec.find("warm.call")
    snap_a, snap_b = res.snapshots["a"], res.snapshots["b"]
    waits = [q["queue_wait_p50_ms"] for q in snap_a.values() if q["queue_wait_p50_ms"] is not None]
    batches_b = sum(q["batches"] for q in snap_b.values())
    completed_b = sum(q["completed"] for q in snap_b.values())
    width_keys = ("w4", "w16", "w64")
    other = sum(v for k, v in kern.items() if k.startswith("kernel.w")
                and k[len("kernel."):] not in width_keys)
    return {
        "emit.s": cold.get("emit", 0.0) / passes,
        "emit.ops": per_pass("emit", "ops"),
        "ir.hash_s": cold.get("ir.hash", 0.0) / passes,
        "optimize.s": cold.get("optimize", 0.0) / passes,
        "optimize.validated": per_pass("optimize", "validated"),
        "optimize.ops_removed": per_pass("optimize", "ops_removed"),
        "compiled.build_s": cold.get("compiled.build", 0.0) / passes,
        "compiled.hit_ms": float(np.mean(hits)) * 1e3 if hits else 0.0,
        "compiled.layers": per_pass("compiled.build", "layers"),
        "plan.s2_s": warm.get("plan.s2", 0.0) / rounds,
        "plan.routing_s": warm.get("plan.routing", 0.0) / rounds,
        "sort_sequence.lookup_ms": lookup / n_calls * 1e3,
        "sort_sequence.run_ms": run / n_calls * 1e3,
        "sort_sequence.rest_ms": rest / n_calls * 1e3,
        "kernel.cmp_s": kern.get("kernel.cmp", 0.0) / kernel_rounds,
        **{f"kernel.block_{w}_s": kern.get(f"kernel.{w}", 0.0) / kernel_rounds
           for w in width_keys},
        "kernel.block_other_s": other / kernel_rounds,
        "kernel.bytes_computed": float(res.kernel_bytes),
        "serve.queue_wait_p50_ms": float(median(waits)) if waits else 0.0,
        "serve.flush_ms": float(np.mean(res.flush_s)) * 1e3 if res.flush_s else 0.0,
        "serve.batch_mean": completed_b / batches_b if batches_b else 0.0,
        "serve.batches": float(batches_b),
        "serve.rejected": float(sum(q["rejected"] for s in (snap_a, snap_b) for q in s.values())),
        "gen.lag_p99_ms": float(np.percentile(res.lag, 99)) * 1e3,
        "gen.late_chunks": float(res.late_chunks),
        "trace.overhead_pct": 100.0 * (res.traced_unit_s / res.untraced_unit_s - 1.0),
        "trace.unaccounted_pct": 100.0 * sum(sp.self_time for sp in roots)
        / max(sum(sp.duration for sp in roots), 1e-12),
    }


def warm_up() -> None:
    """Build and run one small cell through every stage's entry points,
    then drop every schedule cache."""
    from repro import schedule
    from repro.core.lattice_sort import ProductNetworkSorter

    cell = SERVE_CELLS[0]
    sorter = ProductNetworkSorter.for_factor(cell.factor(), cell.r)
    keys = np.arange(cell.keys)[::-1].copy()
    schedule.compile_schedule(sorter.schedule(), optimize=True).run(keys)
    sorter.sort_sequence(keys)
    schedule.clear_caches()
