"""Self-tests of the benchmark: seeded inputs, exact counts, failure counting.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run

run._import_repro()

import bench  # noqa: E402
from tracing import NullRecorder, Recorder  # noqa: E402

TINY = bench.Workload(
    "tiny",
    (bench.Cell("path", 3, 3), bench.Cell("k2", 2, 4)),
    rows=(4, 4),
    cold=0.2, warm=0.1, kernel=0.2, serve_a=0.25, serve_b=0.2, ref=0.05,
)


def _arrays(inputs: bench.Inputs) -> list[np.ndarray]:
    out = list(inputs.vectors.values()) + inputs.serve_pools
    out += [b for bs in inputs.batches.values() for b in bs]
    return out + [inputs.due, inputs.serve_cell, inputs.serve_key]


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_seed_determines_inputs(name: str) -> None:
    wl = bench.WORKLOADS[name]
    a, b, c = (bench.make_inputs(wl, seed, 2.0) for seed in (7, 7, 8))
    assert all(np.array_equal(x, y) for x, y in zip(_arrays(a), _arrays(b)))
    assert not any(np.array_equal(x, z) for x, z in zip(_arrays(a), _arrays(c)))


def test_same_seed_gives_identical_exact_counts() -> None:
    counts = []
    for _ in range(2):
        checker, rec = bench.Checker(), Recorder()
        res = bench.run_workload(TINY, bench.make_inputs(TINY, 3, 1.0), 1.0, checker, rec)
        layer = bench.per_layer(res, rec)
        assert checker.failed == 0, checker.reasons
        counts.append({k: layer[k] for k in ("emit.ops", "compiled.layers", "optimize.validated",
                                             "optimize.ops_removed", "kernel.bytes_computed")})
    assert counts[0] == counts[1]
    assert counts[0]["emit.ops"] > 0 and counts[0]["compiled.layers"] > 0
    # both small cells are certified by the optimizer
    assert counts[0]["optimize.validated"] == 2


def test_wrong_outputs_are_counted_as_failures() -> None:
    from repro.schedule import compile_schedule, emit_lattice_schedule
    from repro.graphs.library import path_graph

    cell = bench.Cell("path", 3, 3)
    kernel = compile_schedule(emit_lattice_schedule(path_graph(3), 3, 1, 1))
    keys = bench.make_inputs(TINY, 5, 1.0).vectors[cell.name][0]
    expected = bench.snake_expected(keys, cell)

    dropped = copy.copy(kernel)
    # the schedule tolerates losing some single layers on some inputs, so drop
    # the whole second half: that output is certainly wrong
    dropped.layers = kernel.layers[: kernel.num_layers // 2]
    checker = bench.Checker()
    assert checker.check("good", kernel.run(keys), expected)
    assert not checker.check("layer dropped", dropped.run(keys), expected)
    assert not checker.check("wrong dtype", kernel.run(keys).astype(np.float64), expected)
    assert not checker.check("raised", ValueError("boom"), expected)
    assert (checker.attempted, checker.failed) == (4, 3)


def test_layer_split_matches_run() -> None:
    from repro.schedule import CompiledSchedule, compile_schedule, emit_lattice_schedule
    from repro.graphs.library import k2

    kernel = compile_schedule(emit_lattice_schedule(k2(), 6, 1, 1), optimize=True)
    batch = np.random.default_rng(0).integers(0, 1000, size=(3, 64))
    arr = batch.copy()
    parts = bench._single_kind_layers(kernel)
    assert {kind for kind, _ in parts} == {"cmp", "w4"}
    for _, part in parts:
        CompiledSchedule.apply_layer(arr, part)
    assert np.array_equal(arr, kernel.run(batch))


def test_host_bound_timings_follow_the_reference() -> None:
    checker = bench.Checker()
    res = bench.run_workload(TINY, bench.make_inputs(TINY, 2, 1.0), 1.0, checker, NullRecorder())
    assert checker.failed == 0, checker.reasons
    assert res.ref_py_s and res.ref_np_s
    before, raw_before = bench.end_to_end(res), bench.raw_end_to_end(res)
    # the same run on a host twice as slow: every unit and reference loop
    # takes twice as long, so only the raw figures move
    for samples in (res.cold_s, res.warm_ms, res.kernel_s, res.npsort_s):
        for v in samples.values():
            v[:] = [2 * x for x in v]
    res.burst_rps[:] = [x / 2 for x in res.burst_rps]
    res.ref_py_s[:] = [2 * x for x in res.ref_py_s]
    res.ref_np_s[:] = [2 * x for x in res.ref_np_s]
    after = bench.end_to_end(res)
    for name in ("cold_s", "call_ms_gmean", "kernel_keys_per_s", "serve_capacity_rps",
                 "oblivious_price_x"):
        assert after[name] == pytest.approx(before[name])
    assert bench.raw_end_to_end(res)["cold_s"] == pytest.approx(2 * raw_before["cold_s"])


def test_self_time_excludes_children() -> None:
    rec = Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            sum(range(10000))
    outer, inner = rec.find("outer")[0], rec.find("inner")[0]
    assert inner.parent == outer.id
    assert outer.self_time == pytest.approx(outer.duration - inner.duration)


def test_serve_counts_rejections(monkeypatch: pytest.MonkeyPatch) -> None:
    from repro.serve import ServiceConfig

    # a one-deep queue sheds most of the closed loop's 16 workers per cell
    small = replace(ServiceConfig(), max_queue_depth=1, optimize=True)
    monkeypatch.setattr("repro.serve.ServiceConfig", lambda **kw: small)
    checker = bench.Checker()
    bench.run_workload(TINY, bench.make_inputs(TINY, 1, 1.0), 1.0, checker, NullRecorder())
    assert checker.failed > 0
    assert any("Rejected" in reason for reason in checker.reasons)


def test_late_chunk_is_verified_but_kept_out_of_latency() -> None:
    import serveload

    inputs = bench.make_inputs(TINY, 4, 1.0)

    class Served:
        """Answers every request correctly after a fixed generator lag."""

        def __init__(self, lag_s: float) -> None:
            self.lag: list[float] = []
            self.lag_s = lag_s

        def open_chunk(self, due: np.ndarray, cells: np.ndarray,
                       keys: np.ndarray) -> list[serveload.Outcome]:
            self.lag += [self.lag_s] * len(due)
            return [serveload.Outcome(int(c), int(k), inputs.serve_expected[c][k], latency=0.003)
                    for c, k in zip(cells, keys)]

    checker, res = bench.Checker(), bench.Result()
    bench.serve_chunk(Served(0.0005), inputs, 0, checker, res)
    bench.serve_chunk(Served(0.05), inputs, 1, checker, res)
    assert (res.chunks, res.late_chunks) == (2, 1)
    assert len(res.serve_latency) == len(res.late_latency) == bench.CHUNK_REQUESTS
    assert (checker.attempted, checker.failed) == (2 * bench.CHUNK_REQUESTS, 0)


def test_setup_only_times_one_setup() -> None:
    proc = subprocess.run(
        [sys.executable, run.__file__, "--workload", "serve-open", "--seed", "1",
         "--seconds", "1", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    setup = json.loads(proc.stdout.splitlines()[-1])
    assert 0 < setup["raw_s"] < 60 and setup["ref_s"] > 0
    assert setup["setup_s"] == pytest.approx(
        setup["raw_s"] * bench.PY_REF_NOMINAL_S / setup["ref_s"])


def test_bare_directory_fails_without_result(tmp_path: Path) -> None:
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-open", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    with pytest.raises((json.JSONDecodeError, IndexError)):
        json.loads(proc.stdout.splitlines()[-1])
