"""Tests for compiled-path observability: profiler, caches, /metrics.

Pins the tentpole contracts of the kernel-profiler PR:

* profiling never changes results (profiled output == bare output == snake
  ground truth) and costs ~nothing when disabled;
* percentiles derived from histogram buckets are the Prometheus
  interpolation, verified on known samples;
* the schedule caches account hits/misses/build time correctly and are
  resettable for test isolation (``clear_caches`` + the fixture);
* the live HTTP endpoint serves valid exposition text carrying
  ``repro_compiled_run_seconds`` and the cache counters after one profiled
  run.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.core.lattice_sort import ProductNetworkSorter
from repro.graphs.library import k2
from repro.observability.cachestats import CacheStats, all_cache_stats, publish_cache_metrics
from repro.observability.httpexpo import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsServer,
    build_metrics_server,
)
from repro.observability.kernelprof import (
    KernelProfiler,
    profile_cell,
    profile_chrome_trace,
    render_profile,
    resolve_profile_cell,
)
from repro.observability.metrics import Histogram, MetricsRegistry, quantile_from_buckets
from repro.schedule import (
    CompiledSchedule,
    cache_stats,
    clear_caches,
    compile_schedule,
    get_profiler,
    snake_order_nodes,
)
from repro.staticcheck import emit_schedule


def _kernel(key: str = "path-n3-r3", packed: bool = True):
    cell = resolve_profile_cell(key)
    dag = emit_schedule(cell.build_factor(), cell.r, backend=cell.backend)
    return compile_schedule(dag, packed=packed), dag


class TestKernelProfiler:
    def test_profiled_output_matches_bare_and_ground_truth(self, rng):
        kernel, dag = _kernel()
        keys = rng.integers(0, 2**31, size=(32, dag.num_nodes))
        expected = np.empty_like(keys)
        expected[:, snake_order_nodes(dag.n, dag.r)] = np.sort(keys, axis=1)
        profiler = KernelProfiler()
        out, profile = profiler.run(kernel, keys)
        assert np.array_equal(out, expected)
        assert np.array_equal(out, kernel.run(keys))
        assert profile.batch == 32 and profile.num_nodes == dag.num_nodes
        assert profile.keys == 32 * dag.num_nodes

    def test_profiler_times_the_layout_run_executes(self, rng, monkeypatch):
        # k2-n2-r6 at batch 256 lowers some width-4 groups, so the lowered
        # stages are profiled too; every layer, profiled or not, must see the
        # .T view of run's C-contiguous node-major work array
        dag = ProductNetworkSorter.for_factor(k2(), 6).schedule()
        kernel = compile_schedule(dag)
        keys = rng.integers(0, 2**31, size=(256, dag.num_nodes))
        node_major = []
        original = CompiledSchedule.apply_layer

        def spy(arr, layer):
            node_major.append(arr.T.flags.c_contiguous)
            original(arr, layer)

        monkeypatch.setattr(CompiledSchedule, "apply_layer", staticmethod(spy))
        bare = kernel.run(keys)
        with KernelProfiler() as hooked:
            assert np.array_equal(kernel.run(keys), bare)
        out, profile = KernelProfiler().run(kernel, keys)
        assert np.array_equal(out, bare) and out.flags.c_contiguous
        assert node_major == [True] * (3 * kernel.num_layers)
        assert len(hooked.last_profile.layers) == len(profile.layers) == kernel.num_layers

    def test_per_layer_accounting(self, rng):
        kernel, dag = _kernel()
        keys = rng.integers(0, 2**31, size=(8, dag.num_nodes))
        _, profile = KernelProfiler().run(kernel, keys)
        assert len(profile.layers) == kernel.num_layers
        assert all(layer.wall_ns > 0 for layer in profile.layers)
        assert profile.op_count == sum(layer.op_count for layer in kernel.layers)
        # occupancy: comparator-slot utilisation against floor(N/2) slots
        slots = dag.num_nodes // 2
        for layer in profile.layers:
            assert layer.occupancy == pytest.approx(layer.nodes_touched / 2 / slots)
            assert 0 < layer.occupancy <= dag.num_nodes / 2 / slots
            assert layer.bytes_touched == 2 * 8 * layer.nodes_touched * keys.itemsize
        assert profile.wall_ns >= sum(layer.wall_ns for layer in profile.layers)
        assert 0 < profile.keys_per_s < float("inf")

    def test_registry_instruments_populated(self, rng):
        kernel, dag = _kernel()
        registry = MetricsRegistry()
        profiler = KernelProfiler(registry=registry)
        keys = rng.integers(0, 2**31, size=(4, dag.num_nodes))
        profiler.run(kernel, keys)
        profiler.run(kernel, keys)
        assert registry.counter("repro_compiled_keys_total").value(cell=kernel.cell) == (
            2 * 4 * dag.num_nodes
        )
        series = registry.histogram("repro_compiled_run_seconds").snapshot_series(
            cell=kernel.cell, packed="packed"
        )
        assert series["count"] == 2
        text = registry.expose_text()
        assert "repro_compiled_run_seconds_bucket" in text
        assert 'packed="packed"' in text

    def test_install_routes_compiled_runs_through_the_profiler(self, rng):
        kernel, dag = _kernel()
        keys = rng.integers(0, 2**31, size=dag.num_nodes)
        profiler = KernelProfiler()
        assert get_profiler() is None
        with profiler:
            assert get_profiler() is profiler
            out = kernel.run(keys)  # 1-D input: squeeze path through the hook
        assert get_profiler() is None
        assert profiler.last_profile is not None
        assert profiler.last_profile.batch == 1
        assert out.shape == keys.shape
        # history capped by maxlen, newest kept
        assert profiler.history[-1] is profiler.last_profile

    def test_disabled_profiler_overhead_is_noise(self, rng):
        """The near-zero-overhead contract: with a profiler installed but
        disabled, ``run`` takes one extra attribute check — bounded here at
        2x the bare path plus absolute slack, both generous against timer
        jitter."""
        kernel, dag = _kernel()
        keys = rng.integers(0, 2**31, size=(64, dag.num_nodes))
        kernel.run(keys)  # warm

        def best_of(n: int) -> float:
            best = float("inf")
            for _ in range(n):
                t0 = time.perf_counter()
                kernel.run(keys)
                best = min(best, time.perf_counter() - t0)
            return best

        bare = best_of(20)
        profiler = KernelProfiler(enabled=False)
        with profiler:
            disabled = best_of(20)
        assert profiler.last_profile is None  # disabled = no capture
        assert disabled <= bare * 2.0 + 5e-4, (bare, disabled)

    def test_tracer_spans_and_chrome_export(self, rng):
        from repro.observability import Tracer, chrome_trace_json

        kernel, dag = _kernel()
        tracer = Tracer()
        profiler = KernelProfiler(tracer=tracer)
        profiler.run(kernel, rng.integers(0, 100, size=(2, dag.num_nodes)))
        assert tracer.count("compiled-run", kind="kernel") == 1
        assert tracer.count("kernel-layer", kind="kernel") == kernel.num_layers
        events = json.loads(chrome_trace_json(tracer))["traceEvents"]
        assert any(e.get("name") == "kernel-layer" and e["ph"] == "X" for e in events)

    def test_quantiles_from_profiler_histogram(self, rng):
        kernel, dag = _kernel()
        profiler = KernelProfiler()
        keys = rng.integers(0, 2**31, size=(4, dag.num_nodes))
        for _ in range(5):
            profiler.run(kernel, keys)
        pct = profiler.percentiles(kernel.cell, packed=True)
        assert 0 < pct["p50"] <= pct["p99"]
        # unprofiled plan/cell: NaN, not a crash
        assert np.isnan(profiler.run_quantile(0.5, "no-such-cell"))


class TestHistogramQuantiles:
    def test_known_samples_interpolate_exactly(self):
        h = Histogram("t_seconds", buckets=(1.0, 2.0, 4.0, 8.0))
        for v in (0.5, 1.5, 3.0, 7.0):
            h.observe(v)
        # target rank 2 of 4 lands at the top of the (1, 2] bucket
        assert h.quantile(0.5) == pytest.approx(2.0)
        assert h.quantile(0.25) == pytest.approx(1.0)
        assert h.quantile(1.0) == pytest.approx(8.0)
        assert h.quantile(0.0) == pytest.approx(0.0)

    def test_uniform_samples_match_numpy_percentile_roughly(self):
        h = Histogram("u_seconds", buckets=tuple(float(b) for b in range(1, 101)))
        values = list(range(1, 101))
        for v in values:
            h.observe(v)
        # exact on bucket edges: every value is its own bucket upper bound
        assert h.quantile(0.5) == pytest.approx(50.0)
        assert h.quantile(0.99) == pytest.approx(99.0)

    def test_overflow_and_empty_series(self):
        h = Histogram("o_seconds", buckets=(1.0, 2.0))
        assert np.isnan(h.quantile(0.5))
        h.observe(100.0)  # lands in +Inf
        assert h.quantile(0.99) == pytest.approx(2.0)  # largest finite bound
        with pytest.raises(ValueError, match="quantile"):
            quantile_from_buckets((1.0,), [1], 1.5)

    def test_labelled_series_are_independent(self):
        h = Histogram("l_seconds", buckets=(1.0, 2.0, 4.0))
        h.observe(0.5, cell="a")
        h.observe(3.5, cell="b")
        assert h.quantile(0.5, cell="a") <= 1.0
        assert h.quantile(0.5, cell="b") > 2.0
        assert np.isnan(h.quantile(0.5, cell="c"))


class TestCacheStats:
    def test_hit_miss_accounting_across_compiles(self, schedule_caches):
        _, dag = _kernel()  # compiles the packed plan once: 1 miss
        before = cache_stats()["compiled-kernels"]
        k1 = compile_schedule(dag)
        k2 = compile_schedule(dag)
        k3 = compile_schedule(dag, packed=False)
        assert k1 is k2 and k1 is not k3
        after = cache_stats()["compiled-kernels"]
        assert after["misses"] == before["misses"] + 1  # the per-round plan
        assert after["hits"] == before["hits"] + 2
        assert after["size"] == 2
        assert after["build_seconds"] > 0
        assert 0 < after["hit_rate"] < 1

    def test_emission_caches_account_hits(self, schedule_caches):
        cell = resolve_profile_cell("path-n3-r3")
        emit_schedule(cell.build_factor(), cell.r, backend=cell.backend)
        emit_schedule(cell.build_factor(), cell.r, backend=cell.backend)
        snap = cache_stats()["lattice-emission"]
        assert snap["misses"] == 1 and snap["hits"] == 1 and snap["size"] == 1

    def test_clear_caches_resets_everything(self, schedule_caches):
        _, dag = _kernel()
        compile_schedule(dag)
        clear_caches()
        for snap in cache_stats().values():
            assert snap["lookups"] == 0 and snap["size"] == 0
            assert snap["build_seconds"] == 0.0

    def test_publish_cache_metrics_is_idempotent(self, schedule_caches):
        _, dag = _kernel()  # 1 miss
        compile_schedule(dag)
        compile_schedule(dag)  # 2 hits
        registry = MetricsRegistry()
        publish_cache_metrics(registry)
        publish_cache_metrics(registry)  # second publish must not double-count
        hits = registry.counter("repro_schedule_cache_hits_total")
        misses = registry.counter("repro_schedule_cache_misses_total")
        assert hits.value(cache="compiled-kernels") == 2
        assert misses.value(cache="compiled-kernels") == 1
        assert registry.gauge("repro_schedule_cache_size").value(cache="compiled-kernels") == 1
        # a reset between publishes clamps deltas at zero (counters stay put)
        clear_caches()
        publish_cache_metrics(registry)
        assert hits.value(cache="compiled-kernels") == 2

    def test_standalone_cachestats_registry(self):
        stats = CacheStats("test-standalone", size_fn=lambda: 7)
        stats.record_miss(0.25)
        stats.record_hit()
        stats.record_hit()
        snap = all_cache_stats()["test-standalone"]
        assert snap["hits"] == 2 and snap["misses"] == 1 and snap["size"] == 7
        assert snap["hit_rate"] == pytest.approx(2 / 3)
        assert snap["build_seconds"] == pytest.approx(0.25)


class TestProfileCell:
    def test_sweep_covers_both_plans_and_batches(self):
        doc = profile_cell("path-n3-r3", batches=(1, 8), runs=2, seed=0)
        assert doc["cell"] == "path-n3-r3-lattice"
        assert [p["plan"] for p in doc["plans"]] == ["packed", "per-round"]
        for plan in doc["plans"]:
            assert [b["batch"] for b in plan["batches"]] == [1, 8]
            assert plan["layers"] == len(plan["batches"][0]["per_layer"])
            assert 0 < plan["mean_occupancy"] <= plan["max_occupancy"]
            for point in plan["batches"]:
                assert point["keys_per_s"] > 0
                assert point["wall_s"]["min"] <= point["wall_s"]["p50"]

    def test_full_benchreg_key_and_unknown_cell(self):
        assert resolve_profile_cell("path-n3-r3-lattice").key == "path-n3-r3-lattice"
        assert resolve_profile_cell("k2-n2-r4-machine").backend == "machine"
        with pytest.raises(ValueError, match="unknown profile cell"):
            profile_cell("torus-n9-r9")

    def test_render_profile_has_tables_and_heatmap(self):
        doc = profile_cell("path-n3-r3", batches=(4,), runs=2, seed=0)
        text = render_profile(doc)
        assert "packed plan" in text and "per-round plan" in text
        assert "occupancy by layer" in text and "L0" in text
        assert "keys/s" in text

    def test_chrome_trace_export(self):
        events = json.loads(profile_chrome_trace("path-n3-r3", batch=4))["traceEvents"]
        assert any(e.get("name") == "kernel-layer" for e in events)

    def test_cli_profile_json(self, capsys):
        assert main(["profile", "--cell", "path-n3-r3", "--batch", "8", "--runs",
                     "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {p["plan"] for p in doc["plans"]} == {"packed", "per-round"}
        point = doc["plans"][0]["batches"][0]
        assert point["per_layer"] and point["keys_per_s"] > 0

    def test_cli_profile_unknown_cell_exits_2(self, capsys):
        assert main(["profile", "--cell", "moebius-n9-r9", "--json"]) == 2
        assert "unknown profile cell" in capsys.readouterr().err


class TestMetricsEndpoint:
    def test_metrics_healthz_snapshot_and_404(self, schedule_caches):
        server = build_metrics_server(cell="path-n3-r3", batch=8, runs=2)
        with server:
            with urllib.request.urlopen(server.url("/metrics"), timeout=10) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
                text = resp.read().decode()
            # valid exposition shape: TYPE lines and samples for our metrics
            assert "# TYPE repro_compiled_run_seconds histogram" in text
            assert "repro_compiled_run_seconds_bucket" in text
            assert 'le="+Inf"' in text
            assert "repro_compiled_keys_total" in text
            assert "repro_schedule_cache_hits_total" in text
            assert "repro_schedule_cache_misses_total" in text
            with urllib.request.urlopen(server.url("/healthz"), timeout=10) as resp:
                assert resp.read() == b"ok\n"
            with urllib.request.urlopen(server.url("/snapshot.json"), timeout=10) as resp:
                snap = json.loads(resp.read())
            assert "repro_compiled_run_seconds" in snap["metrics"]
            assert "compiled-kernels" in snap["caches"]
            assert snap["last_profile"]["batch"] == 8
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url("/nope"), timeout=10)
            assert err.value.code == 404

    def test_exposition_parses_line_by_line(self, schedule_caches):
        server = build_metrics_server(cell="path-n3-r3", batch=4, runs=1)
        with server:
            text = urllib.request.urlopen(server.url("/metrics"), timeout=10).read().decode()
        for line in text.splitlines():
            assert line, "no blank lines in exposition"
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                name_part, value = line.rsplit(" ", 1)
                float(value)  # every sample value is a number
                assert name_part[0].isalpha()

    def test_scrape_refreshes_cache_counters(self, schedule_caches):
        server = build_metrics_server(cell="path-n3-r3", batch=4, runs=1)
        with server:
            first = urllib.request.urlopen(server.url("/metrics"), timeout=10).read().decode()
            _kernel("k2-n2-r4")  # new compile between scrapes
            second = urllib.request.urlopen(server.url("/metrics"), timeout=10).read().decode()

        def misses(text: str) -> float:
            for line in text.splitlines():
                if line.startswith("repro_schedule_cache_misses_total") and "compiled" in line:
                    return float(line.rsplit(" ", 1)[1])
            raise AssertionError("cache miss sample not exposed")

        assert misses(second) == misses(first) + 1

    def test_ephemeral_port_and_plain_server(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "test").inc(3)
        with MetricsServer(registry) as server:
            assert server.port > 0
            text = urllib.request.urlopen(server.url("/metrics"), timeout=10).read().decode()
        assert "x_total 3" in text


class TestHttpRoutesAndShutdown:
    """Satellite: proper 404/405, extra handlers, graceful shutdown."""

    def test_404_names_the_known_endpoints(self):
        registry = MetricsRegistry()
        with MetricsServer(registry) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url("/definitely-not-here"), timeout=10)
            assert err.value.code == 404
            assert err.value.headers["Content-Type"].startswith("text/plain")
            body = err.value.read().decode()
            for path in ("/metrics", "/healthz", "/snapshot.json"):
                assert path in body

    def test_wrong_method_is_405_with_allow_header(self):
        registry = MetricsRegistry()
        with MetricsServer(registry) as server:
            request = urllib.request.Request(
                server.url("/metrics"), data=b"{}", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 405
            assert err.value.headers["Allow"] == "GET"

    def test_custom_handlers_mount_and_appear_in_404(self):
        registry = MetricsRegistry()

        def echo(payload: bytes):
            return 200, "application/json", json.dumps({"len": len(payload)}).encode()

        with MetricsServer(registry, handlers={("POST", "/echo"): echo}) as server:
            request = urllib.request.Request(server.url("/echo"), data=b"12345", method="POST")
            with urllib.request.urlopen(request, timeout=10) as resp:
                assert json.loads(resp.read()) == {"len": 5}
            # GET on a POST-only route: 405 advertising POST
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url("/echo"), timeout=10)
            assert err.value.code == 405
            assert err.value.headers["Allow"] == "POST"
            # the 404 body advertises the mounted route
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url("/nope"), timeout=10)
            assert "/echo" in err.value.read().decode()

    def test_handler_exception_is_a_500_not_a_dead_thread(self):
        registry = MetricsRegistry()

        def broken(payload: bytes):
            raise RuntimeError("handler bug")

        with MetricsServer(registry, handlers={("GET", "/broken"): broken}) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url("/broken"), timeout=10)
            assert err.value.code == 500
            # the serving thread survived: /healthz still answers
            with urllib.request.urlopen(server.url("/healthz"), timeout=10) as resp:
                assert resp.read() == b"ok\n"

    def test_run_blocking_exits_on_request_shutdown(self):
        """The graceful-shutdown path: serve, request shutdown from another
        thread, and come back with the socket closed and thread joined."""
        import socket
        import threading

        registry = MetricsRegistry()
        registry.counter("x_total", "test").inc(1)
        server = MetricsServer(registry)
        port = server.port
        scraped: list[str] = []

        def shut_down_after_scrape():
            scraped.append(
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=10
                ).read().decode()
            )
            server.request_shutdown()

        trigger = threading.Timer(0.05, shut_down_after_scrape)
        trigger.start()
        try:
            # off-main-thread signal installation is skipped automatically,
            # so this is safe to exercise directly in-process
            server.run_blocking(install_signal_handlers=False)
        finally:
            trigger.cancel()
        assert scraped and "x_total 1" in scraped[0]
        # listening socket is really closed: a fresh connect is refused
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
