"""Tests for the serving layer: micro-batched service, front-end, loadgen.

Covers deadline-aware micro-batching (flush on ``max_batch`` or
``max_delay_ms``), admission control and explicit backpressure under
overload (arrival rate > service rate, no deadlock), snake-order
correctness of every response, the ``repro_serve_*`` telemetry and
``kind="serve"`` span discipline, the HTTP front-end mounted on the
metrics server, the open-loop load generator, and the ``repro serve`` /
``repro loadgen`` CLI surface.
"""

from __future__ import annotations

import asyncio
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer
from repro.schedule import snake_order_nodes
from repro.serve import (
    ARRIVALS,
    MIXES,
    LoadScenario,
    Rejected,
    ServiceConfig,
    SortService,
    arrival_offsets,
    build_sort_server,
    default_scenarios,
    make_keys,
    run_loadgen,
)

CELL = "path-n3-r3"
WIDTH = 27  # 3**3 nodes


def _expected(row: np.ndarray) -> np.ndarray:
    out = np.empty_like(row)
    out[snake_order_nodes(3, 3)] = np.sort(row)
    return out


def _run(coro):
    return asyncio.run(coro)


class TestServiceConfig:
    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.max_batch >= 1 and config.max_queue_depth >= 1
        assert config.to_json()["max_batch"] == config.max_batch

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_delay_ms": -1.0},
            {"max_queue_depth": 0},
            {"deadline_ms": 0.0},
            {"flush_penalty_s": -0.1},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)


class TestSortService:
    def test_single_request_sorts_to_snake_order(self, rng):
        async def scenario():
            async with SortService(ServiceConfig(max_delay_ms=0.5)) as service:
                keys = rng.integers(0, 1000, WIDTH)
                out = await service.submit(CELL, keys)
                assert np.array_equal(out, _expected(keys))

        _run(scenario())

    def test_optimized_service_serves_the_same_snake_order(self, rng):
        # opt-in certified-optimizer kernels: fewer layers, same answers
        async def scenario():
            config = ServiceConfig(max_delay_ms=0.5, optimize=True)
            assert config.to_json()["optimize"] is True
            async with SortService(config) as service:
                service.prewarm(CELL)
                keys = rng.integers(0, 1000, WIDTH)
                out = await service.submit(CELL, keys)
                assert np.array_equal(out, _expected(keys))

        _run(scenario())

    def test_full_batch_flushes_without_waiting_for_the_deadline(self, rng):
        """max_batch requests coalesce into exactly one kernel flush."""
        registry = MetricsRegistry()
        config = ServiceConfig(max_batch=8, max_delay_ms=10_000.0)

        async def scenario():
            async with SortService(config, registry=registry) as service:
                rows = [rng.integers(0, 1000, WIDTH) for _ in range(8)]
                outs = await asyncio.wait_for(
                    asyncio.gather(*(service.submit(CELL, row) for row in rows)),
                    timeout=5.0,  # far below max_delay: only max_batch can flush it
                )
                for row, out in zip(rows, outs):
                    assert np.array_equal(out, _expected(row))
                return service.queues_snapshot()

        snapshot = _run(scenario())
        (queue,) = snapshot.values()
        assert queue["batches"] == 1
        assert queue["completed"] == 8
        assert queue["mean_batch_occupancy"] == pytest.approx(1.0)

    def test_partial_batch_flushes_at_the_deadline(self, rng):
        """A lone request completes after ~max_delay even below max_batch."""

        async def scenario():
            async with SortService(ServiceConfig(max_batch=64, max_delay_ms=5.0)) as service:
                out = await asyncio.wait_for(
                    service.submit(CELL, rng.integers(0, 1000, WIDTH)), timeout=5.0
                )
                assert out.shape == (WIDTH,)
                return service.queues_snapshot()

        snapshot = _run(scenario())
        (queue,) = snapshot.values()
        assert queue["batches"] == 1
        assert queue["mean_batch_occupancy"] < 1.0

    def test_wrong_width_raises_value_error(self):
        async def scenario():
            async with SortService() as service:
                with pytest.raises(ValueError, match="27-key vectors"):
                    await service.submit(CELL, np.arange(5))

        _run(scenario())

    def test_mixed_dtype_batch_keeps_each_request_exact(self, rng):
        """An int64 request beyond float64's exact range shares a micro-batch
        with a float64 request: neither is promoted by its neighbour."""
        config = ServiceConfig(max_batch=3, max_delay_ms=10_000.0)
        big = 2**62 + np.arange(WIDTH, dtype=np.int64)[::-1].copy()
        floats = rng.random(WIDTH)
        small = rng.integers(0, 1000, WIDTH).astype(np.int64)

        async def scenario():
            async with SortService(config) as service:
                outs = await asyncio.wait_for(
                    asyncio.gather(*(service.submit(CELL, k) for k in (big, floats, small))),
                    timeout=5.0,
                )
                return outs, service.queues_snapshot()

        outs, snapshot = _run(scenario())
        assert next(iter(snapshot.values()))["batches"] == 1  # one shared micro-batch
        for keys, out in zip((big, floats, small), outs):
            assert out.dtype == keys.dtype
            assert np.array_equal(out, _expected(keys))

    def test_nan_request_rejected_before_it_can_fail_its_batch(self, rng):
        config = ServiceConfig(max_batch=2, max_delay_ms=50.0)
        bad = rng.random(WIDTH)
        bad[4] = np.nan
        good = rng.random(WIDTH)
        good[0] = np.inf

        async def scenario():
            async with SortService(config) as service:
                with pytest.raises(ValueError, match="NaN"):
                    await service.submit(CELL, bad)
                out = await asyncio.wait_for(service.submit(CELL, good), timeout=5.0)
                return out, service.queues_snapshot()

        out, snapshot = _run(scenario())
        assert np.array_equal(out, _expected(good))  # ±inf stays accepted
        (queue,) = snapshot.values()
        assert queue["completed"] == 1 and queue["batches"] == 1

    def test_unknown_cell_raises_value_error(self):
        async def scenario():
            async with SortService() as service:
                with pytest.raises(ValueError, match="unknown profile cell"):
                    await service.submit("moebius-n9-r9", np.arange(WIDTH))

        _run(scenario())

    def test_overload_sheds_explicitly_without_deadlock(self, rng):
        """Arrival rate >> service rate: excess requests get Rejected with a
        counted reason; admitted requests still complete; nothing hangs."""
        registry = MetricsRegistry()
        config = ServiceConfig(
            max_batch=4, max_delay_ms=0.5, max_queue_depth=6, flush_penalty_s=0.05
        )

        async def scenario():
            async with SortService(config, registry=registry) as service:
                rows = [rng.integers(0, 1000, WIDTH) for _ in range(40)]
                results = await asyncio.wait_for(
                    asyncio.gather(
                        *(service.submit(CELL, row) for row in rows),
                        return_exceptions=True,
                    ),
                    timeout=10.0,
                )
                completed = [
                    (row, out)
                    for row, out in zip(rows, results)
                    if not isinstance(out, BaseException)
                ]
                rejected = [r for r in results if isinstance(r, Rejected)]
                unexpected = [
                    r
                    for r in results
                    if isinstance(r, BaseException) and not isinstance(r, Rejected)
                ]
                assert not unexpected
                assert rejected, "overload must shed"
                assert completed, "admitted requests must still complete"
                assert all(r.reason == "queue_full" for r in rejected)
                for row, out in completed:
                    assert np.array_equal(out, _expected(row))
                return len(rejected), service.queues_snapshot()

        shed, snapshot = _run(scenario())
        (queue,) = snapshot.values()
        assert queue["rejected"] == shed
        assert queue["completed"] + queue["rejected"] == 40
        # rejections are visible on the exposition surface too
        text = registry.expose_text()
        assert 'repro_serve_rejections_total{cell="path(3)-n3-r3",reason="queue_full"}' in text

    def test_closed_service_rejects_with_shutting_down(self, rng):
        async def scenario():
            service = SortService()
            async with service:
                await service.submit(CELL, rng.integers(0, 1000, WIDTH))
            with pytest.raises(Rejected) as excinfo:
                await service.submit(CELL, rng.integers(0, 1000, WIDTH))
            assert excinfo.value.reason == "shutting_down"

        _run(scenario())

    def test_cell_name_aliases_share_one_queue(self, rng):
        async def scenario():
            async with SortService(ServiceConfig(max_delay_ms=0.5)) as service:
                await service.submit("path-n3-r3", rng.integers(0, 1000, WIDTH))
                await service.submit("path-n3-r3-lattice", rng.integers(0, 1000, WIDTH))
                assert service.cells == ("path(3)-n3-r3",)
                return service.queues_snapshot()

        snapshot = _run(scenario())
        assert snapshot["path(3)-n3-r3"]["completed"] == 2

    def test_deadline_misses_are_counted(self, rng):
        config = ServiceConfig(max_delay_ms=5.0, deadline_ms=0.001)

        async def scenario():
            async with SortService(config) as service:
                await service.submit(CELL, rng.integers(0, 1000, WIDTH))
                return service.queues_snapshot()

        snapshot = _run(scenario())
        assert snapshot["path(3)-n3-r3"]["deadline_misses"] == 1

    def test_serve_metrics_reach_the_exposition_surface(self, rng):
        registry = MetricsRegistry()

        async def scenario():
            async with SortService(ServiceConfig(max_delay_ms=0.5), registry=registry) as service:
                await service.submit(CELL, rng.integers(0, 1000, WIDTH))

        _run(scenario())
        text = registry.expose_text()
        for name in (
            "repro_serve_queue_depth",
            "repro_serve_batch_occupancy",
            "repro_serve_request_seconds",
            "repro_serve_requests_total",
            "repro_serve_batches_total",
        ):
            assert name in text, name
        # latency quantiles derive from the histogram buckets
        hist = registry.histogram("repro_serve_request_seconds", "")
        assert hist.quantile(0.99, cell="path(3)-n3-r3") > 0

    def test_serve_spans_nest_and_carry_kind_serve(self, rng):
        tracer = Tracer()

        async def scenario():
            async with SortService(
                ServiceConfig(max_batch=4, max_delay_ms=0.5), tracer=tracer
            ) as service:
                rows = [rng.integers(0, 1000, WIDTH) for _ in range(6)]
                await asyncio.gather(*(service.submit(CELL, row) for row in rows))

        _run(scenario())  # out-of-order span closes would have raised
        flushes = [s for s in tracer.iter_spans() if s.name == "serve-flush"]
        kernels = [s for s in tracer.iter_spans() if s.name == "serve-kernel"]
        assert flushes and kernels
        assert all(s.kind == "serve" for s in flushes + kernels)
        # every kernel span is a child of a flush span (arrival -> flush ->
        # kernel is reconstructable from the tree + point events)
        flush_ids = {s.span_id for s in flushes}
        assert all(k.parent_id in flush_ids for k in kernels)
        assert sum(s.attrs["batch"] for s in flushes) == 6

    def test_queues_snapshot_is_json_safe_before_any_traffic(self):
        async def scenario():
            async with SortService() as service:
                service.prewarm(CELL)
                return service.queues_snapshot()

        snapshot = _run(scenario())
        (queue,) = snapshot.values()
        assert queue["p50_ms"] is None and queue["p99_ms"] is None
        json.dumps(snapshot)  # no NaN leaks


class TestLoadgenPrimitives:
    def test_poisson_offsets_are_increasing_at_the_requested_rate(self, rng):
        scenario = LoadScenario(rate=1000.0, requests=4000, arrivals="poisson")
        offsets = arrival_offsets(scenario, rng)
        assert offsets.shape == (4000,)
        assert np.all(np.diff(offsets) >= 0)
        # mean gap ~ 1/rate (law of large numbers, generous tolerance)
        assert np.mean(np.diff(offsets)) == pytest.approx(1e-3, rel=0.25)

    def test_burst_offsets_alternate_fast_and_slow_windows(self, rng):
        scenario = LoadScenario(
            rate=1000.0, requests=640, arrivals="burst", burst_factor=16.0, burst_len=32
        )
        offsets = arrival_offsets(scenario, rng)
        gaps = np.diff(np.concatenate([[0.0], offsets]))
        window = (np.arange(640) // 32) % 2
        quiet_mean = float(np.mean(gaps[window == 0]))
        burst_mean = float(np.mean(gaps[window == 1]))
        assert quiet_mean > 4 * burst_mean

    def test_every_mix_has_the_right_shape_and_character(self, rng):
        for mix in MIXES:
            keys = make_keys(mix, rng, 16, WIDTH)
            assert keys.shape == (16, WIDTH) and keys.dtype == np.int64
        presorted = make_keys("presorted", rng, 8, WIDTH)
        assert np.all(np.diff(presorted, axis=1) >= 0)
        adversarial = make_keys("adversarial", rng, 8, WIDTH)
        assert np.all(np.diff(adversarial, axis=1) <= 0)
        duplicates = make_keys("duplicates", rng, 8, WIDTH)
        assert len(np.unique(duplicates)) <= 4

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ValueError, match="unknown key mix"):
            LoadScenario(mix="sorted-ish")
        with pytest.raises(ValueError, match="unknown arrival schedule"):
            LoadScenario(arrivals="thundering-herd")
        with pytest.raises(ValueError, match="rate"):
            LoadScenario(rate=0.0)

    def test_default_scenarios_cover_cells_mixes_and_arrivals(self):
        scenarios = default_scenarios()
        assert len(scenarios) >= 3
        assert len({s.cell for s in scenarios}) >= 2
        assert len({s.mix for s in scenarios}) >= 3
        assert {s.arrivals for s in scenarios} == set(ARRIVALS)
        assert len({s.key for s in scenarios}) == len(scenarios)


class TestRunLoadgen:
    def test_clean_run_completes_everything_verified(self):
        doc = run_loadgen(
            LoadScenario(requests=40, rate=4000.0, mix="duplicates"),
            config=ServiceConfig(max_batch=16, max_delay_ms=1.0),
        )
        counts = doc["counts"]
        assert counts == {
            "offered": 40, "completed": 40, "rejected": 0,
            "mismatches": 0, "errors": 0,
        }
        assert doc["latency_ms"]["p50"] > 0
        assert doc["completed_rps"] > 0
        assert doc["service"]["path(3)-n3-r3"]["completed"] == 40
        assert doc["config"]["max_batch"] == 16
        json.dumps(doc)

    def test_overload_run_records_shedding(self):
        doc = run_loadgen(
            LoadScenario(requests=60, rate=50_000.0, seed=3),
            config=ServiceConfig(
                max_batch=4, max_delay_ms=0.5, max_queue_depth=8, flush_penalty_s=0.02
            ),
        )
        counts = doc["counts"]
        assert counts["rejected"] > 0
        assert counts["completed"] + counts["rejected"] == 60
        assert counts["mismatches"] == 0 and counts["errors"] == 0

    def test_loadgen_feeds_a_shared_registry(self):
        registry = MetricsRegistry()
        run_loadgen(
            LoadScenario(requests=20, rate=4000.0),
            config=ServiceConfig(max_delay_ms=0.5),
            registry=registry,
        )
        assert "repro_serve_batches_total" in registry.expose_text()


@pytest.fixture()
def live_server(rng):
    """A running SortService + HTTP front-end on an ephemeral port.

    Serves from a dedicated event-loop thread (like ``repro serve``) so the
    test body can speak plain blocking HTTP.
    """
    import threading

    registry = MetricsRegistry()
    service_box: dict = {}
    started = threading.Event()
    stop: asyncio.Event | None = None

    async def amain():
        nonlocal stop
        stop = asyncio.Event()
        async with SortService(
            ServiceConfig(max_batch=8, max_delay_ms=1.0), registry=registry
        ) as service:
            loop = asyncio.get_running_loop()
            service.prewarm(CELL)
            server = build_sort_server(service, loop)
            server.start()
            service_box["service"] = service
            service_box["url"] = server.url("")
            service_box["loop"] = loop
            started.set()
            await stop.wait()
            server.stop()

    thread = threading.Thread(target=lambda: asyncio.run(amain()), daemon=True)
    thread.start()
    assert started.wait(timeout=30.0), "server failed to start"
    yield service_box
    service_box["loop"].call_soon_threadsafe(stop.set)
    thread.join(timeout=10.0)


class TestHttpFrontend:
    def _post(self, url, doc, timeout=10.0):
        request = urllib.request.Request(
            url + "/sort",
            data=json.dumps(doc).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())

    def test_post_sort_round_trip(self, live_server, rng):
        keys = rng.integers(0, 1000, WIDTH)
        status, doc = self._post(live_server["url"], {"cell": CELL, "keys": keys.tolist()})
        assert status == 200
        assert np.array_equal(np.asarray(doc["keys"]), _expected(keys))

    def test_bad_body_is_400(self, live_server):
        for payload in (b"not json", b'{"cell": "path-n3-r3"}'):
            request = urllib.request.Request(
                live_server["url"] + "/sort",
                data=payload,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            assert excinfo.value.code == 400

    def test_wrong_width_is_400_with_the_service_message(self, live_server):
        request = urllib.request.Request(
            live_server["url"] + "/sort",
            data=json.dumps({"cell": CELL, "keys": [1, 2, 3]}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400
        assert "27-key vectors" in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize(
        "bad_key",
        [1.7, 2.0, 1e30, 2**63, -(2**63) - 1, 2**70, True, "3", None],
        ids=repr,
    )
    def test_non_int64_key_is_400(self, live_server, bad_key):
        """Keys outside the JSON-integer/int64 contract are rejected, not
        coerced: ``[1.7, 2.2]`` used to come back sorted as ``[1, 2]``, and
        ``1e30`` / ``2**70`` escaped as a 500."""
        keys = [bad_key] + list(range(WIDTH - 1))
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(live_server["url"], {"cell": CELL, "keys": keys})
        assert excinfo.value.code == 400
        assert "int64" in json.loads(excinfo.value.read())["error"]

    def test_int64_extremes_round_trip(self, live_server):
        keys = np.zeros(WIDTH, dtype=np.int64)
        keys[:2] = [np.iinfo(np.int64).max, np.iinfo(np.int64).min]
        status, doc = self._post(live_server["url"], {"cell": CELL, "keys": keys.tolist()})
        assert status == 200
        assert np.array_equal(np.asarray(doc["keys"]), _expected(keys))

    def test_queues_json_reports_health(self, live_server, rng):
        keys = rng.integers(0, 1000, WIDTH)
        self._post(live_server["url"], {"cell": CELL, "keys": keys.tolist()})
        with urllib.request.urlopen(live_server["url"] + "/queues.json", timeout=10.0) as resp:
            queues = json.loads(resp.read())
        queue = queues["path(3)-n3-r3"]
        assert queue["completed"] >= 1
        assert queue["depth"] == 0

    def test_metrics_exposes_serve_instruments(self, live_server, rng):
        keys = rng.integers(0, 1000, WIDTH)
        self._post(live_server["url"], {"cell": CELL, "keys": keys.tolist()})
        with urllib.request.urlopen(live_server["url"] + "/metrics", timeout=10.0) as resp:
            text = resp.read().decode()
        assert "repro_serve_batch_occupancy_bucket" in text
        assert "repro_serve_queue_depth" in text

    def test_shed_request_maps_to_503_with_reason(self, live_server, rng):
        """A closed service rejects deterministically; the front-end turns
        the Rejected into a 503 whose body names the reason."""
        service = live_server["service"]
        loop = live_server["loop"]
        # close admission from the service's own loop thread
        fut = asyncio.run_coroutine_threadsafe(service.aclose(), loop)
        fut.result(timeout=10.0)
        request = urllib.request.Request(
            live_server["url"] + "/sort",
            data=json.dumps(
                {"cell": CELL, "keys": rng.integers(0, 1000, WIDTH).tolist()}
            ).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 503
        body = json.loads(excinfo.value.read())
        assert body["reason"] == "shutting_down"

    def test_loadgen_target_mode_drives_the_live_server(self, live_server):
        doc = run_loadgen(
            LoadScenario(requests=30, rate=3000.0, mix="adversarial"),
            target=live_server["url"],
        )
        counts = doc["counts"]
        assert counts["completed"] == 30
        assert counts["mismatches"] == 0 and counts["errors"] == 0
        # service health fetched from the live /queues.json
        assert doc["service"]["path(3)-n3-r3"]["completed"] >= 30
        assert doc["config"] is None


class TestServeCli:
    def test_loadgen_cli_text_and_exit_zero(self, capsys):
        assert main(["loadgen", "--requests", "20", "--rate", "4000"]) == 0
        out = capsys.readouterr().out
        assert "offered=20 completed=20 rejected=0" in out
        assert "queue path(3)-n3-r3" in out

    def test_loadgen_cli_json_document(self, capsys, tmp_path):
        out_path = tmp_path / "loadgen.json"
        assert main(
            ["loadgen", "--requests", "15", "--rate", "4000", "--mix", "presorted",
             "--json", "--out", str(out_path)]
        ) == 0
        doc = json.loads(out_path.read_text())
        assert doc["counts"]["completed"] == 15
        assert doc["scenario"]["mix"] == "presorted"

    def test_loadgen_cli_overload_still_exits_zero(self, capsys):
        """Shedding is the designed overload response, not a failure."""
        assert main(
            ["loadgen", "--requests", "40", "--rate", "50000",
             "--max-queue-depth", "6", "--max-batch", "4",
             "--max-delay-ms", "0.5", "--flush-penalty", "0.02", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"]["rejected"] > 0

    def test_loadgen_cli_rejects_bad_scenario(self, capsys):
        assert main(["loadgen", "--rate", "-5"]) == 2
        assert "rate" in capsys.readouterr().err

    def test_serve_parser_wiring(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--cell", "path-n3-r3", "--max-batch", "16"]
        )
        assert args.max_batch == 16 and args.port == 0
        args = build_parser().parse_args(["loadgen", "--arrivals", "burst"])
        assert args.arrivals == "burst"


class TestHealthEndpoints:
    """Satellite: liveness (`/healthz`) vs readiness (`/readyz`) split."""

    def test_live_server_is_healthy_and_ready(self, live_server):
        for path, expect in (("/healthz", b"ok"), ("/readyz", b"ok")):
            with urllib.request.urlopen(live_server["url"] + path, timeout=5.0) as resp:
                assert resp.status == 200
                assert resp.read().strip() == expect

    def test_shutdown_flips_readyz_but_not_healthz(self):
        """During drain the process is alive (liveness 200) but must be
        pulled from rotation (readiness 503 with the reason)."""
        import threading

        box: dict = {}
        started = threading.Event()
        drained = threading.Event()
        done = threading.Event()

        async def amain():
            service = SortService(ServiceConfig(max_delay_ms=1.0))
            await service.__aenter__()
            loop = asyncio.get_running_loop()
            server = build_sort_server(service, loop)
            server.start()
            box["url"] = server.url("")
            started.set()
            await asyncio.get_running_loop().run_in_executor(None, drained.wait)
            await service.__aexit__(None, None, None)
            box["closed"] = True
            done.set()
            await asyncio.get_running_loop().run_in_executor(None, box["stop"].wait)
            server.stop()

        box["stop"] = threading.Event()
        thread = threading.Thread(target=lambda: asyncio.run(amain()), daemon=True)
        thread.start()
        assert started.wait(timeout=30.0)

        def get(path):
            try:
                with urllib.request.urlopen(box["url"] + path, timeout=5.0) as resp:
                    return resp.status, resp.read()
            except urllib.error.HTTPError as err:
                return err.code, err.read()

        assert get("/readyz")[0] == 200
        drained.set()
        assert done.wait(timeout=30.0)
        status, body = get("/readyz")
        assert status == 503 and b"shutting down" in body
        # liveness is about the process, not the service: still 200
        assert get("/healthz")[0] == 200
        box["stop"].set()
        thread.join(timeout=10.0)


class TestServerSideLatency:
    """Satellite: loadgen surfaces the server's own latency histograms."""

    def test_clean_run_reports_consistent_server_percentiles(self):
        doc = run_loadgen(
            LoadScenario(requests=40, rate=2000.0),
            config=ServiceConfig(max_batch=16, max_delay_ms=1.0),
        )
        srv = doc["server_latency_ms"]
        assert set(srv["request"]) == {"p50", "p99"}
        assert set(srv["queue_wait"]) == {"p50", "p99"}
        assert 0 < srv["request"]["p50"] <= srv["request"]["p99"]
        # fresh registry + zero errors: the server-vs-client invariant holds
        assert srv["consistent"] is True
        # the invariant compares like with like: both sides bucketed
        assert srv["request"]["p99"] <= srv["client_bucketed"]["p99"] + 1e-9

    def test_queues_snapshot_carries_queue_wait_percentiles(self, rng):
        async def scenario():
            async with SortService(ServiceConfig(max_delay_ms=0.5)) as service:
                keys = rng.integers(0, 1000, WIDTH)
                await service.submit(CELL, keys.astype(np.int64))
                return service.queues_snapshot()

        snap = _run(scenario())
        q = snap["path(3)-n3-r3"]
        assert q["queue_wait_p50_ms"] is not None
        assert q["queue_wait_p99_ms"] >= q["queue_wait_p50_ms"]

    def test_shared_registry_disables_the_invariant(self):
        """A reused registry carries older samples, so the server-vs-client
        comparison is reported but not asserted (consistent is None)."""
        registry = MetricsRegistry()
        run_loadgen(LoadScenario(requests=10, rate=2000.0), registry=registry)
        doc = run_loadgen(LoadScenario(requests=10, rate=2000.0), registry=registry)
        assert doc["server_latency_ms"]["consistent"] is None


class TestServeSloCli:
    """CLI wiring for the flight recorder (`--slo` on serve and loadgen)."""

    def test_loadgen_slo_flag_prints_the_slo_line(self, capsys):
        assert main(["loadgen", "--requests", "20", "--rate", "4000", "--slo"]) == 0
        out = capsys.readouterr().out
        assert "slo: severity=ok" in out
        assert "server[path(3)-n3-r3]" in out
        assert "server p99 <= client p99: yes" in out

    def test_loadgen_slo_json_carries_the_snapshot(self, capsys):
        assert main(
            ["loadgen", "--requests", "20", "--rate", "4000", "--slo", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["slo"]["page_alerts"] == 0
        assert [a["spec"]["name"] for a in doc["slo"]["alerts"]] == [
            "serve-availability", "serve-request-p99",
            "serve-deadline-misses", "serve-queue-wait-p99",
        ]

    def test_serve_parser_accepts_slo_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--slo", "--slo-scale", "0.5"])
        assert args.slo is True and args.slo_scale == 0.5
        assert build_parser().parse_args(["serve"]).slo is False
        args = build_parser().parse_args(
            ["dash", "--target", "http://x/", "--watch", "1.5"]
        )
        assert args.target == "http://x/" and args.watch == 1.5
