"""Tests for the benchmark-regression harness and its CLI.

Covers the workload matrix snapshot (schema, per-cell metrics and phase
breakdowns, conformance verdicts), persistence and baseline discovery,
threshold-gated comparison semantics, the ``repro bench`` CLI surface, and
the committed ``BENCH_seed.json`` baseline staying reproducible.
"""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.cli import main
from repro.observability.benchreg import (
    DEFAULT_MATRIX,
    DEFAULT_THRESHOLDS,
    SCHEMA_VERSION,
    SERVING_STRUCTURAL_COUNTS,
    MetricDelta,
    WorkloadCell,
    bench_path,
    compare_documents,
    find_baseline,
    load_document,
    run_cell,
    run_matrix,
    write_document,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def matrix_doc():
    """One full run of the canonical matrix, shared across this module."""
    return run_matrix(DEFAULT_MATRIX, seed=0, label="test")


class TestWorkloadMatrix:
    def test_default_matrix_is_wide_enough(self):
        # acceptance: at least 6 cells, both backends, r covering 2..4
        assert len(DEFAULT_MATRIX) >= 6
        assert {c.backend for c in DEFAULT_MATRIX} == {"lattice", "machine"}
        assert {c.r for c in DEFAULT_MATRIX} >= {2, 3, 4}
        keys = [c.key for c in DEFAULT_MATRIX]
        assert len(keys) == len(set(keys))

    def test_cell_key_is_stable(self):
        assert WorkloadCell("path", 3, 2, "lattice").key == "path-n3-r2-lattice"

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown factor family"):
            WorkloadCell("moebius", 3, 2, "lattice").build_factor()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_cell(WorkloadCell("path", 3, 2, "quantum"))

    def test_schema_version_pinned(self):
        # v7: every cell carries an ``optimize`` block — the certified
        # optimizer's hashes, per-pass certificates and translation-validation
        # verdict; remaining op counts gate at zero tolerance and a fallback
        # on a canonical cell is a hard error.
        # Bump this pin deliberately alongside BENCH_seed.json regeneration.
        assert SCHEMA_VERSION == 7

    def test_document_schema(self, matrix_doc):
        assert matrix_doc["schema_version"] == SCHEMA_VERSION
        assert matrix_doc["label"] == "test"
        assert matrix_doc["seed"] == 0
        assert len(matrix_doc["cells"]) == len(DEFAULT_MATRIX)
        json.dumps(matrix_doc)  # JSON-safe as-is

    def test_every_cell_sorted_and_conformant(self, matrix_doc):
        for cell in matrix_doc["cells"]:
            assert cell["sorted_ok"], cell["cell"]
            conf = cell["conformance"]
            assert conf["ok"], (cell["cell"], conf["deviations"])
            assert conf["theorem1_calls_ok"] and conf["theorem1_rounds_ok"]
            # closed form at measured units always equals the measurement
            assert conf["predicted_total_rounds"] == cell["metrics"]["total_rounds"]

    def test_lattice_cells_match_the_analytic_model(self, matrix_doc):
        lattice = [c for c in matrix_doc["cells"] if c["backend"] == "lattice"]
        assert lattice
        for cell in lattice:
            assert cell["conformance"]["matches_model"] is True
            assert cell["conformance"]["model_total_rounds"] == cell["metrics"]["total_rounds"]

    def test_per_cell_metrics_and_phase_breakdown(self, matrix_doc):
        for cell in matrix_doc["cells"]:
            m = cell["metrics"]
            r = cell["r"]
            assert m["s2_calls"] == (r - 1) ** 2
            assert m["routing_calls"] == (r - 1) * (r - 2)
            assert m["total_rounds"] == m["s2_rounds"] + m["routing_rounds"]
            assert m["span_count"] > 0 and m["wall_time_s"] >= 0
            # phases partition the charged rounds and span population
            assert sum(p["rounds"] for p in cell["phases"]) == m["total_rounds"]
            assert sum(p["count"] for p in cell["phases"]) == m["span_count"]

    def test_machine_cells_carry_traffic_and_comparisons(self, matrix_doc):
        machine = [c for c in matrix_doc["cells"] if c["backend"] == "machine"]
        assert machine
        for cell in machine:
            assert cell["metrics"]["comparisons"] > 0
            traffic = cell["traffic"]
            assert traffic["operations"] > 0 and traffic["pair_count"] > 0
            assert 0 < traffic["peak_node_utilisation"] <= 1.0
        lattice = [c for c in matrix_doc["cells"] if c["backend"] == "lattice"]
        assert all("traffic" not in c for c in lattice)

    def test_machine_cells_carry_topology(self, matrix_doc):
        machine = [c for c in matrix_doc["cells"] if c["backend"] == "machine"]
        assert machine
        for cell in machine:
            topo = cell["topology"]
            # the observatory's edge histogram must agree with the
            # machine's published traversal count exactly
            assert topo["total_traversals"] == cell["traffic"]["link_traversals"]
            assert topo["directed_edges"] >= topo["used_edges"] > 0
            assert topo["peak_buffer_depth"] == cell["traffic"]["peak_buffer_depth"]
            assert topo["per_phase"]  # phase-attributed histograms present
        lattice = [c for c in matrix_doc["cells"] if c["backend"] == "lattice"]
        assert all("topology" not in c for c in lattice)

    def test_structural_metrics_are_deterministic(self):
        a = run_cell(WorkloadCell("path", 3, 2, "lattice"), seed=0)
        b = run_cell(WorkloadCell("path", 3, 2, "lattice"), seed=1)
        for metric in ("total_rounds", "s2_rounds", "s2_calls", "span_count"):
            assert a["metrics"][metric] == b["metrics"][metric]
        # the schedule hash is a pure function of the geometry, never the keys
        assert a["schedule_hash"] == b["schedule_hash"]

    def test_every_cell_pins_its_schedule_hash(self, matrix_doc):
        for cell in matrix_doc["cells"]:
            assert len(cell["schedule_hash"]) == 64, cell["cell"]

    def test_compiled_block_measures_the_batch_kernel(self):
        record = run_cell(WorkloadCell("path", 3, 3, "lattice"), seed=0,
                          compiled_batch=32)
        compiled = record["compiled"]
        assert compiled["batch"] == 32
        assert compiled["matches"] is True
        assert compiled["schedule_hash"] == record["schedule_hash"]
        # packing can only merge rounds, never split them
        assert 0 < compiled["layers"] <= compiled["rounds"]
        assert compiled["speedup"] > 0
        # machine cells never grow a compiled block
        machine = run_cell(WorkloadCell("k2", 2, 2, "machine"), seed=0,
                           compiled_batch=32)
        assert "compiled" not in machine
        # v4: the same run also profiles the kernel
        profile = record["profile"]
        assert profile["batch"] == 32 and profile["runs"] >= 1
        assert profile["layers"] == compiled["layers"]
        assert 0 < profile["p50_run_s"] <= profile["p99_run_s"]
        assert profile["keys_per_s"] > 0
        assert 0 < profile["mean_occupancy"] <= profile["max_occupancy"]
        assert "profile" not in machine


class TestPersistence:
    def test_write_load_round_trip(self, matrix_doc, tmp_path):
        path = write_document(matrix_doc, str(tmp_path / "BENCH_x.json"))
        assert load_document(path) == json.loads(json.dumps(matrix_doc))

    def test_bench_path_sanitises_label(self, tmp_path):
        assert bench_path("pr 7/fix", str(tmp_path)) == str(tmp_path / "BENCH_pr-7-fix.json")

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "BENCH_bogus.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match="schema_version"):
            load_document(str(path))

    def test_find_baseline_latest_by_created(self, matrix_doc, tmp_path):
        old = dict(matrix_doc, created=100.0, label="old")
        new = dict(matrix_doc, created=200.0, label="new")
        write_document(old, str(tmp_path / "BENCH_old.json"))
        newest = write_document(new, str(tmp_path / "BENCH_new.json"))
        (tmp_path / "BENCH_junk.json").write_text("not json")
        assert find_baseline(str(tmp_path)) == newest
        assert find_baseline(str(tmp_path), exclude=newest) == str(tmp_path / "BENCH_old.json")
        assert find_baseline(str(tmp_path / "empty")) is None


class TestComparison:
    def test_identical_documents_are_ok(self, matrix_doc):
        result = compare_documents(matrix_doc, copy.deepcopy(matrix_doc))
        assert result.ok and not result.regressions and not result.errors
        assert "all compared metrics unchanged" in result.render()

    def test_structural_regression_detected(self, matrix_doc):
        worse = copy.deepcopy(matrix_doc)
        worse["cells"][0]["metrics"]["total_rounds"] += 1
        result = compare_documents(matrix_doc, worse)
        assert not result.ok
        assert [d.metric for d in result.regressions] == ["total_rounds"]
        assert "REGRESSED" in result.render()

    def test_improvement_is_not_a_regression(self, matrix_doc):
        better = copy.deepcopy(matrix_doc)
        better["cells"][0]["metrics"]["total_rounds"] -= 1
        result = compare_documents(matrix_doc, better)
        assert result.ok
        assert "improved" in result.render()

    def test_wall_time_informational_unless_opted_in(self, matrix_doc):
        slow = copy.deepcopy(matrix_doc)
        for cell in slow["cells"]:
            cell["metrics"]["wall_time_s"] *= 100
        assert compare_documents(matrix_doc, slow).ok
        gated = compare_documents(matrix_doc, slow, thresholds={"wall_time_s": 1.0})
        assert not gated.ok
        assert all(d.metric == "wall_time_s" for d in gated.regressions)

    def test_missing_cell_is_an_error(self, matrix_doc):
        partial = copy.deepcopy(matrix_doc)
        dropped = partial["cells"].pop()
        result = compare_documents(matrix_doc, partial)
        assert not result.ok
        assert any(dropped["cell"] in e and "missing" in e for e in result.errors)

    def test_new_cell_is_informational(self, matrix_doc):
        grown = copy.deepcopy(matrix_doc)
        extra = copy.deepcopy(grown["cells"][0])
        extra["cell"] = "newfam-n9-r2-lattice"
        grown["cells"].append(extra)
        result = compare_documents(matrix_doc, grown)
        assert result.ok and result.new_cells == ["newfam-n9-r2-lattice"]

    def test_unsorted_candidate_is_an_error(self, matrix_doc):
        broken = copy.deepcopy(matrix_doc)
        broken["cells"][0]["sorted_ok"] = False
        result = compare_documents(matrix_doc, broken)
        assert any("UNSORTED" in e for e in result.errors)

    def test_nonconformant_candidate_is_an_error(self, matrix_doc):
        broken = copy.deepcopy(matrix_doc)
        broken["cells"][0]["conformance"]["ok"] = False
        broken["cells"][0]["conformance"]["deviations"] = ["Theorem 1 violated: test"]
        result = compare_documents(matrix_doc, broken)
        assert any("Theorem 1 violated" in e for e in result.errors)

    def test_schema_mismatch_is_an_error(self, matrix_doc):
        future = dict(copy.deepcopy(matrix_doc), schema_version=SCHEMA_VERSION + 1)
        result = compare_documents(matrix_doc, future)
        assert not result.ok
        assert any("schema mismatch" in e for e in result.errors)
        assert not result.deltas  # no point diffing incomparable layouts

    def test_zero_baseline_regresses_on_any_growth(self):
        delta = MetricDelta("c", "m", baseline=0, candidate=1, threshold=0.0)
        assert delta.regressed
        assert not MetricDelta("c", "m", 0, 0, 0.0).regressed
        assert not MetricDelta("c", "m", 5, 50, None).regressed  # unthresholded

    def test_default_thresholds_gate_structure_not_wall_time(self):
        assert DEFAULT_THRESHOLDS["total_rounds"] == 0.0
        assert DEFAULT_THRESHOLDS["wall_time_s"] is None

    def test_improved_direction_flips_for_throughput_metrics(self):
        # wall time: lower is better
        assert MetricDelta("c", "wall_time_s", 2.0, 1.0, None).improved
        assert not MetricDelta("c", "wall_time_s", 1.0, 2.0, None).improved
        # throughput/speedup: higher is better
        assert MetricDelta("c", "profile.keys_per_s", 1e6, 2e6, None).improved
        assert not MetricDelta("c", "profile.keys_per_s", 2e6, 1e6, None).improved
        assert MetricDelta("c", "compiled.speedup", 40.0, 80.0, None).improved

    def test_schedule_hash_drift_is_an_error(self, matrix_doc):
        drifted = copy.deepcopy(matrix_doc)
        drifted["cells"][0]["schedule_hash"] = "f" * 64
        result = compare_documents(matrix_doc, drifted)
        assert not result.ok
        assert any("schedule hash drift" in e for e in result.errors)

    def test_compiled_mismatch_is_an_error(self, matrix_doc):
        broken = copy.deepcopy(matrix_doc)
        lattice = next(c for c in broken["cells"] if c["backend"] == "lattice")
        lattice["compiled"] = {"batch": 8, "matches": False, "speedup": 1.0}
        result = compare_documents(matrix_doc, broken)
        assert not result.ok
        assert any("compiled kernel" in e for e in result.errors)

    def test_compiled_speedup_is_informational(self):
        assert DEFAULT_THRESHOLDS["compiled.speedup"] is None
        assert DEFAULT_THRESHOLDS["compiled.layers"] == 0.0

    def test_topology_totals_are_zero_tolerance(self, matrix_doc):
        assert DEFAULT_THRESHOLDS["topology.total_traversals"] == 0.0
        assert DEFAULT_THRESHOLDS["topology.directed_edges"] == 0.0
        assert DEFAULT_THRESHOLDS["topology.mean_load"] is None
        inflated = copy.deepcopy(matrix_doc)
        victim = next(c for c in inflated["cells"] if c["backend"] == "machine")
        victim["topology"]["total_traversals"] += 1
        result = compare_documents(matrix_doc, inflated)
        assert not result.ok
        assert any(
            d.metric == "topology.total_traversals" for d in result.regressions
        )

    def test_traffic_counts_are_zero_tolerance(self, matrix_doc):
        assert DEFAULT_THRESHOLDS["traffic.link_traversals"] == 0.0
        assert DEFAULT_THRESHOLDS["traffic.pair_count"] == 0.0
        assert DEFAULT_THRESHOLDS["traffic.mean_parallelism"] is None
        assert DEFAULT_THRESHOLDS["traffic.peak_node_utilisation"] is None
        inflated = copy.deepcopy(matrix_doc)
        victim = next(c for c in inflated["cells"] if c["backend"] == "machine")
        victim["traffic"]["pair_count"] += 1
        victim["traffic"]["mean_parallelism"] += 1.0
        result = compare_documents(matrix_doc, inflated)
        assert not result.ok
        assert [d.metric for d in result.regressions] == ["traffic.pair_count"]


class TestBenchCli:
    def test_bench_run_writes_snapshot(self, tmp_path, capsys):
        out = tmp_path / "BENCH_t.json"
        assert main(["bench", "run", "--label", "t", "--out", str(out)]) == 0
        doc = load_document(str(out))
        assert doc["label"] == "t" and len(doc["cells"]) == len(DEFAULT_MATRIX)
        stdout = capsys.readouterr().out
        assert "schema v7" in stdout and "conformance=ok" in stdout

    def test_bench_compare_same_file_ok(self, tmp_path, capsys, matrix_doc):
        path = write_document(matrix_doc, str(tmp_path / "BENCH_t.json"))
        assert main(["bench", "compare", "--baseline", path, "--candidate", path]) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_bench_compare_exits_nonzero_on_regression(self, tmp_path, capsys, matrix_doc):
        base = write_document(matrix_doc, str(tmp_path / "BENCH_base.json"))
        worse = copy.deepcopy(matrix_doc)
        worse["cells"][0]["metrics"]["comparisons"] += 10
        cand = write_document(worse, str(tmp_path / "BENCH_cand.json"))
        assert main(["bench", "compare", "--baseline", base, "--candidate", cand]) == 1
        assert "verdict: REGRESSION" in capsys.readouterr().out

    def test_bench_compare_json_output(self, tmp_path, capsys, matrix_doc):
        path = write_document(matrix_doc, str(tmp_path / "BENCH_t.json"))
        assert main(
            ["bench", "compare", "--baseline", path, "--candidate", path, "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["regressions"] == []
        assert {d["metric"] for d in doc["deltas"]} >= {"total_rounds", "comparisons"}

    def test_bench_compare_without_baseline_exits_2(self, tmp_path, capsys, matrix_doc, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cand = write_document(matrix_doc, str(tmp_path / "BENCH_only.json"))
        assert main(["bench", "compare", "--candidate", cand]) == 2
        assert "no baseline" in capsys.readouterr().err

    def test_bench_metrics_prometheus(self, capsys):
        assert main(["bench", "metrics", "--factor", "k2", "--r", "3"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_spans_total counter" in out
        assert "repro_machine_steps_total" in out

    def test_bench_metrics_json(self, capsys):
        assert main(["bench", "metrics", "--factor", "path", "--n", "3", "--r", "2",
                     "--format", "json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["repro_spans_total"]["type"] == "counter"


class TestCommittedBaseline:
    """The blessed BENCH_seed.json must stay loadable and reproducible."""

    def test_seed_baseline_is_valid(self):
        path = os.path.join(REPO_ROOT, "BENCH_seed.json")
        doc = load_document(path)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["label"] == "seed"
        assert len(doc["cells"]) >= 6

    def test_fresh_run_does_not_regress_the_seed(self, matrix_doc):
        baseline = load_document(os.path.join(REPO_ROOT, "BENCH_seed.json"))
        result = compare_documents(baseline, matrix_doc)
        assert result.ok, result.render()

    def test_seed_pins_schedule_hashes_and_compiled_speedup(self, matrix_doc):
        """The blessed seed pins every cell's emitted-schedule hash (fresh
        emissions must reproduce it byte for byte) and records a >=5x
        compiled-batch speedup on at least one lattice cell."""
        doc = load_document(os.path.join(REPO_ROOT, "BENCH_seed.json"))
        fresh = {c["cell"]: c["schedule_hash"] for c in matrix_doc["cells"]}
        for cell in doc["cells"]:
            assert cell["schedule_hash"] == fresh[cell["cell"]], cell["cell"]
        compiled = [c["compiled"] for c in doc["cells"] if "compiled" in c]
        assert compiled, "seed must carry compiled-kernel measurements"
        assert all(c["matches"] for c in compiled)
        assert max(c["speedup"] for c in compiled) >= 5.0


# ----------------------------------------------------------------------
# schema v5+: the serving section
# ----------------------------------------------------------------------

def _serving_scenario(key="path-n3-r3/uniform/poisson", **counts_override):
    """A fabricated scenario result with healthy defaults."""
    counts = {"offered": 10, "completed": 10, "rejected": 0, "mismatches": 0, "errors": 0}
    counts.update(counts_override)
    cell, mix, arrivals = key.split("/")
    return {
        "scenario": {
            "key": key, "cell": cell, "mix": mix, "arrivals": arrivals,
            "rate": 100.0, "requests": 10, "seed": 0,
            "burst_factor": 8.0, "burst_len": 16,
        },
        "counts": counts,
        "latency_ms": {"p50": 1.0, "p90": 1.5, "p99": 2.0, "max": 2.5, "mean": 1.1},
        "duration_s": 0.1,
        "offered_rps": 100.0,
        "completed_rps": 100.0,
        "service": {},
        "config": None,
    }


def _doc_with_serving(scenarios, label="serving-test"):
    """A minimal comparable document carrying only a serving section."""
    return {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "created": 0.0,
        "seed": 0,
        "cells": [],
        "serving": {"config": {}, "scenarios": scenarios},
    }


class TestServingComparison:
    def test_structural_counts_are_exported(self):
        assert SERVING_STRUCTURAL_COUNTS == (
            "offered", "completed", "rejected", "mismatches", "errors"
        )

    def test_identical_serving_sections_compare_ok(self):
        doc = _doc_with_serving([_serving_scenario()])
        result = compare_documents(doc, copy.deepcopy(doc))
        assert result.ok, result.render()
        metrics = {d.metric for d in result.deltas}
        assert "serving.latency_ms.p50" in metrics
        assert "serving.completed_rps" in metrics

    def test_candidate_without_serving_is_a_note_not_an_error(self):
        baseline = _doc_with_serving([_serving_scenario()])
        candidate = copy.deepcopy(baseline)
        candidate.pop("serving")
        result = compare_documents(baseline, candidate)
        assert result.ok
        assert any("without --serving" in note for note in result.notes)
        assert "note:" in result.render()

    def test_structural_count_drift_is_an_error(self):
        baseline = _doc_with_serving([_serving_scenario()])
        candidate = _doc_with_serving([_serving_scenario(completed=9, errors=1)])
        result = compare_documents(baseline, candidate)
        assert not result.ok
        assert any("zero tolerance" in err for err in result.errors)

    def test_candidate_invariants_hold_without_any_baseline_serving(self):
        """Mismatches / errors / shed requests fail even on a fresh baseline."""
        baseline = _doc_with_serving([_serving_scenario()])
        baseline.pop("serving")
        candidate = _doc_with_serving([_serving_scenario(mismatches=2)])
        result = compare_documents(baseline, candidate)
        assert not result.ok
        assert any("ground truth" in err for err in result.errors)

        candidate = _doc_with_serving([_serving_scenario(rejected=3)])
        result = compare_documents(baseline, candidate)
        assert not result.ok
        assert any("shed" in err for err in result.errors)

    def test_page_severity_slo_alert_fails_the_candidate(self):
        """v6: the flight recorder's verdict is a candidate invariant —
        pages during the clean suite fail even without a baseline."""
        baseline = _doc_with_serving([_serving_scenario()])
        baseline.pop("serving")
        scenario = _serving_scenario()
        scenario["slo"] = {
            "page_alerts": 2, "max_severity_seen": "page",
            "current_severity": "ok", "alerts": [],
        }
        candidate = _doc_with_serving([scenario])
        result = compare_documents(baseline, candidate)
        assert not result.ok
        assert any("page-severity" in err for err in result.errors)
        # warning-only burn stays informational
        scenario["slo"] = {"page_alerts": 0, "max_severity_seen": "warning"}
        assert compare_documents(baseline, _doc_with_serving([scenario])).ok

    def test_server_latency_feeds_informational_scalars(self):
        scenario = _serving_scenario()
        scenario["server_latency_ms"] = {
            "request": {"p50": 1.0, "p99": 2.0},
            "queue_wait": {"p50": 0.1, "p99": 0.4},
            "consistent": True,
        }
        doc = _doc_with_serving([scenario])
        result = compare_documents(doc, doc)
        assert result.ok
        metrics = {d.metric for d in result.deltas}
        assert "serving.server_request_ms.p99" in metrics
        assert "serving.server_queue_wait_ms.p50" in metrics

    def test_missing_and_new_scenarios(self):
        s1 = _serving_scenario()
        s2 = _serving_scenario(key="k2-n2-r4/duplicates/poisson")
        result = compare_documents(
            _doc_with_serving([s1, s2]), _doc_with_serving([s1])
        )
        assert not result.ok
        assert any("missing from candidate" in err for err in result.errors)
        result = compare_documents(
            _doc_with_serving([s1]), _doc_with_serving([s1, s2])
        )
        assert result.ok
        assert "serving:k2-n2-r4/duplicates/poisson" in result.new_cells

    def test_latency_drift_stays_informational(self):
        baseline = _doc_with_serving([_serving_scenario()])
        candidate = copy.deepcopy(baseline)
        candidate["serving"]["scenarios"][0]["latency_ms"]["p99"] = 50.0
        candidate["serving"]["scenarios"][0]["completed_rps"] = 1.0
        result = compare_documents(baseline, candidate)
        assert result.ok, result.render()

    def test_run_matrix_serving_flag(self):
        """run_matrix(serving=True) lands a well-formed section (tiny matrix)."""
        doc = run_matrix((DEFAULT_MATRIX[0],), seed=0, label="t", serving=True)
        serving = doc["serving"]
        assert serving["config"]["max_batch"] == 32
        assert len(serving["scenarios"]) >= 3
        for scenario in serving["scenarios"]:
            counts = scenario["counts"]
            assert counts["completed"] == counts["offered"]
            assert counts["rejected"] == counts["mismatches"] == counts["errors"] == 0
        json.dumps(doc)  # JSON-safe as-is
        result = compare_documents(doc, copy.deepcopy(doc))
        assert result.ok, result.render()
