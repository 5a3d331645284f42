"""Tests for the static schedule verifier (``repro.staticcheck``).

Covers the emitted DAG on both backends (structure, replay equivalence,
canonical hashing), the adversarial key sets, each lint's pass verdict on
the canonical workload matrix, each lint's failure verdict on hand-built bad
schedules, and the ``repro check`` CLI surface.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from repro.cli import main
from repro.graphs import cycle_graph, k2, path_graph
from repro.graphs.product import ProductGraph
from repro.observability.benchreg import DEFAULT_MATRIX
from repro.staticcheck import (
    LINT_NAMES,
    ComparatorDAG,
    ComparatorOp,
    SchedulePhase,
    ScheduleRound,
    adversarial_key_sets,
    emit_schedule,
    lint_depth,
    lint_links,
    lint_races,
    lint_zero_one,
    replay,
    run_check,
    snake_order_nodes,
    verify_dag,
)
from repro.analysis.complexity import sort_routing_calls, sort_s2_calls
from repro.core.lattice_sort import ProductNetworkSorter
from repro.core.machine_sort import MachineSorter
from repro.schedule import clear_caches

BACKENDS = ("lattice", "machine")


# ----------------------------------------------------------------------
# emitted schedule: structure
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("factor,r", [(path_graph(3), 2), (path_graph(3), 3), (k2(), 4)])
def test_extracted_phase_structure_matches_theorem1(factor, r, backend):
    dag = emit_schedule(factor, r, backend=backend)
    s2 = [p for p in dag.phases if p.kind == "s2"]
    routing = [p for p in dag.phases if p.kind == "routing"]
    assert len(s2) == sort_s2_calls(r)
    assert len(routing) == sort_routing_calls(r)
    # paths share the tracer vocabulary and start at the sort root
    assert all(p.path[0] == "sort" for p in dag.phases)
    assert dag.num_nodes == factor.n**r
    assert dag.backend == backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_extracted_depth_matches_ledger(backend, rng):
    dag = emit_schedule(path_graph(3), 3, backend=backend)
    keys = rng.integers(0, 1000, size=dag.num_nodes)
    _, ledger = _run_backend(path_graph(3), 3, backend, keys)
    assert dag.depth == ledger.total_rounds


def test_lattice_and_machine_share_phase_paths():
    lat = emit_schedule(path_graph(3), 3, backend="lattice")
    mac = emit_schedule(path_graph(3), 3, backend="machine")
    assert [p.path for p in lat.phases] == [p.path for p in mac.phases]


def test_phase_helpers():
    phase = SchedulePhase(
        index=0,
        path=("sort", "merge[d4]", "column-merges[d4]", "merge[d3]",
              "cleanup[d3]", "transposition[d3,p0]"),
        kind="routing",
        dim=3,
        charged_rounds=2,
    )
    assert phase.leaf == "transposition"
    assert phase.merge_depth == 2
    assert list(phase.merge_prefixes()) == [
        (("sort", "merge[d4]"), 4),
        (("sort", "merge[d4]", "column-merges[d4]", "merge[d3]"), 3),
    ]


# ----------------------------------------------------------------------
# replay equivalence: the DAG *is* the sorter
# ----------------------------------------------------------------------

def _run_backend(factor, r, backend, keys):
    """The real backend's output (flat node order) and cost ledger."""
    if backend == "machine":
        machine, ledger = MachineSorter.for_factor(factor, r).sort(keys)
        return machine.keys, ledger
    lattice, ledger = ProductNetworkSorter.for_factor(factor, r).sort_sequence(keys)
    return np.ravel(lattice), ledger


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("factor,r", [(path_graph(3), 3), (k2(), 3), (cycle_graph(4), 2)])
def test_replay_reproduces_backend_output(factor, r, backend, rng):
    dag = emit_schedule(factor, r, backend=backend)
    keys = rng.integers(0, 1000, size=dag.num_nodes)
    output, _ = _run_backend(factor, r, backend, keys.copy())
    assert np.array_equal(replay(dag, keys), output)
    # and the replayed snake sequence is sorted
    assert np.all(np.diff(replay(dag, keys)[snake_order_nodes(factor.n, r)]) >= 0)


def test_replay_batch_and_shape_validation():
    dag = emit_schedule(k2(), 2, backend="machine")
    batch = np.array([[3, 1, 2, 0], [0, 1, 2, 3]])
    out = replay(dag, batch)
    assert out.shape == batch.shape
    snake = snake_order_nodes(2, 2)
    assert np.all(np.diff(out[:, snake], axis=1) >= 0)
    with pytest.raises(ValueError):
        replay(dag, np.zeros(3))


# ----------------------------------------------------------------------
# obliviousness
# ----------------------------------------------------------------------

def test_adversarial_key_sets_shapes():
    sets = adversarial_key_sets(8, seed=1)
    assert set(sets) == {"ascending", "descending", "constant", "alternating", "random"}
    assert all(v.shape == (8,) for v in sets.values())


def test_schedule_hash_stable_across_extractions():
    a = emit_schedule(k2(), 3, backend="machine")
    clear_caches()  # a fresh planning run, not the cached artifact
    b = emit_schedule(k2(), 3, backend="machine")
    assert a is not b
    assert a.schedule_hash() == b.schedule_hash()
    # but geometry changes the hash
    c = emit_schedule(k2(), 4, backend="machine")
    assert a.schedule_hash() != c.schedule_hash()


# ----------------------------------------------------------------------
# lints: pass verdicts on real schedules
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "factor,r,backend",
    [
        (path_graph(3), 3, "lattice"),  # factored zero-one (27 nodes)
        (path_graph(3), 3, "machine"),  # factored + expanded comparators
        (k2(), 4, "machine"),           # exhaustive at the 16-node limit
        (path_graph(3), 2, "lattice"),  # r = 2 degenerate (no merge)
    ],
)
def test_verify_dag_passes_on_real_schedules(factor, r, backend):
    dag = emit_schedule(factor, r, backend=backend)
    report = verify_dag(dag, network=ProductGraph(factor, r))
    assert report.ok, report.describe()
    assert report.exit_code == 0
    assert report.failed_lints == []
    zo = report.results["zero-one"]
    assert zo.stats["lemma1_max_dirty"] <= zo.stats["lemma1_bound"]


def test_zero_one_factored_mode_engages_above_exhaustive_limit():
    dag = emit_schedule(path_graph(3), 3, backend="lattice")
    res = lint_zero_one(dag)
    assert res.ok
    assert res.stats["mode"] == "factored"
    assert res.stats["states"] == (9 + 1) ** 3
    exhaustive = lint_zero_one(emit_schedule(k2(), 3, backend="machine"))
    assert exhaustive.stats["mode"] == "exhaustive"
    assert exhaustive.stats["states"] == 2**8


def test_depth_lint_accepts_analytic_models_on_lattice():
    from repro.core.lattice_sort import ProductNetworkSorter

    factor = path_graph(3)
    sorter = ProductNetworkSorter.for_factor(factor, 3)
    dag = emit_schedule(factor, 3, backend="lattice")
    res = lint_depth(
        dag,
        s2_model_rounds=sorter.sorter2d.rounds(3),
        routing_model_rounds=sorter.routing.rounds(3),
    )
    assert res.ok, [f.message for f in res.findings]
    assert res.stats["depth"] == dag.depth


# ----------------------------------------------------------------------
# lints: failure verdicts on hand-built bad schedules
# ----------------------------------------------------------------------

def _tiny_dag(rounds, phases=None, n=2, r=2):
    """A hand-built DAG over the 2x2 lattice (4 nodes)."""
    if phases is None:
        phases = (
            SchedulePhase(
                index=0,
                path=("sort", "initial-block-sorts[d2]"),
                kind="s2",
                dim=2,
                charged_rounds=sum(rd.charge for rd in rounds),
            ),
        )
    return ComparatorDAG(
        backend="synthetic",
        factor="K2",
        n=n,
        r=r,
        num_nodes=n**r,
        phases=phases,
        rounds=tuple(rounds),
    )


def test_race_lint_flags_double_booked_node():
    dag = _tiny_dag([
        ScheduleRound(
            index=0, phase=0, charge=1,
            comparators=(ComparatorOp(0, 1), ComparatorOp(1, 3)),
        )
    ])
    res = lint_races(dag)
    assert not res.ok
    assert "node 1" in res.findings[0].message


def test_race_lint_accepts_disjoint_round():
    dag = _tiny_dag([
        ScheduleRound(
            index=0, phase=0, charge=1,
            comparators=(ComparatorOp(0, 1), ComparatorOp(2, 3)),
        )
    ])
    assert lint_races(dag).ok


def test_link_lint_flags_multi_dimension_pair():
    # nodes 0=(0,0) and 3=(1,1) differ in two positions
    dag = _tiny_dag([
        ScheduleRound(index=0, phase=0, charge=1, comparators=(ComparatorOp(0, 3),))
    ])
    res = lint_links(dag, ProductGraph(k2(), 2))
    assert not res.ok
    assert "not within a single G subgraph" in res.findings[0].message


def test_link_lint_flags_self_pair_and_counts_adjacency():
    dag = _tiny_dag([
        ScheduleRound(
            index=0, phase=0, charge=1,
            comparators=(ComparatorOp(2, 2), ComparatorOp(0, 1)),
        )
    ])
    res = lint_links(dag, ProductGraph(k2(), 2))
    assert not res.ok
    assert "degenerate" in res.findings[0].message
    assert res.stats["adjacent_pairs"] == 1


def test_link_lint_checks_block_snake_order():
    from repro.staticcheck import BlockSortOp

    # a real 2x2 block but with the node list not in snake order
    good = emit_schedule(k2(), 2, backend="lattice")
    blk = good.rounds[0].block_sorts[0]
    scrambled = BlockSortOp(nodes=tuple(reversed(blk.nodes)), descending=blk.descending)
    bad = _tiny_dag([
        ScheduleRound(index=0, phase=0, charge=1, block_sorts=(scrambled,))
    ])
    res = lint_links(bad, ProductGraph(k2(), 2))
    assert not res.ok
    assert "snake order" in res.findings[0].message
    assert lint_links(good, ProductGraph(k2(), 2)).ok


def test_zero_one_lint_flags_wrong_direction():
    # a single descending comparator on a 1-dimensional pair never sorts
    dag = _tiny_dag([
        ScheduleRound(
            index=0, phase=0, charge=1,
            comparators=(ComparatorOp(1, 0), ComparatorOp(2, 3)),
        )
    ])
    res = lint_zero_one(dag)
    assert not res.ok
    assert "unsorted" in res.findings[0].message or "unsortable" in res.findings[0].message


def test_depth_lint_flags_missing_phase():
    dag = emit_schedule(path_graph(3), 3, backend="lattice")
    # drop the last phase wholesale
    phases = dag.phases[:-1]
    rounds = tuple(rd for rd in dag.rounds if rd.phase < len(phases))
    broken = ComparatorDAG(
        backend=dag.backend, factor=dag.factor, n=dag.n, r=dag.r,
        num_nodes=dag.num_nodes, phases=phases, rounds=rounds,
    )
    res = lint_depth(broken)
    assert not res.ok
    assert any("Theorem 1" in f.message for f in res.findings)


def test_depth_lint_flags_inconsistent_charge():
    dag = emit_schedule(k2(), 3, backend="machine")
    phases = list(dag.phases)
    p = phases[0]
    phases[0] = SchedulePhase(
        index=p.index, path=p.path, kind=p.kind, dim=p.dim,
        charged_rounds=p.charged_rounds + 1,
    )
    broken = ComparatorDAG(
        backend=dag.backend, factor=dag.factor, n=dag.n, r=dag.r,
        num_nodes=dag.num_nodes, phases=tuple(phases), rounds=dag.rounds,
    )
    res = lint_depth(broken)
    assert not res.ok
    assert any("sum to" in f.message for f in res.findings)


def test_verify_dag_rejects_unknown_lint():
    dag = emit_schedule(k2(), 2, backend="machine")
    with pytest.raises(ValueError, match="unknown lint"):
        verify_dag(dag, lints=("bogus",))
    with pytest.raises(ValueError, match="links lint needs"):
        verify_dag(dag, lints=("links",))


# ----------------------------------------------------------------------
# checker driver + CLI
# ----------------------------------------------------------------------

def test_run_check_covers_full_matrix():
    run = run_check()
    assert run.ok and run.exit_code == 0
    assert [c.cell.key for c in run.cells] == [c.key for c in DEFAULT_MATRIX]
    for check in run.cells:
        assert check.dag.backend == check.cell.backend
        assert set(check.report.results) == set(LINT_NAMES)
    payload = run.to_json()
    assert payload["ok"] and len(payload["cells"]) == len(DEFAULT_MATRIX)


def test_run_check_cell_filter_and_unknown_cell():
    run = run_check(only=["k2-n2-r3-machine"], lints=("races", "depth"))
    assert [c.cell.key for c in run.cells] == ["k2-n2-r3-machine"]
    assert set(run.cells[0].report.results) == {"races", "depth"}
    with pytest.raises(ValueError, match="unknown cell"):
        run_check(only=["nope"])


def test_cli_check_single_cell(capsys):
    assert main(["check", "--races", "--links", "--cell", "k2-n2-r3-machine"]) == 0
    out = capsys.readouterr().out
    assert "k2-n2-r3-machine" in out
    assert "static check: ok" in out


def test_cli_check_json(capsys):
    assert main(["check", "--depth", "--cell", "path-n3-r2-lattice", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"]
    assert payload["cells"][0]["cell"] == "path-n3-r2-lattice"
    assert payload["cells"][0]["lints"]["depth"]["ok"]


def test_cli_check_unknown_cell_exits_2(capsys):
    assert main(["check", "--cell", "nope"]) == 2
    assert "unknown cell" in capsys.readouterr().err
