"""Golden trace: the lattice backend's observable stream, pinned exactly.

``tests/data/golden_trace.json`` holds, for a fixed set of inputs, what the
lattice backend showed an observer:

* the span tree of a traced ``sort_sequence`` on path-n3-r3, path-n3-r4,
  k2-n2-r4 and cycle-n4-r3 and of ``merge_sorted_subgraphs`` on the paper's
  Fig. 12 input — every span's name, final attributes and parent;
* the same runs with a subscriber on the bus: every ``span_start`` /
  ``span_end`` with its attributes, every ``point`` event's name, parent span
  and the SHA-256 of its payload bytes (shape and dtype included);
* the ledger records of each run and the SHA-256 of the output lattice;
* the adaptive sorter's ledger records and ``steps4_skipped`` /
  ``steps4_executed`` on the inputs of ``tests/test_adaptive.py``.

The fixture was captured from the live §4 recursion the lattice backend ran
before it became an interpreter of its emitted schedule; these tests assert
the interpreter reproduces it record for record.  ``python
tests/test_golden_trace.py OUT.json`` writes the current capture for
comparison.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Any, Callable

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveProductNetworkSorter
from repro.core.lattice_sort import ProductNetworkSorter
from repro.graphs import cycle_graph, k2, path_graph
from repro.observability import Tracer
from repro.orders import sequence_to_lattice

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_trace.json")

FACTORS = {"path": path_graph, "k2": lambda n: k2(), "cycle": cycle_graph}

#: (family, n, r) of the traced sort_sequence cells
SORT_CELLS = [("path", 3, 3), ("path", 3, 4), ("k2", 2, 4), ("cycle", 4, 3)]

#: the paper's Fig. 12 sequences A_0, A_1, A_2
FIG12 = [
    [0, 4, 4, 5, 5, 7, 8, 8, 9],
    [1, 4, 5, 5, 5, 6, 7, 7, 8],
    [0, 0, 1, 1, 1, 2, 3, 4, 9],
]


def _digest(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    head = f"{arr.dtype.str}{arr.shape}".encode()
    return hashlib.sha256(head + arr.tobytes()).hexdigest()


def _ledger(ledger) -> list[list[Any]]:
    return [[rec.phase, rec.detail, rec.rounds, rec.comparisons] for rec in ledger.records]


def _capture(run: Callable[[Tracer], Any], subscribe: bool) -> dict[str, Any]:
    """Run once under a fresh tracer; record the span tree and event stream."""
    tracer = Tracer()
    events: list[Any] = []
    if subscribe:
        tracer.bus.subscribe(events.append)
    lattice, ledger = run(tracer)
    spans = [
        [sp.span_id, sp.parent_id, sp.name, dict(sp.attrs)] for sp in tracer.iter_spans()
    ]
    stream = []
    for ev in events:
        if ev.kind == "point":
            stream.append(["point", ev.name, ev.parent_id, _digest(ev.attrs["payload"])])
        else:
            stream.append([ev.kind, ev.name, ev.span_id, ev.parent_id, dict(ev.attrs)])
    return {
        "spans": spans,
        "events": stream,
        "ledger": _ledger(ledger),
        "output": _digest(np.asarray(lattice)),
    }


def _sort_keys(index: int, size: int) -> list[int]:
    return np.random.default_rng(4100 + index).integers(0, 40, size=size).tolist()


def _fig12_lattice() -> np.ndarray:
    return np.stack([sequence_to_lattice(np.array(a), 3, 2) for a in FIG12])


def _traced_runs() -> dict[str, tuple[Callable[[Tracer], Any], list[int] | None]]:
    runs: dict[str, tuple[Callable[[Tracer], Any], list[int] | None]] = {}
    for i, (family, n, r) in enumerate(SORT_CELLS):
        sorter = ProductNetworkSorter.for_factor(FACTORS[family](n), r)
        keys = _sort_keys(i, n**r)
        runs[f"sort_sequence/{family}-n{n}-r{r}"] = (
            lambda tr, s=sorter, k=keys: s.sort_sequence(np.asarray(k), tracer=tr),
            keys,
        )
    merger = ProductNetworkSorter.for_factor(path_graph(3), 3)
    runs["merge_sorted_subgraphs/fig12"] = (
        lambda tr: merger.merge_sorted_subgraphs(_fig12_lattice(), tracer=tr),
        None,
    )
    return runs


def _adaptive_cases() -> list[dict[str, Any]]:
    """The inputs tests/test_adaptive.py drives the adaptive sorter with."""
    rng = np.random.default_rng(12345)
    cases: list[dict[str, Any]] = []

    def add(name, family, n, r, keys, check_rounds=2, method="sort_sequence"):
        cases.append(
            {
                "name": name,
                "cell": [family, n, r],
                "check_rounds": check_rounds,
                "method": method,
                "keys": np.asarray(keys).tolist(),
            }
        )

    for family, n, r in [("path", 3, 3), ("path", 3, 4), ("path", 4, 3), ("k2", 2, 5)]:
        add(f"random-{family}{n}-r{r}", family, n, r, rng.integers(0, 2**20, size=n**r))
    add("matches-plain", "path", 3, 4, rng.integers(0, 10**6, size=81))
    merge_keys = rng.integers(0, 1000, size=(3, 9))
    merge_lattice = np.stack([sequence_to_lattice(np.sort(merge_keys[u]), 3, 2) for u in range(3)])
    add("merge-sorted-subgraphs", "path", 3, 3, merge_lattice, method="merge_sorted_subgraphs")
    add("constant", "path", 3, 4, np.zeros(81, dtype=np.int64))
    for seed in range(5):
        add(f"zero-one-seed{seed}", "path", 3, 4,
            np.random.default_rng(seed).integers(0, 2, size=81))
    add("block-aligned", "path", 3, 4, np.repeat(np.arange(9), 9))
    add("random-permutation", "path", 3, 3, rng.permutation(27))
    outlier = np.zeros(81, dtype=np.int64)
    outlier[1] = 5
    add("one-outlier", "path", 3, 4, outlier)
    add("cycle-benign", "cycle", 4, 3, np.zeros(64, dtype=np.int64))
    add("cycle-random", "cycle", 4, 3, rng.permutation(64))
    add("check-rounds-zero", "path", 3, 3, np.zeros(27, dtype=np.int64), check_rounds=0)
    return cases


def _run_adaptive(case: dict[str, Any]) -> dict[str, Any]:
    family, n, r = case["cell"]
    sorter = AdaptiveProductNetworkSorter.for_factor(
        FACTORS[family](n), r, check_rounds=case["check_rounds"]
    )
    keys = np.asarray(case["keys"])
    lattice, ledger = getattr(sorter, case["method"])(keys)
    return {
        "ledger": _ledger(ledger),
        "steps4_skipped": sorter.steps4_skipped,
        "steps4_executed": sorter.steps4_executed,
        "output": _digest(np.asarray(lattice)),
    }


def capture_all() -> dict[str, Any]:
    """The complete golden record for the current implementation."""
    traced = {}
    for name, (run, keys) in _traced_runs().items():
        traced[name] = {
            "keys": keys,
            "plain": _capture(run, subscribe=False),
            "subscribed": _capture(run, subscribe=True),
        }
    adaptive = []
    for case in _adaptive_cases():
        adaptive.append({**case, "expected": _run_adaptive(case)})
    return {"traced": traced, "adaptive": adaptive}


def _json_roundtrip(doc: Any) -> Any:
    return json.loads(json.dumps(doc))


@pytest.fixture(scope="module")
def golden() -> dict[str, Any]:
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(_traced_runs()))
@pytest.mark.parametrize("mode", ["plain", "subscribed"])
def test_traced_run_reproduces_the_golden_stream(golden, name, mode):
    expected = golden["traced"][name]
    run, keys = _traced_runs()[name]
    assert keys == expected["keys"]
    got = _json_roundtrip(_capture(run, subscribe=mode == "subscribed"))
    want = expected[mode]
    assert got["spans"] == want["spans"]
    assert got["events"] == want["events"]
    assert got["ledger"] == want["ledger"]
    assert got["output"] == want["output"]


def test_adaptive_reproduces_the_golden_ledgers(golden):
    cases = golden["adaptive"]
    assert [c["name"] for c in cases] == [c["name"] for c in _adaptive_cases()]
    for case in cases:
        assert _json_roundtrip(_run_adaptive(case)) == case["expected"], case["name"]


if __name__ == "__main__":
    with open(sys.argv[1], "w") as out:
        json.dump(capture_all(), out, separators=(",", ":"))
        out.write("\n")
