"""Inputs of the static verifier: the emitted schedule and adversarial keys.

The core **emits** its own :class:`ComparatorDAG` — see :mod:`repro.schedule`
— keylessly, so the schedule is a function of the geometry alone and every
backend interprets that one artifact.  :func:`emit_schedule` fetches it per
backend; :func:`adversarial_key_sets` supplies the key batteries the compiled
kernel and the translation validator are checked on.
"""

from __future__ import annotations

import numpy as np

from ..core.lattice_sort import ProductNetworkSorter
from ..core.machine_sort import MachineSorter
from ..graphs.base import FactorGraph
from ..schedule import ComparatorDAG

__all__ = ["emit_schedule", "adversarial_key_sets"]


def emit_schedule(factor: FactorGraph, r: int, backend: str = "machine") -> ComparatorDAG:
    """Emit the static schedule for one configuration, without running keys."""
    if backend == "machine":
        return MachineSorter.for_factor(factor, r).schedule()
    if backend == "lattice":
        return ProductNetworkSorter.for_factor(factor, r).schedule()
    raise ValueError(f"unknown backend {backend!r} (expected 'machine' or 'lattice')")


def adversarial_key_sets(num_nodes: int, seed: int = 0) -> dict[str, np.ndarray]:
    """Key assignments that stress a comparator schedule.

    Already sorted (no comparator should move anything), reverse sorted
    (every comparator under pressure), all-equal (tie handling), alternating
    0/1 (zero-one-principle shape), and uniform random keys.
    """
    rng = np.random.default_rng(seed)
    base = np.arange(num_nodes, dtype=np.int64)
    return {
        "ascending": base.copy(),
        "descending": base[::-1].copy(),
        "constant": np.zeros(num_nodes, dtype=np.int64),
        "alternating": (base % 2).copy(),
        "random": rng.integers(0, 2**31, size=num_nodes),
    }
