"""The full sorting algorithm, sequence level (paper §3.3).

To sort ``N**r`` keys (``r >= 2``):

1. divide the sequence into ``N**(r-2)`` subsequences of ``N**2`` keys and
   sort each independently with the assumed two-dimensional sorter;
2. repeatedly group the sorted sequences into sets of ``N`` and merge each
   group with the §3.1 multiway merge, until one sequence remains.

Round ``j`` of merging (``j = 3..r``) combines ``N`` sorted sequences of
``N**(j-1)`` keys each — on the network, one merge inside every
``PG_j`` subgraph (paper §4); here it is pure sequence manipulation used as
the executable specification and as a standalone (if slow) sorter.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from ..observability import coerce_tracer, point_emitter
from ..schedule.compiled import NAN_KEYS_MESSAGE
from .multiway_merge import (
    Exchange,
    Sort2,
    TracerLike,
    _multiway_merge,
    _swap_exchange,
    default_sort2,
)

__all__ = ["multiway_merge_sort", "required_order"]


def required_order(total: int, n: int) -> int:
    """The ``r`` with ``total == n**r``; raises if there is none."""
    if total < 1:
        raise ValueError("need at least one key")
    r = 0
    t = total
    while t % n == 0:
        t //= n
        r += 1
    if t != 1:
        raise ValueError(f"{total} keys is not a power of N={n}")
    return r


def multiway_merge_sort(
    keys: Sequence[Any],
    n: int,
    sort2: Sort2 = default_sort2,
    on_round: Callable[[int, list[list[Any]]], None] | None = None,
    exchange: Exchange = _swap_exchange,
    tracer: TracerLike = None,
) -> list[Any]:
    """Sort ``N**r`` keys by repeated multiway merging (§3.3).

    Parameters
    ----------
    keys:
        ``N**r`` keys, ``r >= 2``.
    n:
        the radix ``N`` (the factor-graph size on the network).
    sort2:
        the assumed ``N**2``-key sorter.
    on_round:
        optional observer ``on_round(k, sequences)`` called after the
        initial sort (``k == 2``) and after every merge round (``k = 3..r``)
        with the current list of sorted sequences.
    tracer:
        optional :class:`~repro.observability.tracer.Tracer` or bare
        :class:`~repro.observability.events.EventBus`; records a ``sort``
        root span with one ``merge-round`` child per ``k = 3..r``, each
        containing its merges' sequence-level span trees.  When the bus has
        subscribers, every top-level merge additionally publishes its stage
        snapshots as ``point`` events (inner recursive merges stay silent,
        mirroring how the network accounts one recursion's cost).

    Returns the fully sorted list.  A NaN key raises ``ValueError``: every
    comparison against it is false, so the other keys would come back
    unsorted.
    """
    if any(key != key for key in keys):  # NaN is the one key unequal to itself
        raise ValueError(NAN_KEYS_MESSAGE)
    r = required_order(len(keys), n)
    if r < 2:
        raise ValueError("the algorithm sorts N**r keys for r >= 2 (§3.3)")
    tracer = coerce_tracer(tracer)
    emit = point_emitter(tracer)

    with tracer.span("sort", backend="sequence", n=n, r=r, keys=len(keys)):
        block = n * n
        with tracer.span("initial-block-sorts", kind="s2", n=n, blocks=len(keys) // block):
            sequences: list[list[Any]] = [
                sort2(list(keys[i : i + block])) for i in range(0, len(keys), block)
            ]
        if on_round is not None:
            on_round(2, [list(s) for s in sequences])

        k = 2
        while len(sequences) > 1:
            k += 1
            merged: list[list[Any]] = []
            with tracer.span("merge-round", dim=k, groups=len(sequences) // n):
                for g in range(0, len(sequences), n):
                    group = sequences[g : g + n]
                    merged.append(
                        _multiway_merge(group, sort2, False, exchange, tracer, emit)
                    )
            sequences = merged
            if on_round is not None:
                on_round(k, [list(s) for s in sequences])
    return sequences[0]
