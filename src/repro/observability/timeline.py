"""Per-super-step machine timeline: what the hardware did, step by step.

Where the span tree answers *which phase ran when*, the timeline answers the
machine-level questions underneath: how many node pairs each compare-exchange
super-step engaged (parallelism actually exploited), which paper dimension
carried it, and whether the exchange rode network links or had to route.
It is a plain subscriber to the ``machine_step`` events a
:class:`~repro.machine.machine.NetworkMachine` publishes on its bus::

    timeline = MachineTimeline(sorter.network, bus=tracer.bus)
    sorter.sort(keys, tracer=tracer)
"""

from __future__ import annotations

from dataclasses import dataclass

from .events import EventBus, TraceEvent

__all__ = ["MachineStep", "MachineTimeline"]


@dataclass(frozen=True)
class MachineStep:
    """One compare-exchange super-step, as the machine executed it."""

    #: 0-based super-step index
    index: int
    #: node pairs engaged simultaneously
    pairs: int
    #: synchronous rounds the step was charged (>1 only when routing)
    rounds: int
    #: paper dimension (1 = rightmost symbol) all pairs lie in, or ``None``
    #: when one step mixes dimensions
    dimension: int | None
    #: True when every pair was a factor edge (no routing needed)
    adjacent: bool
    #: fraction of the machine's nodes busy this step
    utilisation: float
    #: wall-clock stamp (perf_counter seconds) when the step was published
    time: float
    #: directed link traversals when the step routed (0 for adjacent steps)
    routed_hops: int = 0
    #: deepest intermediate-node buffer the step's routing needed
    peak_buffer_depth: int = 0


class MachineTimeline:
    """Ordered record of every super-step of one machine run.

    Parameters
    ----------
    network:
        the :class:`~repro.graphs.product.ProductGraph` being simulated.
    bus:
        optional :class:`EventBus`; when given, the timeline subscribes
        itself (construct unattached and call :meth:`on_event` manually to
        replay a recorded stream).
    """

    def __init__(self, network, bus: EventBus | None = None) -> None:
        self.network = network
        self.steps: list[MachineStep] = []
        if bus is not None:
            bus.subscribe(self)

    def on_event(self, event: TraceEvent) -> None:
        if event.kind != "machine_step":
            return
        attrs = event.attrs
        routes = attrs["routes"]
        self.steps.append(
            MachineStep(
                index=attrs["step"],
                pairs=len(attrs["pairs"]),
                rounds=attrs["rounds"],
                dimension=attrs["dimension"],
                adjacent=attrs["adjacent"],
                utilisation=attrs["utilisation"],
                time=event.time,
                routed_hops=attrs["link_traversals"] if routes is not None else 0,
                peak_buffer_depth=routes.peak_buffer_depth if routes is not None else 0,
            )
        )

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Aggregate view: totals plus per-dimension step/pair counts."""
        steps = self.steps
        per_dim_steps: dict[int, int] = {}
        per_dim_pairs: dict[int, int] = {}
        for s in steps:
            if s.dimension is not None:
                per_dim_steps[s.dimension] = per_dim_steps.get(s.dimension, 0) + 1
                per_dim_pairs[s.dimension] = per_dim_pairs.get(s.dimension, 0) + s.pairs
        pair_count = sum(s.pairs for s in steps)
        return {
            "steps": len(steps),
            "rounds": sum(s.rounds for s in steps),
            "pairs": pair_count,
            "mean_parallelism": pair_count / len(steps) if steps else 0.0,
            "peak_utilisation": max((s.utilisation for s in steps), default=0.0),
            "routed_steps": sum(1 for s in steps if not s.adjacent),
            "dimension_steps": dict(sorted(per_dim_steps.items())),
            "dimension_pairs": dict(sorted(per_dim_pairs.items())),
        }

    def reset(self) -> None:
        """Forget everything (reuse across runs)."""
        self.steps.clear()
