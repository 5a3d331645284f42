"""The one walker for emitted span programs (:class:`~repro.schedule.emit.SpanInstr`).

What executing a phase means is the caller's: the lattice backend applies
the phase's layer of the per-round plan, the machine backend issues its
rounds as compare-exchange super-steps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..observability.tracer import point_emitter
from .ir import SchedulePhase, phase_detail

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.metrics import CostLedger
    from ..observability.tracer import NullTracer, Tracer
    from .emit import SpanInstr

__all__ = ["charge_phase", "walk_program"]


def charge_phase(ledger: "CostLedger", phase: SchedulePhase, backend: str) -> None:
    """Charge one executed phase in the paper's accounting."""
    charge = ledger.charge_s2 if phase.kind == "s2" else ledger.charge_routing
    charge(phase.charged_rounds, detail=phase_detail(phase, backend))


def walk_program(
    program: Sequence["SpanInstr"],
    phases: Sequence[SchedulePhase],
    run_phase: Callable[[int], None],
    tracer: "Tracer | NullTracer",
    ledger: "CostLedger",
    backend: str,
    snapshot: Callable[[int], Any] | None = None,
) -> None:
    """Interpret a span program.

    ``run_phase(i)`` executes ``phases[i]`` when its span opens; the span's
    close charges it with ``backend``'s detail wording.  A point marker
    publishes ``snapshot(dim)`` when the tracer's bus has a subscriber.
    """
    emit = point_emitter(tracer) if snapshot is not None else None
    stack: list[Any] = []
    for instr in program:
        if instr.op == "open":
            stack.append(tracer.span(instr.name, **instr.attrs).__enter__())
            if instr.phase is not None:
                run_phase(instr.phase)
        elif instr.op == "close":
            span = stack.pop()
            if not tracer.disabled:
                span.set(**instr.attrs)
            span.__exit__(None, None, None)
            if instr.phase is not None:
                charge_phase(ledger, phases[instr.phase], backend)
        elif emit is not None and snapshot is not None:
            emit(instr.name, snapshot(instr.attrs["dim"]))
