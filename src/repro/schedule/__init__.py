"""The execution spine: one emitted Schedule IR, many interpreters.

``repro.schedule`` owns the static schedule of the paper's algorithm:

* :mod:`repro.schedule.ir` — the :class:`ComparatorDAG` datatype (phases →
  rounds → ops), its canonical SHA-256 hash and the reference
  :func:`replay` semantics;
* :mod:`repro.schedule.emit` — keyless emitters producing the IR from the
  §3.1/§3.3 recursion for both backends;
* :mod:`repro.schedule.compiled` — the layer-packed compiled batch kernel
  (and the per-round plan), cached by schedule hash;
* :mod:`repro.schedule.walk` — the span-program walker both backends'
  traced runs (and the machine backend's every run) go through.

The lattice and machine backends interpret this artifact; the static checker
lints it; :mod:`repro.staticcheck.extract` merely certifies that live runs
reproduce it.  See ``docs/schedule-ir.md`` for the architecture.
"""

from typing import Any

from .activity import (
    ActivityTracker,
    ZeroOneActivity,
    analyze_zero_one_activity,
    apply_zero_one_round,
    exhaustive_zero_one_states,
)
from .compiled import (
    CompiledSchedule,
    ScheduleLayer,
    clear_kernel_cache,
    compile_schedule,
    get_profiler,
    reject_nan,
    round_plan,
    set_profiler,
)
from .emit import (
    EmittedSchedule,
    SpanInstr,
    clear_emission_caches,
    emit_lattice_program,
    emit_lattice_schedule,
    emit_machine_schedule,
    span_path_entry,
)
from .ir import (
    BlockSortOp,
    ComparatorDAG,
    ComparatorOp,
    SchedulePhase,
    ScheduleRound,
    phase_detail,
    replay,
    snake_order_nodes,
)
from .optimize import (
    PASS_NAMES,
    OptimizationCertificate,
    OptimizationResult,
    agglomerate_chains,
    clear_optimizer_cache,
    eliminate_dead_ops,
    optimize_schedule,
    repack_rounds,
)
from .walk import charge_phase, walk_program

__all__ = [
    "ActivityTracker",
    "BlockSortOp",
    "ComparatorDAG",
    "ComparatorOp",
    "CompiledSchedule",
    "EmittedSchedule",
    "OptimizationCertificate",
    "OptimizationResult",
    "PASS_NAMES",
    "ScheduleLayer",
    "SchedulePhase",
    "ScheduleRound",
    "SpanInstr",
    "ZeroOneActivity",
    "agglomerate_chains",
    "analyze_zero_one_activity",
    "apply_zero_one_round",
    "cache_stats",
    "charge_phase",
    "clear_caches",
    "clear_optimizer_cache",
    "compile_schedule",
    "eliminate_dead_ops",
    "exhaustive_zero_one_states",
    "optimize_schedule",
    "repack_rounds",
    "emit_lattice_program",
    "emit_lattice_schedule",
    "emit_machine_schedule",
    "get_profiler",
    "phase_detail",
    "reject_nan",
    "replay",
    "round_plan",
    "set_profiler",
    "snake_order_nodes",
    "span_path_entry",
    "walk_program",
]


def clear_caches() -> None:
    """Drop every memoised schedule artifact and reset all cache statistics.

    Covers the compiled-kernel cache, both emission caches and the
    optimizer's result cache — the test-isolation hook the
    ``schedule_caches`` fixture uses, and the knob for long-lived processes
    that want to bound memory.
    """
    clear_kernel_cache()
    clear_emission_caches()
    clear_optimizer_cache()


def cache_stats() -> dict[str, dict[str, Any]]:
    """Hit/miss/build-time/size snapshot of every schedule cache, by name."""
    from ..observability.cachestats import all_cache_stats

    return all_cache_stats()
