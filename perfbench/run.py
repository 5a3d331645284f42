"""Run one benchmark workload against the ``repro`` package in ``src/``.

    python3 perfbench/run.py --workload scale-cold --seed 1 --seconds 38 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that reports per-layer metrics, writing its spans
to ``.perfbench/`` as JSON lines.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the host, the calibration and detail behind the metrics.
Run from the repository root (or a checkout of it): the benchmark imports
``repro`` from that tree's ``src/`` and exits non-zero without a result when
the tree holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 5  # set-ups per run: this process's, and four in fresh interpreters
SETUP_REFS = 9  # Python reference loops timed right after each set-up

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_s": "s",
    "call_ms_gmean": "ms",
    "kernel_keys_per_s": "1/s",
    "oblivious_price_x": "x",
    "serve_p50_ms": "ms",
    "serve_capacity_rps": "1/s",
}


def _import_repro() -> None:
    """Import ``repro`` from this tree's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    import repro.core.lattice_sort  # noqa: F401
    import repro.schedule  # noqa: F401
    import repro.serve  # noqa: F401


def _since_process_start() -> float:
    """Seconds since this process started, from ``/proc`` (the start time
    has a resolution of one clock tick, 10 ms)."""
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _setup_elsewhere(args: argparse.Namespace) -> dict[str, float]:
    """The same set-up in a fresh interpreter, timed there."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def host_info(seed: int) -> dict[str, object]:
    import numpy as np

    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{idx}/level"), _read(f"{idx}/type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(f"{idx}/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor() or platform.machine(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="do the set-up, print its time as JSON, and exit")
    args = ap.parse_args(argv)

    # set-up: interpreter start, imports, the seeded inputs, and one small
    # untimed build that absorbs lazy imports and first-call costs
    _import_repro()
    import bench
    from tracing import NullRecorder, Recorder

    if args.workload not in bench.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(bench.WORKLOADS)}")
    wl = bench.WORKLOADS[args.workload]
    inputs = bench.make_inputs(wl, args.seed, args.seconds)
    bench.warm_up()
    setup_raw_s = _since_process_start()
    # set-up is mostly Python work (imports); put it at the reference's
    # nominal speed, measured right after it
    ref_s = median(bench.Reference().python() for _ in range(SETUP_REFS))
    setup = {"setup_s": setup_raw_s * bench.PY_REF_NOMINAL_S / ref_s,
             "raw_s": setup_raw_s, "ref_s": ref_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    # a single set-up lands in whatever speed the host has for that second
    setups = [setup] + [_setup_elsewhere(args) for _ in range(SETUP_RUNS - 1)]

    checker = bench.Checker()
    rec = Recorder() if args.trace else NullRecorder()
    res = bench.run_workload(wl, inputs, args.seconds, checker, rec)
    raw = bench.raw_end_to_end(res)
    raw["setup_s"] = median(s["raw_s"] for s in setups)
    e2e = bench.end_to_end(res)
    e2e["setup_s"] = median(s["setup_s"] for s in setups)
    # late chunks are left out of the latencies; a run in which more than
    # half of them were late measured the host's stalls, not the service
    late = 2 * res.late_chunks > res.chunks
    detail = {
        "workload": wl.name,
        "host": host_info(args.seed),
        # the same-batch np.sort timings behind oblivious_price_x, and the
        # samples behind every other end-to-end figure
        "npsort_s": res.npsort_s,
        "kernel_s": res.kernel_s,
        "batch_keys": res.batch_keys,
        "cold_s": res.cold_s,
        "warm_ms": res.warm_ms,
        "burst_rps": res.burst_rps,
        # the reference loops, and the figures before they were applied
        "reference_s": {"python": res.ref_py_s, "numpy": res.ref_np_s},
        "setups": setups,
        "raw": raw,
        "gen_lag_p99_ms": float(bench.np.percentile(res.lag, 99)) * 1e3,
        "chunks": {"run": res.chunks, "late": res.late_chunks},
        "invalid": "open-loop generator ran late in most chunks" if late else None,
        "failures": checker.reasons,
        # serve_p99_ms spreads too widely between runs on a shared 2-core
        # host to gate; it is reported here, not among the metrics
        "ungated": {"serve_p99_ms": e2e.pop("serve_p99_ms")},
    }
    if isinstance(rec, Recorder):
        metrics = bench.per_layer(res, rec)
        units = {k: "count" if k.endswith((".ops", ".validated", ".ops_removed", ".layers",
                                           ".batches", ".rejected", ".late_chunks")) else
                 "B" if k.endswith("bytes_computed") else "%" if k.endswith("_pct") else
                 "ms" if k.endswith("_ms") else "req/batch" if k.endswith("batch_mean") else "s"
                 for k in metrics}
        rec.write(ROOT / ".perfbench" / f"spans-{wl.name}-{args.seed}.jsonl")
    else:
        metrics, units = e2e, E2E_UNITS
    print(json.dumps(detail))
    print(json.dumps({
        "correct": checker.failed == 0 and not late,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
