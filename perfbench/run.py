"""Repository benchmark: one command, three workloads, every verdict checked.

Run from the repository root::

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

``--workload`` is ``tables``, ``branchy`` or ``service`` (see README.md in
this directory).  ``--seed`` fixes request order and the service stream.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions and reports the per-layer metrics instead.
End-to-end times are in seconds of a host of nominal speed (see
hostspeed.py); per-layer times are raw wall times.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every verdict and self-check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("tables", "branchy", "service")

END_TO_END = {
    "setup_s": "s",
    "throughput_ops": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "lang.parse_s": "s",
    "lang.typecheck_s": "s",
    "ir.unroll_s": "s",
    "ir.lower_s": "s",
    "ir.inline_s": "s",
    "ir.frontend_glue_s": "s",
    "ir.blocks": "count",
    "speculation.vcfg_s": "s",
    "speculation.scenarios": "count",
    "speculation.virtual_edges": "count",
    "analysis.init_s": "s",
    "analysis.fixpoint_s": "s",
    "analysis.classify_s": "s",
    "analysis.baseline_s": "s",
    "analysis.pops": "count",
    "analysis.slot_retransfers": "count",
    "analysis.widenings": "count",
    "cache.join_calls": "count",
    "cache.join_s": "s",
    "cache.leq_calls": "count",
    "cache.leq_s": "s",
    "cache.access_calls": "count",
    "cache.access_s": "s",
    "cache.state_entries_mean": "count",
    "cache.state_entries_max": "count",
    "cache.domain_share": "ratio",
    "engine.run_s": "s",
    "engine.compile_hit_rate": "ratio",
    "engine.result_hit_rate": "ratio",
    "mitigation.synthesize_s": "s",
    "mitigation.patch_s": "s",
    "mitigation.analyses_run": "count",
    "mitigation.fences": "count",
    "service.queue_wait_p50_ms": "ms",
    "service.execute_p50_ms": "ms",
    "service.rpc_overhead_p50_ms": "ms",
    "service.coalesced_frac": "ratio",
    "service.store_writes": "count",
    "trace.overhead_frac": "ratio",
    "trace.self_time_coverage": "ratio",
}

#: Modules each workload's process imports before its first timed op.
_IMPORTS = {
    "tables": "inproc",
    "branchy": "inproc",
    "service": "loadgen",
}

#: Fresh interpreters timed per run for the import part of ``setup_s``.
_IMPORT_PROBES = 5


def import_seconds(workload: str) -> float:
    """Median time of a fresh interpreter importing the workload's modules
    (interpreter start included), in nominal-host seconds."""
    code = (
        "import sys; "
        f"sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]; "
        f"import {_IMPORTS[workload]}"
    )
    times = []
    with hostspeed.HostClock() as clock:
        for _ in range(_IMPORT_PROBES):
            started = clock.now()
            # No timeout: with one, the wait polls in steps of up to 50 ms.
            subprocess.run([sys.executable, "-c", code], check=True)
            times.append(clock.now() - started)
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "service":
        import loadgen as workload
    else:
        import inproc as workload
    outcome, setups = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        declared = PER_LAYER
        for name in PER_LAYER:
            outcome.metrics.setdefault(name, 0.0)
    else:
        declared = END_TO_END
        outcome.metrics["setup_s"] = import_seconds(args.workload) + statistics.median(setups)
        outcome.notes["setup_s"] = (
            f"median of {_IMPORT_PROBES} fresh imports + median of {len(setups)} set-ups"
        )

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if hostspeed.TAKEN:
        print(
            f"  host speed: reference loop median {statistics.median(hostspeed.TAKEN) * 1e3:.3f} ms"
            f" over {len(hostspeed.TAKEN)} probes, nominal {hostspeed.NOMINAL_PROBE_S * 1e3:.3f} ms"
        )
    for name, unit in declared.items():
        note = outcome.notes.get(name)
        print(f"  {name:28s} {outcome.metrics[name]:14.6g} {unit:6s}" + (f"  [{note}]" if note else ""))
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'error_rate':28s} {error_rate:14.6g} ratio   [{outcome.failed} of {outcome.attempted} ops]")
    for problem in outcome.problems:
        print(f"  FAIL: {problem}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in declared.items()
                },
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
