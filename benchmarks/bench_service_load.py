"""Sustained-load latency: percentiles from the jobs' own lifecycle events.

Fires a duplicate-heavy burst of mixed traffic — WCET kernels analysed
both ways, Table-7 side-channel clients, plus concurrent ``mitigate``
calls — at a live daemon from many client threads, then computes
queue-wait and end-to-end latency percentiles **from the recorded
lifecycle events** (the ``events`` RPC), not from client-side clocks:

* queue wait  = ``dispatched.t`` - ``queued.t`` (a coalesced job's
  execution events live on its primary, so the daemon concatenates
  both logs and the wait is primary-dispatch minus own enqueue);
* end-to-end  = terminal (``done``/``failed``) ``t`` - ``queued.t``.

By default the harness owns its daemon (an in-process
:class:`~repro.service.server.ReproServer` on an ephemeral port);
``--port`` aims it at an already-running daemon instead, which is how CI
exercises the real service stack.  ``--events-out`` dumps every recorded
event as JSON lines and ``--summary-out`` the latency summary, so a CI
run leaves artifacts a human can replay.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_service_load.py [--smoke]

or under pytest (explicit path, as for all benchmarks)::

    PYTHONPATH=src python -m pytest benchmarks/bench_service_load.py -s
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
from pathlib import Path

from repro.bench.programs import WCET_BENCHMARKS, wcet_benchmark_source
from repro.bench.tables import BENCH_CACHE, BENCH_SPECULATION, table7_client_request
from repro.engine.request import AnalysisRequest
from repro.service.client import ServiceClient
from repro.service.scheduler import FINISHED_JOBS_KEPT
from repro.service.server import ReproServer

#: Crypto kernels used for the side-channel slice of the mix (cheap ones
#: first so ``--smoke`` stays fast).
SIDECHANNEL_KERNELS = ("hash", "encoder", "chacha20", "ocb")


def build_request_pool(wcet_programs: int, sidechannel_programs: int) -> list[AnalysisRequest]:
    """The distinct requests: each WCET kernel both ways, plus Table-7
    side-channel clients.  The submit stream cycles over this pool, so a
    small pool under a large burst is exactly the duplicate-heavy shape
    that exercises coalescing."""
    pool: list[AnalysisRequest] = []
    for name in list(WCET_BENCHMARKS)[:wcet_programs]:
        source = wcet_benchmark_source(name, BENCH_CACHE.num_lines, BENCH_CACHE.line_size)
        common = dict(
            source=source,
            line_size=BENCH_CACHE.line_size,
            cache_config=BENCH_CACHE,
            label=name,
        )
        pool.append(AnalysisRequest.baseline(**common))
        pool.append(AnalysisRequest.speculative(speculation=BENCH_SPECULATION, **common))
    for name in SIDECHANNEL_KERNELS[:sidechannel_programs]:
        pool.append(table7_client_request(name))
    return pool


def percentile(samples: list[float], q: float) -> float:
    """Exact nearest-rank percentile of raw samples (no bucketing)."""
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def _submit_worker(host, port, requests, job_ids, errors):
    """One client thread: fire every submit first (non-blocking RPCs, so
    duplicates land while their primaries are still in flight), then
    block on the results."""
    try:
        with ServiceClient(host=host, port=port) as client:
            ids = [client.submit(request) for request in requests]
            job_ids.extend(ids)
            for job_id in ids:
                client.result(job_id, timeout=600)
    except Exception as error:  # noqa: BLE001 - recorded, re-raised by main
        errors.append(error)


def _mitigate_worker(host, port, count, errors):
    """Concurrent ``mitigate`` traffic on the connection threads — load
    the scheduler does not see, mixed in to keep the daemon honest."""
    try:
        with ServiceClient(host=host, port=port) as client:
            for index in range(count):
                name = SIDECHANNEL_KERNELS[index % 2]  # hash / encoder
                client.mitigate(table7_client_request(name), optimize=True)
    except Exception as error:  # noqa: BLE001
        errors.append(error)


def harvest_latencies(host: str, port: int, job_ids: list[str]):
    """Fetch every job's lifecycle log and extract the two latencies.

    Returns ``(all_events, queue_waits, e2e, coalesced_count, failed)``.
    Every latency is computed from the daemon's monotonic ``t`` stamps.
    """
    all_events: list[dict] = []
    queue_waits: list[float] = []
    e2e: list[float] = []
    coalesced = 0
    failed = 0
    with ServiceClient(host=host, port=port) as client:
        for job_id in job_ids:
            events = client.events(job_id)
            all_events.extend(events)
            queued = next(
                e for e in events if e["event"] == "queued" and e["job_id"] == job_id
            )
            if any(e["event"] == "coalesced" and e["job_id"] == job_id for e in events):
                coalesced += 1
            dispatched = next((e for e in events if e["event"] == "dispatched"), None)
            terminal = next(
                (e for e in events if e["event"] in ("done", "failed")), None
            )
            assert dispatched is not None and terminal is not None, (
                f"job {job_id} has no terminal lifecycle event"
            )
            if terminal["event"] == "failed":
                failed += 1
            # A job that coalesced into an already-dispatched primary
            # never waited: work on its behalf was in flight on arrival.
            queue_waits.append(max(0.0, dispatched["t"] - queued["t"]))
            e2e.append(terminal["t"] - queued["t"])
    return all_events, queue_waits, e2e, coalesced, failed


def run(args, host: str, port: int) -> dict:
    pool = build_request_pool(args.wcet_programs, args.sidechannel_programs)
    stream = [pool[i % len(pool)] for i in range(args.submits)]
    random.Random(args.seed).shuffle(stream)
    distinct = len({request.result_key() for request in pool})
    print(
        f"workload: {args.submits} submits over {distinct} distinct requests, "
        f"{args.threads} client threads, {args.mitigate} mitigate calls"
    )

    errors: list[Exception] = []
    job_ids: list[str] = []
    threads = []
    per_thread = (len(stream) + args.threads - 1) // args.threads
    started = time.perf_counter()
    for index in range(args.threads):
        chunk = stream[index * per_thread : (index + 1) * per_thread]
        if not chunk:
            continue
        thread = threading.Thread(
            target=_submit_worker, args=(host, port, chunk, job_ids, errors)
        )
        thread.start()
        threads.append(thread)
    if args.mitigate:
        thread = threading.Thread(
            target=_mitigate_worker, args=(host, port, args.mitigate, errors)
        )
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]

    events, queue_waits, e2e, coalesced, failed = harvest_latencies(host, port, job_ids)
    assert len(job_ids) == args.submits, "every submit must produce a job id"
    assert failed == 0, f"{failed} job(s) failed under load"
    assert coalesced > 0, "a duplicate-heavy burst must coalesce at least one job"

    summary = {
        "submits": args.submits,
        "distinct_requests": distinct,
        "threads": args.threads,
        "mitigate_calls": args.mitigate,
        "wall_seconds": wall,
        "throughput_jobs_per_s": args.submits / wall if wall > 0 else float("inf"),
        "coalesced_jobs": coalesced,
        "coalesced_fraction": coalesced / len(job_ids),
        "failed_jobs": failed,
        "events_recorded": len(events),
        "queue_wait_ms": {
            "p50": percentile(queue_waits, 0.50) * 1e3,
            "p95": percentile(queue_waits, 0.95) * 1e3,
            "p99": percentile(queue_waits, 0.99) * 1e3,
        },
        "e2e_ms": {
            "p50": percentile(e2e, 0.50) * 1e3,
            "p95": percentile(e2e, 0.95) * 1e3,
            "p99": percentile(e2e, 0.99) * 1e3,
        },
    }
    for metric in ("queue_wait_ms", "e2e_ms"):
        p = summary[metric]
        assert p["p50"] <= p["p95"] <= p["p99"], f"{metric} percentiles not monotone: {p}"

    print(f"burst wall time: {wall:.3f}s ({summary['throughput_jobs_per_s']:.1f} jobs/s)")
    print(
        f"coalesced: {coalesced}/{len(job_ids)} jobs "
        f"({100 * summary['coalesced_fraction']:.1f}%)"
    )
    for metric, label in (("queue_wait_ms", "queue wait"), ("e2e_ms", "end-to-end")):
        p = summary[metric]
        print(
            f"{label:>11}: p50={p['p50']:8.2f}ms  p95={p['p95']:8.2f}ms  "
            f"p99={p['p99']:8.2f}ms"
        )

    if args.events_out:
        path = Path(args.events_out)
        with path.open("w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        print(f"wrote {len(events)} lifecycle events to {path}")
    if args.summary_out:
        Path(args.summary_out).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote summary to {args.summary_out}")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small burst for CI (~60 submits, 4 threads)")
    parser.add_argument("--submits", type=int, default=600,
                        help="total submit calls (duplicate-heavy: cycles the pool; "
                             f"at most {FINISHED_JOBS_KEPT}, the finished jobs a "
                             "daemon keeps for the harvest)")
    parser.add_argument("--threads", type=int, default=8,
                        help="concurrent client connections")
    parser.add_argument("--wcet-programs", type=int, default=4)
    parser.add_argument("--sidechannel-programs", type=int, default=2)
    parser.add_argument("--mitigate", type=int, default=2,
                        help="concurrent mitigate calls mixed into the burst")
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="target a running daemon instead of spawning one")
    parser.add_argument("--max-workers", type=int, default=2,
                        help="workers for the spawned daemon (ignored with --port)")
    parser.add_argument("--events-out", default=None,
                        help="write every recorded lifecycle event as JSON lines")
    parser.add_argument("--summary-out", default=None,
                        help="write the latency summary as JSON")
    parser.add_argument("--json", action="store_true",
                        help="write BENCH_service_load.json (see benchlib)")
    args = parser.parse_args(argv)
    if args.submits > FINISHED_JOBS_KEPT:
        parser.error(f"--submits above {FINISHED_JOBS_KEPT} cannot be harvested")
    if args.smoke:
        args.submits = min(args.submits, 60)
        args.threads = min(args.threads, 4)
        args.wcet_programs = min(args.wcet_programs, 2)
        args.sidechannel_programs = min(args.sidechannel_programs, 1)
        args.mitigate = min(args.mitigate, 1)

    if args.port is not None:
        summary = run(args, args.host, args.port)
    else:
        server = ReproServer(port=0, max_workers=args.max_workers).start()
        try:
            summary = run(args, server.host, server.port)
        finally:
            server.stop()

    if args.json:
        import benchlib

        benchlib_path = benchlib.write_bench_json(
            "service_load",
            params={
                "smoke": args.smoke,
                "submits": args.submits,
                "threads": args.threads,
                "mitigate": args.mitigate,
            },
            rows=[
                {"metric": "queue_wait_ms", **summary["queue_wait_ms"]},
                {"metric": "e2e_ms", **summary["e2e_ms"]},
                {
                    "metric": "burst",
                    "wall_seconds": summary["wall_seconds"],
                    "coalesced_fraction": summary["coalesced_fraction"],
                },
            ],
            wall_seconds=summary["wall_seconds"],
        )
        print(f"wrote {benchlib_path}")
    return 0


# ----------------------------------------------------------------------
# pytest entry point (explicit: pytest benchmarks/bench_service_load.py)
# ----------------------------------------------------------------------
def test_latency_percentiles_from_lifecycle_events(tmp_path):
    argv = [
        "--smoke",
        "--events-out", str(tmp_path / "events.jsonl"),
        "--summary-out", str(tmp_path / "summary.json"),
    ]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["coalesced_jobs"] > 0
    assert summary["e2e_ms"]["p50"] <= summary["e2e_ms"]["p99"]
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    assert len(lines) == summary["events_recorded"]


if __name__ == "__main__":
    sys.exit(main())
