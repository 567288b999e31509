"""The ``repro`` command-line interface.

Subcommands::

    repro serve        run the analysis daemon (socket server + scheduler + store)
    repro submit       analyse one MiniC source file (via the daemon, or --local)
    repro wcet         Table-5-shaped WCET comparison for benchmark kernels
    repro sidechannel  Table-7-shaped leak detection for crypto kernels
    repro lint         compile one MiniC file and verify the produced IR
    repro mitigate     synthesise verified fence placements that close leaks
    repro stats        engine / scheduler / store / metrics of a running daemon
    repro top          live queue/worker view of a running daemon
    repro trace        span tree of one daemon job (by job id)

``repro submit --watch`` streams the job's lifecycle + progress events
(fixpoint and classify phases, pop counts, mitigation candidates) live
over the daemon's ``watch`` RPC while the analysis runs.  ``repro stats
--prom`` renders the daemon's full metrics registry in Prometheus text
exposition format for scrapers; the human-readable ``repro stats``
output adds bucket-interpolated p50/p99 lines for every histogram.

``repro serve --trace PATH`` (or the ``REPRO_TRACE`` environment
variable, which works for every command) additionally streams every
completed span to ``PATH`` as JSON lines; the daemon always keeps a
bounded in-memory span buffer, so ``repro trace <job-id>`` works with no
trace file configured.  ``repro submit`` prints the id of the job that
served it when talking to a daemon.

``wcet``, ``sidechannel``, ``mitigate`` and ``stats`` accept ``--json``,
printing machine-readable rows for CI and scripts.  ``submit``, ``wcet``,
``sidechannel`` and ``mitigate`` also accept ``--associativity N`` and
``--policy {lru,fifo}`` to analyse against a set-associative and/or FIFO
cache model instead of the paper's fully-associative LRU default.

``submit``, ``wcet`` and ``sidechannel`` are thin service clients: they
build :class:`~repro.engine.request.AnalysisRequest` values locally and
resolve them against a daemon (``--host``/``--port``), falling back to an
in-process engine backed by the same on-disk store with ``--local`` — so
warm results are shared between the daemon and one-shot CLI runs.

``repro submit --verify`` additionally recomputes the request from
scratch in-process and asserts the served result is semantically
bit-identical (see :func:`repro.service.wire.result_fingerprint`); the CI
smoke job leans on this.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from repro.engine.engine import AnalysisEngine, execute_request
from repro.engine.request import AnalysisKind, AnalysisRequest
from repro.obs import histogram_quantile, render_prometheus
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import DEFAULT_PORT, ReproServer
from repro.service.store import ResultStore
from repro.service.wire import result_fingerprint, result_to_wire

#: Default on-disk store location for ``serve`` and ``--local`` runs.
DEFAULT_STORE_DIR = ".repro-store"


# ----------------------------------------------------------------------
# Backends: a daemon connection or an in-process engine
# ----------------------------------------------------------------------
class _LocalBackend:
    """In-process execution with the same two-tier caching as the daemon."""

    def __init__(self, store_dir: str | None):
        self.engine = AnalysisEngine(
            result_store=ResultStore(store_dir) if store_dir else None
        )

    def analyze(self, request: AnalysisRequest) -> dict:
        return result_to_wire(self.engine.run(request))

    def mitigate(self, request: AnalysisRequest, optimize: bool = True) -> dict:
        from repro.mitigation import synthesize_mitigation

        return synthesize_mitigation(
            request, engine=self.engine, optimize=optimize
        ).to_wire()

    def close(self) -> None:
        pass


class _RemoteBackend:
    def __init__(self, host: str, port: int):
        self.client = ServiceClient(host=host, port=port)

    def analyze(self, request: AnalysisRequest) -> dict:
        return self.client.analyze(request)

    def mitigate(self, request: AnalysisRequest, optimize: bool = True) -> dict:
        return self.client.mitigate(request, optimize=optimize)

    def close(self) -> None:
        self.client.close()


def _backend(args: argparse.Namespace):
    if getattr(args, "local", False):
        return _LocalBackend(args.store_dir)
    return _RemoteBackend(args.host, args.port)


# ----------------------------------------------------------------------
# repro serve
# ----------------------------------------------------------------------
def cmd_serve(args: argparse.Namespace) -> int:
    if args.trace:
        # The tracer mirrors REPRO_TRACE on every enabled check, so
        # setting it here (before any span opens) attaches the JSONL
        # sink for the daemon's whole lifetime.
        import os

        os.environ["REPRO_TRACE"] = args.trace
    server = ReproServer(
        store_dir=None if args.no_store else args.store_dir,
        host=args.host,
        port=args.port,
        max_workers=args.max_workers,
        batch_size=args.batch_size,
        slow_job_seconds=args.slow_job_seconds,
        incremental=args.incremental,
    )
    signal.signal(signal.SIGTERM, lambda *_: server.stop())
    store_note = "no store" if args.no_store else f"store at {args.store_dir}"
    incremental_note = (
        ", incremental" if server.engine.incremental_enabled else ""
    )
    print(
        f"repro daemon listening on {server.host}:{server.port} "
        f"({args.max_workers} workers, {store_note}{incremental_note})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    print("repro daemon stopped", flush=True)
    return 0


# ----------------------------------------------------------------------
# repro submit
# ----------------------------------------------------------------------
def _geometry_override(args: argparse.Namespace, base):
    """Apply the ``--associativity``/``--policy`` flags on top of ``base``.

    Returns ``base`` unchanged when neither flag was given, so the
    default requests hash to exactly the same cache keys as before.
    """
    from dataclasses import replace

    overrides = {}
    if getattr(args, "associativity", None) is not None:
        overrides["associativity"] = (
            None if args.associativity == 0 else args.associativity
        )
    if getattr(args, "policy", None) is not None:
        overrides["policy"] = args.policy
    return replace(base, **overrides) if overrides else base


def _add_cache_geometry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--associativity", type=int, default=None,
        help="cache ways per set (0 or omitted: fully associative)",
    )
    parser.add_argument(
        "--policy", choices=["lru", "fifo"], default=None,
        help="cache replacement policy (default: lru)",
    )


def _build_request(args: argparse.Namespace, source: str) -> AnalysisRequest:
    from repro.cache.config import CacheConfig
    from repro.speculation.config import SpeculationConfig

    cache_config = None
    if (
        args.num_lines is not None
        or args.associativity is not None
        or args.policy is not None
    ):
        base = CacheConfig.paper_default()
        cache_config = _geometry_override(
            args,
            CacheConfig(
                num_lines=args.num_lines if args.num_lines is not None else base.num_lines,
                line_size=args.line_size,
            ),
        )
    speculation = None
    if args.depth_miss is not None:
        depth_hit = args.depth_hit if args.depth_hit is not None else min(20, args.depth_miss)
        speculation = SpeculationConfig.paper_default().with_depths(
            args.depth_miss, depth_hit
        )
    return AnalysisRequest(
        source=source,
        kind=AnalysisKind(args.kind),
        entry=args.entry,
        line_size=args.line_size,
        cache_config=cache_config,
        speculation=speculation,
        label=args.label,
    )


def _print_result(wire: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(wire, indent=2, sort_keys=True))
        return
    name = wire["program_name"]
    cached = " (cached)" if wire.get("from_cache") else ""
    print(f"analysis of {name!r}{cached}")
    print(
        f"  accesses: {wire['access_sites']}  must-hit: {wire['must_hits']}  "
        f"possible misses: {wire['misses']}"
    )
    if wire.get("speculation") is not None:
        print(
            f"  speculative misses: {wire['speculative_misses']}  "
            f"speculative branches: {wire['speculative_branches']}"
        )
    verdict = "LEAK DETECTED" if wire["leak_detected"] else "no leak found"
    print(f"  iterations: {wire['iterations']}  time: {wire['analysis_time']:.3f}s")
    print(f"  side channel: {verdict}")


def _format_event(event: dict, first_t: float) -> str:
    """One streamed lifecycle/progress event as a human-readable line,
    timestamped relative to the first event of the stream."""
    name = event["event"]
    if name == "progress":
        name = f"progress {event.get('phase', '?')}"
    skip = {"event", "seq", "t", "ts", "job_id", "phase"}
    detail = "  ".join(
        f"{key}={value}"
        for key, value in event.items()
        if key not in skip and value is not None
    )
    offset = event["t"] - first_t
    return f"  [{offset:8.3f}s] {name}" + (f"  {detail}" if detail else "")


def _watch_submit(args: argparse.Namespace, request: AnalysisRequest):
    """Submit to the daemon and stream the job's events while it runs;
    returns ``(wire result, job id)``."""
    with ServiceClient(host=args.host, port=args.port) as client:
        job_id = client.submit(request)
        print(f"watching {job_id}", flush=True)
        first_t: list[float] = []

        def show(event: dict) -> None:
            if not first_t:
                first_t.append(event["t"])
            print(_format_event(event, first_t[0]), flush=True)

        final = client.watch(job_id, on_event=show)
        if final.get("error"):
            raise ServiceError(final["error"])
        return client.result(job_id), job_id


def cmd_submit(args: argparse.Namespace) -> int:
    if args.source == "-":
        source = sys.stdin.read()
    else:
        with open(args.source, "r", encoding="utf-8") as handle:
            source = handle.read()
    if getattr(args, "trace", None):
        import os

        os.environ["REPRO_TRACE"] = args.trace
    request = _build_request(args, source)
    if args.watch:
        if getattr(args, "local", False):
            print("--watch streams from a daemon; drop --local", file=sys.stderr)
            return 2
        wire, job_id = _watch_submit(args, request)
    else:
        backend = _backend(args)
        try:
            wire = backend.analyze(request)
        finally:
            backend.close()
        job_id = getattr(getattr(backend, "client", None), "last_job_id", None)
    _print_result(wire, args.json)
    if job_id and not args.json:
        print(f"  job: {job_id}  (span tree: repro trace {job_id})")
    if args.verify:
        direct = execute_request(request)
        served, recomputed = result_fingerprint(wire), result_fingerprint(direct)
        if served != recomputed:
            print(
                f"VERIFY FAILED: served fingerprint {served[:16]} != "
                f"direct execution {recomputed[:16]}",
                file=sys.stderr,
            )
            return 2
        print(f"verified: served result identical to direct execution ({served[:16]})")
    return 0


# ----------------------------------------------------------------------
# repro wcet / repro sidechannel
# ----------------------------------------------------------------------
def _bench_requests(source: str, name: str, cache=None):
    """The baseline + speculative request pair every comparison needs."""
    from repro.bench.tables import BENCH_CACHE, BENCH_SPECULATION

    common = dict(
        source=source,
        line_size=BENCH_CACHE.line_size,
        cache_config=cache if cache is not None else BENCH_CACHE,
        label=name,
    )
    return (
        AnalysisRequest.baseline(**common),
        AnalysisRequest.speculative(speculation=BENCH_SPECULATION, **common),
    )


def cmd_wcet(args: argparse.Namespace) -> int:
    from repro.bench.programs import WCET_BENCHMARKS, wcet_benchmark_source
    from repro.bench.tables import BENCH_CACHE

    names = args.benchmarks or ["adpcm", "susan", "jcmarker", "g72", "vga"]
    unknown = [name for name in names if name not in WCET_BENCHMARKS]
    if unknown:
        print(
            f"unknown benchmarks {unknown}; available: {sorted(WCET_BENCHMARKS)}",
            file=sys.stderr,
        )
        return 2

    cache = _geometry_override(args, BENCH_CACHE)
    backend = _backend(args)
    rows = []
    try:
        for name in names:
            source = wcet_benchmark_source(
                name, BENCH_CACHE.num_lines, BENCH_CACHE.line_size
            )
            base_req, spec_req = _bench_requests(source, name, cache)
            rows.append((name, backend.analyze(base_req), backend.analyze(spec_req)))
    finally:
        backend.close()

    from repro.apps.wcet import estimated_cycles

    def cycles(wire: dict) -> int:
        return estimated_cycles(wire["must_hits"], wire["misses"], cache)

    if args.json:
        from repro.service.wire import cache_config_to_wire

        payload = [
            {
                "name": name,
                "cache_config": cache_config_to_wire(cache),
                "access_sites": base["access_sites"],
                "base_misses": base["misses"],
                "spec_misses": spec["misses"],
                "speculative_misses": spec["speculative_misses"],
                "base_cycles": cycles(base),
                "spec_cycles": cycles(spec),
                "underestimated": cycles(spec) > cycles(base),
            }
            for name, base, spec in rows
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    if cache is not BENCH_CACHE:
        print(f"cache: {cache.describe()}")
    print(f"{'name':10s} {'#acc':>5s} {'base miss':>9s} {'spec miss':>9s} "
          f"{'#SpMiss':>7s} {'base cyc':>9s} {'spec cyc':>9s}")
    for name, base, spec in rows:
        flag = "  UNDERESTIMATED" if cycles(spec) > cycles(base) else ""
        print(
            f"{name:10s} {base['access_sites']:5d} {base['misses']:9d} "
            f"{spec['misses']:9d} {spec['speculative_misses']:7d} "
            f"{cycles(base):9d} {cycles(spec):9d}{flag}"
        )
    return 0


def cmd_sidechannel(args: argparse.Namespace) -> int:
    from repro.bench.client import build_client_source
    from repro.bench.crypto import CRYPTO_BENCHMARKS, crypto_kernel
    from repro.bench.tables import BENCH_CACHE, TABLE7_BUFFER_BYTES

    names = args.kernels or ["hash", "encoder", "des", "aes", "salsa"]
    unknown = [name for name in names if name not in CRYPTO_BENCHMARKS]
    if unknown:
        print(
            f"unknown kernels {unknown}; available: {sorted(CRYPTO_BENCHMARKS)}",
            file=sys.stderr,
        )
        return 2

    cache = _geometry_override(args, BENCH_CACHE)
    backend = _backend(args)
    rows = []
    sources: dict[str, str] = {}
    try:
        for name in names:
            kernel = crypto_kernel(name, BENCH_CACHE.num_lines, BENCH_CACHE.line_size)
            buffer_bytes = TABLE7_BUFFER_BYTES.get(name, BENCH_CACHE.size_bytes)
            source = build_client_source(
                kernel, buffer_bytes, line_size=BENCH_CACHE.line_size
            )
            sources[name] = source
            base_req, spec_req = _bench_requests(source, name, cache)
            rows.append(
                (name, buffer_bytes, backend.analyze(base_req), backend.analyze(spec_req))
            )
    finally:
        backend.close()

    # --explain reruns the taint pass locally against the same harness
    # source the requests carried (the daemon never ships blame graphs;
    # leak sites are matched back by (block, instruction index)).
    blames: dict[str, dict] = {}
    if getattr(args, "explain", False):
        from repro.apps.sidechannel import explain_leaks
        from repro.frontend import compile_source

        for name, _buffer_bytes, _base, spec in rows:
            program = compile_source(sources[name], line_size=BENCH_CACHE.line_size)
            sites = sorted(
                {
                    (c["block"], c["instruction_index"])
                    for c in spec["classifications"]
                    if c["secret_dependent"] and not c["speculative"]
                }
            )
            blames[name] = explain_leaks(program, sites)

    def leak_sites(wire: dict) -> int:
        # Committed (non-speculative) sites only — the same definition as
        # CacheAnalysisResult.leak_site_count and the wire leak_detected
        # flag; speculative window copies of a site are not extra leaks.
        return sum(
            1
            for c in wire["classifications"]
            if c["secret_dependent"] and not c["speculative"]
        )

    if args.json:
        from repro.service.wire import cache_config_to_wire

        payload = []
        for name, buffer_bytes, base, spec in rows:
            row = {
                "name": name,
                "cache_config": cache_config_to_wire(cache),
                "buffer_bytes": buffer_bytes,
                "base_leak": base["leak_detected"],
                "spec_leak": spec["leak_detected"],
                "base_leak_sites": leak_sites(base),
                "spec_leak_sites": leak_sites(spec),
                "only_under_speculation": (
                    spec["leak_detected"] and not base["leak_detected"]
                ),
            }
            if name in blames:
                row["blame"] = [
                    {
                        "block": block,
                        "instruction_index": index,
                        "path": [step.to_dict() for step in (path or [])],
                    }
                    for (block, index), path in sorted(blames[name].items())
                ]
            payload.append(row)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    if cache is not BENCH_CACHE:
        print(f"cache: {cache.describe()}")
    print(f"{'kernel':10s} {'buffer':>7s} {'base':>6s} {'spec':>6s}")
    for name, buffer_bytes, base, spec in rows:
        base_leak = "leak" if base["leak_detected"] else "-"
        spec_leak = "leak" if spec["leak_detected"] else "-"
        marker = "  <-- only under speculation" if (
            spec["leak_detected"] and not base["leak_detected"]
        ) else ""
        print(f"{name:10s} {buffer_bytes:7d} {base_leak:>6s} {spec_leak:>6s}{marker}")
    if blames:
        from repro.apps.report import format_blame_paths

        for name, _buffer_bytes, _base, _spec in rows:
            if name in blames and blames[name]:
                print()
                print(format_blame_paths(name, blames[name]))
    return 0


# ----------------------------------------------------------------------
# repro lint
# ----------------------------------------------------------------------
def cmd_lint(args: argparse.Namespace) -> int:
    """Compile one MiniC file and verify the produced IR.

    Exit codes: 0 = clean, 1 = lint findings, 2 = the source does not
    even compile (or usage error).  Always local — the verifier inspects
    the compiled CFGs, which never cross the wire.
    """
    from repro.errors import ReproError
    from repro.frontend import compile_source
    from repro.ir.verify import verify_program

    if args.source == "-":
        source = sys.stdin.read()
    else:
        with open(args.source, "r", encoding="utf-8") as handle:
            source = handle.read()
    try:
        program = compile_source(
            source,
            entry=args.entry,
            line_size=args.line_size,
            unroll=not args.no_unroll,
            inline=not args.no_inline,
        )
    except ReproError as error:
        if args.json:
            print(json.dumps({"error": str(error), "findings": []}, indent=2))
        else:
            print(f"repro lint: compile failed: {error}", file=sys.stderr)
        return 2
    findings = verify_program(program)
    if args.json:
        print(
            json.dumps(
                {
                    "program": program.entry_function,
                    "clean": not findings,
                    "findings": [finding.to_dict() for finding in findings],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 1 if findings else 0
    if not findings:
        blocks = len(program.cfg.blocks)
        print(f"{program.entry_function}: IR clean ({blocks} blocks verified)")
        return 0
    print(f"{program.entry_function}: {len(findings)} finding(s)")
    for finding in findings:
        print(f"  {finding.render()}")
    return 1


# ----------------------------------------------------------------------
# repro mitigate
# ----------------------------------------------------------------------
def cmd_mitigate(args: argparse.Namespace) -> int:
    from repro.bench.crypto import CRYPTO_BENCHMARKS
    from repro.bench.tables import BENCH_CACHE, BENCH_SPECULATION, table7_client_request

    cache = _geometry_override(args, BENCH_CACHE)
    requests: list[AnalysisRequest] = []
    if args.source is not None:
        if args.kernels:
            print("pass either kernel names or --source, not both", file=sys.stderr)
            return 2
        with open(args.source, "r", encoding="utf-8") as handle:
            source = handle.read()
        requests.append(
            AnalysisRequest.speculative(
                source,
                line_size=BENCH_CACHE.line_size,
                cache_config=cache,
                speculation=BENCH_SPECULATION,
                label=args.source,
            )
        )
    else:
        names = args.kernels or sorted(CRYPTO_BENCHMARKS)
        unknown = [name for name in names if name not in CRYPTO_BENCHMARKS]
        if unknown:
            print(
                f"unknown kernels {unknown}; available: {sorted(CRYPTO_BENCHMARKS)}",
                file=sys.stderr,
            )
            return 2
        requests.extend(table7_client_request(name, cache) for name in names)

    backend = _backend(args)
    mitigations: list[dict] = []
    try:
        for request in requests:
            mitigations.append(
                backend.mitigate(request, optimize=not args.no_optimize)
            )
    finally:
        backend.close()

    if args.emit_dir:
        import os

        os.makedirs(args.emit_dir, exist_ok=True)
        for request, wire in zip(requests, mitigations):
            chosen = wire.get(wire["chosen"]) if wire["chosen"] != "none" else None
            if chosen is None:
                continue
            # The name is the label, which for --source is a user path:
            # keep only its basename so output stays inside --emit-dir.
            stem = os.path.basename(wire["name"]) or "program"
            path = os.path.join(args.emit_dir, f"{stem}.mitigated.mc")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(chosen["patched_source"])

    if args.json:
        from repro.service.wire import cache_config_to_wire

        for wire in mitigations:
            wire.setdefault("cache_config", cache_config_to_wire(cache))
        print(json.dumps(mitigations, indent=2, sort_keys=True))
        return 0

    if cache is not BENCH_CACHE:
        print(f"cache: {cache.describe()}")
    print(f"{'kernel':10s} {'leaks':>5s} {'chosen':>9s} {'fences':>6s} "
          f"{'baseline':>8s} {'overhead':>8s} {'verified':>8s}")
    for wire in mitigations:
        chosen = wire.get(wire["chosen"]) if wire["chosen"] != "none" else None
        baseline = wire.get("baseline")
        if chosen is None:
            print(f"{wire['name']:10s} {wire['leak_sites_before']:5d} "
                  f"{'-':>9s} {0:6d} {0:8d} {0:8d} {'safe':>8s}")
            continue
        print(
            f"{wire['name']:10s} {wire['leak_sites_before']:5d} "
            f"{wire['chosen']:>9s} {chosen['source_fences']:6d} "
            f"{baseline['source_fences'] if baseline else 0:8d} "
            f"{chosen['wcet_overhead_cycles']:8d} "
            f"{'yes' if chosen['verified'] else 'NO':>8s}"
        )
    return 0


# ----------------------------------------------------------------------
# repro stats
# ----------------------------------------------------------------------
def cmd_stats(args: argparse.Namespace) -> int:
    with ServiceClient(host=args.host, port=args.port) as client:
        if args.prom:
            # Pure exposition: the registry snapshot rendered in
            # Prometheus text format, nothing else on stdout.
            print(render_prometheus(client.metrics()), end="")
            return 0
        stats = client.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"requests: {stats['requests']}  batches: {stats['batches']} "
          f"({stats['parallel_batches']} parallel)")
    for tier in ("compile_cache", "result_cache", "result_store"):
        counters = stats.get(tier)
        if counters is None:
            print(f"{tier:13s}: (not attached)")
            continue
        extras = ", ".join(
            f"{key}={value}"
            for key, value in counters.items()
            if key not in ("hits", "misses")
        )
        print(f"{tier:13s}: {counters['hits']} hits / {counters['misses']} misses"
              + (f" ({extras})" if extras else ""))
    sched = stats["scheduler"]
    print(
        f"scheduler    : {sched['submitted']} submitted "
        f"({sched['coalesced']} coalesced), {sched['completed']} completed, "
        f"{sched['failed']} failed, {sched['queued']} queued, "
        f"{sched['running']} running"
    )
    incremental = stats.get("incremental")
    if incremental is not None:
        state = "on" if incremental["enabled"] else "off"
        print(
            f"incremental  : {state}, {incremental['warm_hits']} warm hits / "
            f"{incremental['cold_fallbacks']} cold fallbacks "
            f"({incremental['warm_rate']:.0%} warm), "
            f"{incremental['retained']} snapshots retained "
            f"({incremental['snapshots_stored']} stored)"
        )
    slow = stats.get("slow_jobs") or []
    if slow:
        print(f"slow jobs    : {len(slow)} over threshold (most recent last)")
        for entry in slow[-5:]:
            print(
                f"  {entry['job_id']}  {entry.get('e2e_seconds', 0.0):.1f}s  "
                f"{entry.get('label') or ''}"
            )
    registry = stats.get("metrics") or {}
    if registry:
        print("metrics      :")
        for name, entry in sorted(registry.items()):
            if entry.get("type") == "histogram":
                quantiles = ""
                p50 = histogram_quantile(entry, 0.5)
                p99 = histogram_quantile(entry, 0.99)
                if p50 is not None:
                    quantiles = f" p50={p50:.6f} p99={p99:.6f}"
                print(
                    f"  {name:26s} count={entry['count']} "
                    f"sum={entry['sum']:.6f}{quantiles}"
                )
            else:
                print(f"  {name:26s} {entry['value']}")
    return 0


# ----------------------------------------------------------------------
# repro top
# ----------------------------------------------------------------------
def _render_top(top: dict) -> list[str]:
    """One frame of the live queue/worker view as printable lines."""
    import time as _time

    sched = top["scheduler"]
    depth = sched.get("queue_depth") or {}
    instruments = top.get("metrics") or {}

    def quantile_ms(name: str, q: float) -> str:
        payload = instruments.get(name)
        if not payload or payload.get("type") != "histogram":
            return "-"
        value = histogram_quantile(payload, q)
        return f"{value * 1000:.0f}ms" if value is not None else "-"

    clock = _time.strftime("%H:%M:%S", _time.localtime(top.get("time", 0.0)))
    lines = [
        f"repro daemon — {clock}",
        (
            f"queued  high={depth.get('high', 0)} "
            f"normal={depth.get('normal', 0)} low={depth.get('low', 0)}   "
            f"running {sched['running']}/{top.get('max_workers', '?')} workers   "
            f"submitted {sched['submitted']} ({sched['coalesced']} coalesced)   "
            f"completed {sched['completed']}   failed {sched['failed']}   "
            f"slow {sched.get('slow_jobs', 0)}"
        ),
        (
            f"latency  queue-wait p50={quantile_ms('scheduler.queue_wait_seconds', 0.5)} "
            f"p99={quantile_ms('scheduler.queue_wait_seconds', 0.99)}   "
            f"e2e p50={quantile_ms('scheduler.e2e_seconds', 0.5)} "
            f"p99={quantile_ms('scheduler.e2e_seconds', 0.99)}"
        ),
    ]
    incremental = top.get("incremental")
    if incremental and (incremental.get("enabled") or incremental.get("warm_hits")):
        lines.append(
            f"warm     {incremental['warm_hits']} hits / "
            f"{incremental['cold_fallbacks']} cold "
            f"({incremental['warm_rate']:.0%} warm)   "
            f"snapshots {incremental['retained']} retained"
        )
    lines += [
        "",
        f"{'JOB':12s} {'STATE':9s} {'PHASE':16s} {'PRIO':6s} "
        f"{'QUEUED':>8s} {'RUN':>8s}  LABEL",
    ]
    for job in top.get("jobs") or []:
        running = job.get("running_seconds")
        label = (job.get("label") or "")[:40]
        lines.append(
            f"{job['job_id']:12s} {job['state']:9s} "
            f"{(job.get('phase') or '-'):16s} {job['priority']:6s} "
            f"{job['queued_seconds']:8.3f} "
            f"{running if running is not None else 0.0:8.3f}  {label}"
        )
    return lines


def cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    with ServiceClient(host=args.host, port=args.port) as client:
        if args.json:
            print(json.dumps(client.top(limit=args.limit), indent=2, sort_keys=True))
            return 0
        if args.once:
            for line in _render_top(client.top(limit=args.limit)):
                print(line)
            return 0
        try:
            while True:
                frame = _render_top(client.top(limit=args.limit))
                # Clear screen + home, like top(1); one write per frame
                # so partially drawn frames never show.
                sys.stdout.write("\x1b[2J\x1b[H" + "\n".join(frame) + "\n")
                sys.stdout.flush()
                _time.sleep(max(0.2, args.interval))
        except KeyboardInterrupt:
            return 0


# ----------------------------------------------------------------------
# repro trace
# ----------------------------------------------------------------------
def _render_span_tree(spans: list[dict]) -> list[str]:
    """Indent spans by parent relation (completion order preserved
    within siblings; orphans — parents evicted from the ring buffer —
    print as roots)."""
    by_id = {s["span_id"]: s for s in spans}
    children: dict = {}
    roots = []
    for s in spans:
        parent = s.get("parent_id")
        if parent in by_id:
            children.setdefault(parent, []).append(s)
        else:
            roots.append(s)
    for group in children.values():
        group.sort(key=lambda s: s.get("ts", 0.0))
    roots.sort(key=lambda s: s.get("ts", 0.0))

    lines: list[str] = []

    def walk(s: dict, depth: int) -> None:
        attrs = ", ".join(
            f"{key}={value}" for key, value in sorted((s.get("attrs") or {}).items())
        )
        lines.append(
            f"{'  ' * depth}{s['name']}  {s['duration'] * 1000:.3f}ms"
            + (f"  [{attrs}]" if attrs else "")
        )
        for child in children.get(s["span_id"], ()):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return lines


def cmd_trace(args: argparse.Namespace) -> int:
    with ServiceClient(host=args.host, port=args.port) as client:
        spans = client.trace(args.job_id)
    if args.json:
        print(json.dumps(spans, indent=2, sort_keys=True))
        return 0
    if not spans:
        print(f"no spans buffered for job {args.job_id} "
              "(evicted from the ring buffer, or the job has not run yet)")
        return 1
    for line in _render_span_tree(spans):
        print(line)
    return 0


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def _add_connection_args(parser: argparse.ArgumentParser, local_ok: bool = True) -> None:
    parser.add_argument("--host", default="127.0.0.1", help="daemon host")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT, help="daemon port")
    if local_ok:
        parser.add_argument(
            "--local",
            action="store_true",
            help="run in-process instead of connecting to a daemon",
        )
        parser.add_argument(
            "--store-dir",
            default=DEFAULT_STORE_DIR,
            help="on-disk result store used with --local",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Speculation-sound cache analysis as a service "
        "(PLDI 2019 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the analysis daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT)
    serve.add_argument("--store-dir", default=DEFAULT_STORE_DIR)
    serve.add_argument("--no-store", action="store_true",
                       help="run without the on-disk result store")
    serve.add_argument("--max-workers", type=int, default=2)
    serve.add_argument("--batch-size", type=int, default=8)
    serve.add_argument("--slow-job-seconds", type=float, default=None,
                       help="end-to-end latency above which a job is logged as "
                            "slow (default: REPRO_SLOW_JOB_SECONDS, then 30; "
                            "0 disables)")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="write every completed span to PATH as JSON lines "
                            "(equivalent to REPRO_TRACE=PATH)")
    serve.add_argument("--incremental", action="store_true", default=None,
                       help="retain analysis snapshots and warm-start "
                            "re-analyses of edited programs (equivalent to "
                            "REPRO_INCREMENTAL=1; omitting the flag defers "
                            "to the environment)")
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser("submit", help="analyse one MiniC source file")
    submit.add_argument("source", help="path to a MiniC file, or '-' for stdin")
    submit.add_argument("--kind", choices=[k.value for k in AnalysisKind],
                        default=AnalysisKind.SPECULATIVE.value)
    submit.add_argument("--entry", default=None)
    submit.add_argument("--line-size", type=int, default=64)
    submit.add_argument("--num-lines", type=int, default=None,
                        help="cache lines (default: the paper's 512)")
    _add_cache_geometry_args(submit)
    submit.add_argument("--depth-miss", type=int, default=None,
                        help="speculation depth bound bm")
    submit.add_argument("--depth-hit", type=int, default=None,
                        help="speculation depth bound bh")
    submit.add_argument("--label", default=None)
    submit.add_argument("--json", action="store_true", help="print the raw wire result")
    submit.add_argument("--watch", action="store_true",
                        help="stream the job's lifecycle + progress events live "
                             "while it runs (daemon only)")
    submit.add_argument("--verify", action="store_true",
                        help="recompute in-process and assert identical results")
    submit.add_argument("--trace", default=None, metavar="PATH",
                        help="write this process's spans to PATH as JSON lines "
                             "(covers --local and --verify execution; daemon-side "
                             "spans are served by 'repro trace')")
    _add_connection_args(submit)
    submit.set_defaults(func=cmd_submit)

    wcet = sub.add_parser("wcet", help="WCET comparison on benchmark kernels")
    wcet.add_argument("benchmarks", nargs="*")
    wcet.add_argument("--json", action="store_true",
                      help="print machine-readable rows")
    _add_cache_geometry_args(wcet)
    _add_connection_args(wcet)
    wcet.set_defaults(func=cmd_wcet)

    sidechannel = sub.add_parser("sidechannel",
                                 help="leak detection on crypto kernels")
    sidechannel.add_argument("kernels", nargs="*")
    sidechannel.add_argument("--json", action="store_true",
                             help="print machine-readable rows")
    sidechannel.add_argument("--explain", action="store_true",
                             help="attach a taint blame path (secret source "
                                  "to leaking access) to every leak site")
    _add_cache_geometry_args(sidechannel)
    _add_connection_args(sidechannel)
    sidechannel.set_defaults(func=cmd_sidechannel)

    lint = sub.add_parser(
        "lint",
        help="compile one MiniC file and verify the produced IR",
    )
    lint.add_argument("source", help="path to a MiniC file, or '-' for stdin")
    lint.add_argument("--entry", default=None)
    lint.add_argument("--line-size", type=int, default=64)
    lint.add_argument("--no-unroll", action="store_true",
                      help="lint without unrolling fixed loops")
    lint.add_argument("--no-inline", action="store_true",
                      help="lint without inlining user functions")
    lint.add_argument("--json", action="store_true",
                      help="print findings as JSON")
    lint.set_defaults(func=cmd_lint)

    mitigate = sub.add_parser(
        "mitigate",
        help="synthesise verified fence placements that close detected leaks",
    )
    mitigate.add_argument("kernels", nargs="*",
                          help="crypto kernels (default: all Table-7 kernels)")
    mitigate.add_argument("--source", default=None,
                          help="mitigate one MiniC file instead of kernels")
    mitigate.add_argument("--no-optimize", action="store_true",
                          help="evaluate only the fence-every-branch baseline")
    mitigate.add_argument("--emit-dir", default=None,
                          help="write each chosen patched source to this directory")
    mitigate.add_argument("--json", action="store_true",
                          help="print machine-readable results")
    _add_cache_geometry_args(mitigate)
    _add_connection_args(mitigate)
    mitigate.set_defaults(func=cmd_mitigate)

    stats = sub.add_parser("stats", help="statistics of a running daemon")
    stats.add_argument("--json", action="store_true")
    stats.add_argument("--prom", action="store_true",
                       help="render the metrics registry in Prometheus text "
                            "exposition format")
    _add_connection_args(stats, local_ok=False)
    stats.set_defaults(func=cmd_stats)

    top = sub.add_parser("top", help="live queue/worker view of a running daemon")
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh interval in seconds (default: 2)")
    top.add_argument("--once", action="store_true",
                     help="print one frame and exit (no screen clearing)")
    top.add_argument("--limit", type=int, default=32,
                     help="how many recent jobs to list")
    top.add_argument("--json", action="store_true",
                     help="print the raw top payload")
    _add_connection_args(top, local_ok=False)
    top.set_defaults(func=cmd_top)

    trace = sub.add_parser("trace", help="span tree of one daemon job")
    trace.add_argument("job_id", help="job id as printed by 'repro submit'")
    trace.add_argument("--json", action="store_true",
                       help="print the raw span dicts")
    _add_connection_args(trace, local_ok=False)
    trace.set_defaults(func=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.errors import ConfigError
    from repro.mitigation import MitigationError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as error:
        print(f"repro: invalid cache configuration: {error}", file=sys.stderr)
        return 2
    except MitigationError as error:
        print(f"repro: unmitigable: {error}", file=sys.stderr)
        return 3
    except ServiceError as error:
        if "MitigationError" in str(error):
            # A daemon-side MitigationError arrives as a generic protocol
            # error string; keep the exit-code contract identical to
            # --local (3 = unmitigable).
            print(f"repro: unmitigable: {error}", file=sys.stderr)
            return 3
        print(f"repro: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
