"""The ``service`` workload: a live daemon under a closed loop.

Each *round* starts a fresh daemon (``repro serve`` defaults: 2 workers,
tracing sink on) with a fresh store on an ephemeral port, sends one
seeded, duplicate-heavy stream (each of the 30 distinct ops
:data:`REPEATS` times) over :data:`CONNECTIONS` connections from this
one process, and shuts the daemon down.  Each connection sends its next op only when its previous
reply has arrived.  First occurrences compute and write the store;
repeats read the result LRU, coalesce onto an in-flight job, or replay a
memoised mitigation.  Lifecycle events and daemon stats are fetched after
the timed section.

Set-up is timed with a :class:`~hostspeed.HostClock`.  The timed section
runs in client threads, where no timer signal can sample, so the main
thread probes the host's speed while it waits for them, and the
section's times are scaled by the median probe.
"""

from __future__ import annotations

import json
import os
import random
import re
import selectors
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from catalogue import service_ops
from stats import Outcome, median, percentile, tail
from tracer import REGISTRY_COUNTS
from verdicts import load_expected, mitigation_verdict, wire_verdict

from repro.service.client import ServiceClient, ServiceError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Times each of the 30 distinct ops occurs in one round's stream; the
#: seed fixes only the order, so every round does the same work.
REPEATS = 10

#: Client connections (closed loop), at most one per core.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))

#: Bound on one op's round trip; a slower reply counts as failed.
OP_TIMEOUT = 30.0

#: Bound on daemon start-up and shut-down.
DAEMON_TIMEOUT = 30.0

#: Tail percentile: inside the first-occurrence mitigations, 5 of every
#: 300 ops, with at least 10 samples beyond it (see README.md).
TAIL_Q = 99.5

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")

#: Spans that must fire inside a traced daemon.
MUST_FIRE = (
    "lang.parse", "lang.typecheck", "ir.unroll", "ir.lower", "ir.inline",
    "speculation.vcfg", "analysis.init", "analysis.fixpoint", "analysis.classify",
    "analysis.baseline", "cache.join", "cache.access", "engine.run",
    "mitigation.synthesize", "mitigation.patch",
)


def make_stream(seed: int, round_index: int) -> list[tuple[str, str, object]]:
    stream = service_ops() * REPEATS
    random.Random(f"service/{seed}/{round_index}").shuffle(stream)
    return stream


class Daemon:
    """One ``repro serve`` subprocess with its own store directory."""

    def __init__(self, workdir: Path, traced: bool):
        self.workdir = workdir
        self.report_path = workdir / "report.json"
        workdir.mkdir(parents=True)
        command = [
            sys.executable, str(HERE / "daemon.py"), "--report", str(self.report_path),
            *(["--trace"] if traced else []),
            "--port", "0", "--store-dir", str(workdir / "store"),
        ]
        self._stderr = open(workdir / "stderr.log", "wb")
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, stderr=self._stderr, text=True
        )
        self.host, self.port = self._await_listening()

    def _await_listening(self) -> tuple[str, int]:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=DAEMON_TIMEOUT):
                self.kill()
                raise RuntimeError("daemon did not start listening")
        line = self.proc.stdout.readline()
        match = _LISTENING.search(line)
        if match is None:
            self.kill()
            raise RuntimeError(f"daemon failed to start: {line!r}")
        return match.group(1), int(match.group(2))

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def stop(self) -> dict | None:
        """Shut down over the wire; returns the daemon's report (None if it
        had to be killed)."""
        try:
            with ServiceClient(host=self.host, port=self.port, timeout=DAEMON_TIMEOUT) as client:
                client.shutdown()
            self.proc.communicate(timeout=DAEMON_TIMEOUT)
        except (ServiceError, subprocess.TimeoutExpired):
            self.kill()
            return None
        self._stderr.close()
        return json.loads(self.report_path.read_text(encoding="utf-8"))

    def kill(self) -> None:
        self.proc.kill()
        self.proc.communicate()
        self._stderr.close()


@dataclass
class _Sample:
    op: str
    request_id: str
    latency: float = 0.0
    reply: dict | None = None
    job_id: str | None = None
    error: str | None = None


@dataclass
class _Round:
    setup_s: float
    wall: float
    #: Median reference probe during the timed section.
    speed: float
    samples: list[_Sample]
    report: dict | None
    layers: dict[str, float] = field(default_factory=dict)


def _closed_loop(daemon: Daemon, stream) -> tuple[list[_Sample], float, float]:
    """Returns the samples, the wall time and the median reference probe."""
    samples: list[_Sample] = []
    lock = threading.Lock()
    cursor = iter(range(len(stream)))

    def connection() -> None:
        with ServiceClient(host=daemon.host, port=daemon.port, timeout=OP_TIMEOUT) as client:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                op, request_id, request = stream[index]
                sample = _Sample(op, request_id)
                started = time.perf_counter()
                try:
                    if op == "analyze":
                        sample.reply = client.analyze(request, timeout=OP_TIMEOUT)
                        sample.job_id = client.last_job_id
                    else:
                        sample.reply = client.mitigate(request)
                except ServiceError as error:
                    sample.error = str(error)
                sample.latency = time.perf_counter() - started
                with lock:
                    samples.append(sample)

    # A lost connection fails its op, and the client then refuses the
    # rest at once, so every op is accounted for without waiting.
    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    probes = []
    deadline = started + 2 * OP_TIMEOUT
    for thread in threads:
        while thread.is_alive() and time.perf_counter() < deadline:
            probes.append(hostspeed.probe())
            thread.join(timeout=hostspeed.INTERVAL_S)
    wall = time.perf_counter() - started
    with lock:
        return list(samples), wall, median(probes)


def _check(round_index: int, stream, samples: list[_Sample], expected: dict,
           outcome: Outcome) -> None:
    outcome.attempted += len(stream)
    outcome.failed += len(stream) - len(samples)
    if len(samples) < len(stream):
        outcome.problem(f"round {round_index}: {len(stream) - len(samples)} ops never completed")
    for sample in samples:
        if sample.error is not None:
            ok = False
        elif sample.op == "analyze":
            ok = wire_verdict(sample.reply) == expected[sample.request_id]
        else:
            verdict = mitigation_verdict(sample.reply)
            ok = verdict.pop("verified") and verdict == expected[sample.request_id]
        if not ok:
            outcome.failed += 1
            outcome.problem(
                f"round {round_index}: {sample.op} {sample.request_id} failed"
                + (f" ({sample.error})" if sample.error else " (verdict mismatch)")
            )


def _service_layers(daemon: Daemon, samples: list[_Sample]) -> dict[str, float]:
    """Per-layer service metrics from lifecycle events and daemon stats."""
    waits, executes, overheads = [], [], []
    coalesced = jobs = 0
    with ServiceClient(host=daemon.host, port=daemon.port, timeout=DAEMON_TIMEOUT) as client:
        for sample in samples:
            if sample.job_id is None:
                continue
            events = client.events(sample.job_id)
            own = [e for e in events if e["job_id"] == sample.job_id]
            queued = next((e for e in own if e["event"] == "queued"), None)
            dispatched = next((e for e in events if e["event"] == "dispatched"), None)
            terminal = next((e for e in events if e["event"] in ("done", "failed")), None)
            if queued is None or dispatched is None or terminal is None:
                continue
            jobs += 1
            coalesced += any(e["event"] == "coalesced" for e in own)
            waits.append(max(0.0, dispatched["t"] - queued["t"]))
            executes.append(terminal["t"] - dispatched["t"])
            overheads.append(sample.latency - (terminal["t"] - queued["t"]))
        stats = client.stats()
    mitigations = [
        sample.reply for sample in samples
        if sample.op == "mitigate" and sample.reply and not sample.reply["from_cache"]
    ]
    return {
        "service.queue_wait_p50_ms": percentile(waits, 50) * 1e3 if waits else 0.0,
        "service.execute_p50_ms": percentile(executes, 50) * 1e3 if executes else 0.0,
        "service.rpc_overhead_p50_ms": percentile(overheads, 50) * 1e3 if overheads else 0.0,
        "service.coalesced_frac": coalesced / jobs if jobs else 0.0,
        "service.store_writes": (stats["result_store"] or {}).get("writes", 0),
        "engine.compile_hit_rate": _hit_rate(stats["compile_cache"]),
        "engine.result_hit_rate": _hit_rate(stats["result_cache"]),
        "mitigation.analyses_run": sum(m["analyses_run"] for m in mitigations),
        "mitigation.fences": sum(m[m["chosen"]]["ir_fences"] for m in mitigations),
    }


def _hit_rate(cache: dict) -> float:
    lookups = cache["hits"] + cache["misses"]
    return cache["hits"] / lookups if lookups else 0.0


def _run_round(seed: int, index: int, workroot: Path, traced: bool, with_events: bool,
               expected: dict, outcome: Outcome) -> _Round:
    clock = hostspeed.HostClock()
    with clock:
        daemon = Daemon(workroot / f"round{index}", traced)
    try:
        with clock, ServiceClient(
            host=daemon.host, port=daemon.port, timeout=DAEMON_TIMEOUT
        ) as client:
            client.ping()
        setup_s = clock.now()
        stream = make_stream(seed, index)
        samples, wall, speed = _closed_loop(daemon, stream)
        if not daemon.alive:
            outcome.problem(f"round {index}: daemon exited during the run")
        _check(index, stream, samples, expected, outcome)
        layers = _service_layers(daemon, samples) if with_events and daemon.alive else {}
        for sample in samples:
            sample.reply = None  # checked; holding every reply would grow this process
    except BaseException:
        daemon.kill()
        raise
    report = daemon.stop()
    if report is None:
        outcome.problem(f"round {index}: daemon did not shut down cleanly")
    elif traced:
        layers.update(report["layers"])
        for name, counter in REGISTRY_COUNTS.items():
            layers[name] = report["registry"].get(counter, {}).get("value", 0)
        layers["trace.self_time_coverage"] = report["self_time_s"] / wall
        missing = [name for name in MUST_FIRE if name not in report["fired"]]
        if missing:
            outcome.problem(f"round {index}: wrappers never fired in the daemon: {missing}")
    return _Round(setup_s=setup_s, wall=wall, speed=speed, samples=samples, report=report,
                  layers=layers)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Outcome, list[float]]:
    """Run rounds for ``seconds``; untraced runs report the end-to-end
    metrics, traced runs alternate untraced and traced rounds and report
    the per-layer ones."""
    expected = load_expected()
    outcome = Outcome()
    workroot = ROOT / ".perfbench-tmp" / f"service-{os.getpid()}"
    rounds: list[_Round] = []
    traced_rounds: list[_Round] = []
    started = time.perf_counter()
    try:
        index = 0
        while True:
            traced = trace and index % 2 == 1
            record = _run_round(seed, index, workroot, traced, trace, expected, outcome)
            (traced_rounds if traced else rounds).append(record)
            index += 1
            if time.perf_counter() - started >= seconds and (not trace or len(traced_rounds) >= 2):
                break
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()
        except OSError:
            pass

    setups = [record.setup_s for record in rounds + traced_rounds]
    if not trace:
        latencies = [
            hostspeed.scale(s.latency, record.speed)
            for record in rounds for s in record.samples if s.error is None
        ]
        value, label = tail(latencies, TAIL_Q)
        rss = [record.report["peak_rss_kb"] / 1024.0 for record in rounds if record.report]
        outcome.metrics.update(
            throughput_ops=median(
                [len(r.samples) / hostspeed.scale(r.wall, r.speed) for r in rounds]
            ),
            latency_p50_ms=percentile(latencies, 50) * 1e3,
            latency_tail_ms=value * 1e3,
            peak_rss_mb=median(rss) if rss else 0.0,
        )
        outcome.notes["latency_tail_ms"] = label
        outcome.notes["throughput_ops"] = f"median of {len(rounds)} rounds of {len(rounds[0].samples)} ops"
        outcome.notes["peak_rss_mb"] = "daemon, median over rounds"
        return outcome, setups

    def median_of(records: list[_Round], name: str) -> float:
        values = [record.layers[name] for record in records if name in record.layers]
        return median(values) if values else 0.0

    names = {name for record in traced_rounds for name in record.layers}
    layers = {name: median_of(traced_rounds, name) for name in names}
    for name in names:
        if name.startswith("service."):
            layers[name] = median_of(rounds, name)  # lifecycle timings untraced
    layers["trace.overhead_frac"] = (
        median([r.wall for r in traced_rounds]) / median([r.wall for r in rounds]) - 1.0
    )
    outcome.metrics.update(layers)
    outcome.notes["trace.overhead_frac"] = (
        f"{len(traced_rounds)} traced vs {len(rounds)} untraced rounds"
    )
    outcome.notes["trace.self_time_coverage"] = "summed over daemon threads; not checked"
    return outcome, setups
