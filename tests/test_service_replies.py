"""The daemon's reply cache: replayed results are encoded once.

The ``result`` and ``analyze`` replies of a result replayed from the
engine's result tiers are assembled around a memoised JSON text and
fingerprint.  These tests read raw reply lines off the socket and check
that every one is byte-identical to ``json.dumps`` of the reply dict the
daemon built before the cache existed, and that the cache serves a text
only to replays of the very tier entry it was encoded from.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.bench.programs import branchy_kernel_source
from repro.engine.engine import AnalysisEngine, execute_request
from repro.engine.request import AnalysisRequest
from repro.service.server import REPLY_CACHE_SIZE, ReproServer
from repro.service.wire import request_to_wire, result_fingerprint, result_to_wire

SOURCE = "char a[64]; int p; int main() { if (p > 0) { a[0]; } a[0]; return 0; }"

#: A program with a retained snapshot and an edit of it that warm-starts.
WARM_BASE = """
char table[4096]; int k; int cnd[4];
int main() {
    int x;
    x = 0;
    if (cnd[0] > 0) {
        x = x + table[64];
    }
    if (k > 0) {
        x = x + table[128];
    }
    return x;
}
"""
WARM_EDIT = WARM_BASE.replace("x = x + table[64];", "fence;\n        x = x + table[64];")


class RawConnection:
    """One socket that returns each reply line as the daemon wrote it."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.reader = self.sock.makefile("rb")

    def line(self, op: str, **fields) -> str:
        self.sock.sendall(json.dumps({"op": op, **fields}).encode("utf-8") + b"\n")
        return self.reader.readline().decode("utf-8").rstrip("\n")

    def analyze(self, request: AnalysisRequest) -> str:
        return self.line("analyze", request=request_to_wire(request), timeout=120)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


@pytest.fixture
def server(tmp_path):
    srv = ReproServer(store_dir=str(tmp_path / "store"), port=0, max_workers=2).start()
    yield srv
    srv.stop()


@pytest.fixture
def raw(server):
    connection = RawConnection(server.port)
    yield connection
    connection.close()


def expected_line(server: ReproServer, line: str, job_id: str, with_job_id: bool) -> str:
    """``json.dumps`` of the reply dict built from the job's result, with
    the job status taken from the reply itself."""
    job = server.scheduler.job(job_id)
    wire = result_to_wire(job.result())
    reply = {
        "ok": True,
        "job": json.loads(line)["job"],
        "result": wire,
        "fingerprint": result_fingerprint(wire),
    }
    if with_job_id:
        reply["job_id"] = job_id
    return json.dumps(reply)


def reply_stats(raw: RawConnection) -> dict:
    return json.loads(raw.line("stats"))["stats"]["reply_cache"]


class TestByteIdenticalReplies:
    @pytest.mark.parametrize("kind", ["baseline", "speculative"])
    def test_analyze_replies_first_and_repeated(self, server, raw, kind):
        request = getattr(AnalysisRequest, kind)(SOURCE)
        for _ in range(4):
            line = raw.analyze(request)
            job_id = json.loads(line)["job_id"]
            assert line == expected_line(server, line, job_id, with_job_id=True)
        assert reply_stats(raw) == {"hits": 2, "misses": 1, "evictions": 0}

    @pytest.mark.parametrize("kind", ["baseline", "speculative"])
    def test_result_replies_first_and_repeated(self, server, raw, kind):
        request = getattr(AnalysisRequest, kind)(SOURCE.replace("a[64]", "a[128]"))
        for _ in range(4):
            job_id = json.loads(raw.line("submit", request=request_to_wire(request)))["job_id"]
            line = raw.line("result", job_id=job_id, timeout=120)
            assert "job_id" not in json.loads(line)
            assert line == expected_line(server, line, job_id, with_job_id=False)
        assert reply_stats(raw) == {"hits": 2, "misses": 1, "evictions": 0}

    def test_replayed_fingerprint_is_direct_executions(self, raw):
        request = AnalysisRequest.speculative(SOURCE)
        expected = result_fingerprint(execute_request(request))
        for _ in range(3):
            reply = json.loads(raw.analyze(request))
            assert reply["fingerprint"] == expected
            assert result_fingerprint(reply["result"]) == expected

    def test_failure_replies_stay_dicts_with_the_analyze_job_id(self, raw):
        reply = json.loads(raw.analyze(AnalysisRequest.speculative("int main( { nope")))
        assert reply["ok"] is False and reply["job"]["state"] == "failed"
        assert list(reply) == ["ok", "error", "job", "job_id"]
        assert reply["job_id"] == reply["job"]["job_id"]


class TestOnlyTheSameTierEntry:
    def test_ten_identical_calls_encode_twice(self, raw):
        request = AnalysisRequest.speculative(SOURCE)
        replies = [json.loads(raw.analyze(request)) for _ in range(10)]
        assert [reply["result"]["from_cache"] for reply in replies] == [False] + [True] * 9
        assert reply_stats(raw) == {"hits": 8, "misses": 1, "evictions": 0}

    def test_recomputation_after_eviction_replaces_the_entry(self):
        server = ReproServer(engine=AnalysisEngine(result_cache_size=1), port=0).start()
        raw = RawConnection(server.port)
        try:
            a = AnalysisRequest.speculative(SOURCE)
            b = AnalysisRequest.baseline(SOURCE)
            lines = [raw.analyze(request) for request in (a, a, b, a, a)]
            stats = reply_stats(raw)
        finally:
            raw.close()
            server.stop()
        replies = [json.loads(line) for line in lines]
        created = [reply["result"]["provenance"]["created_at"] for reply in replies]
        assert [reply["result"]["from_cache"] for reply in replies] == [
            False, True, False, False, True,
        ]
        # The second A was encoded from the first computation; B evicted
        # it from the one-entry result cache, so the fourth call
        # recomputed, and the last reply is the recomputed result's.
        assert created[1] == created[0]
        assert created[4] == created[3] > created[0]
        assert stats == {"hits": 0, "misses": 2, "evictions": 0}
        for line, reply in zip(lines, replies):
            assert line == expected_line(server, line, reply["job_id"], with_job_id=True)

    def test_warm_runs_are_not_memoised(self, server, raw):
        base = AnalysisRequest.speculative(WARM_BASE)
        raw.analyze(base)
        edited = AnalysisRequest.speculative(WARM_EDIT, warm_from=base.result_key())
        for _ in range(3):
            line = raw.analyze(edited)
            reply = json.loads(line)
            assert reply["result"]["from_cache"] is False
            assert line == expected_line(server, line, reply["job_id"], with_job_id=True)
        stats = json.loads(raw.line("stats"))["stats"]
        assert stats["incremental"]["warm_hits"] == 3
        assert stats["reply_cache"] == {"hits": 0, "misses": 0, "evictions": 0}

    def test_coalesced_followers_of_a_computation_are_not_memoised(self):
        server = ReproServer(port=0, max_workers=1).start()
        raw = RawConnection(server.port)
        try:
            # Hold the one worker so both submissions queue together.
            raw.line("submit", request=request_to_wire(
                AnalysisRequest.speculative(branchy_kernel_source(32))
            ))
            wire = request_to_wire(AnalysisRequest.speculative(SOURCE))
            ids = [json.loads(raw.line("submit", request=wire))["job_id"] for _ in range(2)]
            lines = [raw.line("result", job_id=job_id, timeout=120) for job_id in ids]
            stats = reply_stats(raw)
        finally:
            raw.close()
            server.stop()
        assert server.scheduler.job(ids[1]).primary is server.scheduler.job(ids[0])
        for job_id, line in zip(ids, lines):
            assert json.loads(line)["result"]["from_cache"] is False
            assert line == expected_line(server, line, job_id, with_job_id=False)
        assert stats == {"hits": 0, "misses": 0, "evictions": 0}

    def test_store_replay_after_a_restart(self, tmp_path):
        store_dir = str(tmp_path / "store")
        request = AnalysisRequest.speculative(SOURCE)
        first = ReproServer(store_dir=store_dir, port=0).start()
        raw = RawConnection(first.port)
        computed = json.loads(raw.analyze(request))["result"]
        raw.close()
        first.stop()

        second = ReproServer(store_dir=store_dir, port=0).start()
        raw = RawConnection(second.port)
        try:
            lines = [raw.analyze(request) for _ in range(3)]
            stats = json.loads(raw.line("stats"))["stats"]
        finally:
            raw.close()
            second.stop()
        assert stats["result_store"]["hits"] == 1
        assert stats["reply_cache"] == {"hits": 2, "misses": 1, "evictions": 0}
        for line in lines:
            reply = json.loads(line)
            assert reply["result"]["from_cache"] is True
            assert reply["result"]["provenance"] == computed["provenance"]
            assert line == expected_line(second, line, reply["job_id"], with_job_id=True)

    def test_bounded_by_its_constant(self, server, raw):
        requests = [
            AnalysisRequest.baseline(f"char a[{64 * (i + 1)}]; int main() {{ a[0]; return 0; }}")
            for i in range(REPLY_CACHE_SIZE + 3)
        ]
        for request in requests:
            raw.analyze(request)
            raw.analyze(request)
            assert len(server._replies) <= REPLY_CACHE_SIZE
        assert len(server._replies) == REPLY_CACHE_SIZE
        assert reply_stats(raw) == {
            "hits": 0, "misses": REPLY_CACHE_SIZE + 3, "evictions": 3,
        }
        # The oldest entries went first: the first request is encoded
        # again, the last one is still a hit.
        raw.analyze(requests[0])
        raw.analyze(requests[-1])
        assert reply_stats(raw)["hits"] == 1
        assert reply_stats(raw)["misses"] == REPLY_CACHE_SIZE + 4


def test_repro_stats_prints_the_reply_cache(server, raw, capsys):
    from repro.service.cli import main as cli_main

    for _ in range(3):
        raw.analyze(AnalysisRequest.speculative(SOURCE))
    assert cli_main(["stats", "--port", str(server.port)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "reply_cache  : 1 hits / 1 misses (evictions=0)" in out
