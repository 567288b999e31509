"""``trajectory/pairs.py``: the table shows failures, and ``run`` stops
loudly when perfbench prints no report."""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "trajectory" / "pairs.py"


@pytest.fixture
def pairs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("trajectory_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "HERE", tmp_path)
    return module


def _report(throughput: float, failed: int = 0, correct: bool = True) -> dict:
    metrics = {
        "setup_s": 0.3,
        "throughput_ops": throughput,
        "latency_p50_ms": 100.0,
        "latency_tail_ms": 190.0,
        "peak_rss_mb": 31.0,
    }
    return {
        "correct": correct,
        "attempted": 40,
        "failed": failed,
        "metrics": {name: {"value": value} for name, value in metrics.items()},
    }


def _write_entry(pairs, runs: list[tuple[int, str, dict]]) -> None:
    entry = {
        "pr": 7,
        "runs": [
            {"side": side, "seed": 100 + pair, "pair": pair, "seconds": 30, "report": report}
            for pair, side, report in runs
        ],
    }
    pairs._path("branchy").write_text(json.dumps({"workload": "branchy", "entries": [entry]}))


def test_table_shows_failed_ops_and_incorrect_runs(pairs, capsys):
    _write_entry(
        pairs,
        [
            (0, "parent", _report(8.0)),
            (0, "change", _report(10.0, failed=3, correct=False)),
            (1, "change", _report(10.5)),
            (1, "parent", _report(8.5)),
            (2, "parent", _report(8.2)),  # incomplete pair: left out
        ],
    )
    pairs.table(argparse.Namespace(pr=7))
    rows = capsys.readouterr().out.splitlines()
    throughput = "| `branchy` | `throughput_ops` (1/s) | 8.250 (0.03) | 10.25 (0.02) | 1.24 | 2/2 |"
    assert throughput in rows
    assert rows[-1] == (
        "| `branchy` | ops failed / attempted | 0 / 80 | 3 / 80, **1 run not correct** | | |"
    )


def test_run_stops_without_a_record_when_perfbench_prints_nothing(pairs, monkeypatch, tmp_path):
    stderr = "\n".join(f"line {i}" for i in range(40)) + "\nImportError: no module named x\n"

    def fake_run(command, cwd, capture_output, text, check):
        return subprocess.CompletedProcess(command, 1, stdout="", stderr=stderr)

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    args = argparse.Namespace(
        pr=7, workload="branchy", parent=str(tmp_path), change=str(tmp_path), seeds="5"
    )
    with pytest.raises(SystemExit) as stopped:
        pairs.run(args)
    message = str(stopped.value)
    assert "perfbench printed no report (exit 1)" in message
    assert message.endswith("ImportError: no module named x")
    assert "line 20" not in message  # only the tail
    assert not pairs._path("branchy").exists()
