"""``trajectory/pairs.py``: the table shows failures and the acceptance
verdicts, ``run`` stops loudly when perfbench prints no report, and a
second ``run`` into an entry adds pairs rather than replacing them."""

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


def _report(
    throughput: float, failed: int = 0, correct: bool = True, **overrides: float
) -> dict:
    metrics = {
        "setup_s": 0.3,
        "throughput_ops": throughput,
        "latency_p50_ms": 100.0,
        "latency_tail_ms": 190.0,
        "peak_rss_mb": 31.0,
        **overrides,
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
    throughput = (
        "| `branchy` | `throughput_ops` (1/s) | 8.250 (0.03) | 10.25 (0.02) | 1.24 | 2/2 "
        "| yes | too few pairs |"
    )
    assert throughput in rows
    assert rows[-1] == (
        "| `branchy` | ops failed / attempted | 0 / 80 | 3 / 80, **1 run not correct** "
        "| | | | |"
    )


def test_table_skips_an_entry_without_a_complete_pair(pairs, capsys):
    """While ``run`` is still on its first pair, the table has no rows for
    the entry, rather than failing on an empty side."""
    _write_entry(pairs, [(0, "parent", _report(8.0))])
    pairs.table(argparse.Namespace(pr=7))
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_table_prints_the_bound_and_gain_verdicts(pairs, capsys):
    """"inside bound": the change's median is worse than the parent's by no
    more than the metric's ``BENCHMARK.json`` bound.  "gain": over at
    least ten pairs, the change won at least 9 of 10 and beats the
    parent's median by more than the parent's IQR."""
    runs = []
    for pair in range(10):
        parent = _report(
            10.0 + 0.1 * pair, latency_p50_ms=100.0 + 10 * pair, setup_s=0.3
        )
        change = _report(
            9.0 if pair == 0 else 12.0 + 0.1 * pair,  # wins 9 of 10
            latency_p50_ms=99.0 + 10 * pair,  # wins all, by less than the IQR
            latency_tail_ms=250.0,  # 32% worse, past the 25% bound
            peak_rss_mb=32.5,  # 5% worse, inside the 10% bound
            setup_s=0.2 if pair < 8 else 0.4,  # wins 8 of 10
        )
        runs += [(pair, "parent", parent), (pair, "change", change)]
    _write_entry(pairs, runs)
    pairs.table(argparse.Namespace(pr=7))
    rows = {
        row.split(" | ")[1]: row for row in capsys.readouterr().out.splitlines()[2:]
    }
    assert rows["`throughput_ops` (1/s)"].endswith("| 9/10 | yes | yes |")
    assert rows["`latency_p50_ms`"].endswith("| 10/10 | yes | no |")
    assert rows["`latency_tail_ms` (slowest third)"].endswith("| 0/10 | **no** | no |")
    assert rows["`peak_rss_mb`"].endswith("| 0/10 | yes | no |")
    assert rows["`setup_s`"].endswith("| 8/10 | yes | no |")


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


def test_run_numbers_new_pairs_after_the_entrys_existing_ones(
    pairs, monkeypatch, tmp_path, capsys
):
    """A second invocation adds pairs to an entry instead of replacing the
    earlier ones in the table, and keeps alternating which side runs first."""
    _write_entry(
        pairs,
        [
            (0, "parent", _report(8.0)),
            (0, "change", _report(10.0)),
            (1, "change", _report(10.5)),
            (1, "parent", _report(8.5)),
        ],
    )
    trees = {tmp_path / "parent": "parent", tmp_path / "change": "change"}
    for tree in trees:
        tree.mkdir()
    throughput = {"parent": 9.0, "change": 11.0}

    def fake_run(command, cwd, capture_output, text, check):
        report = _report(throughput[trees[cwd]])
        return subprocess.CompletedProcess(command, 0, stdout=json.dumps(report) + "\n")

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    pairs.run(
        argparse.Namespace(
            pr=7,
            workload="branchy",
            parent=str(tmp_path / "parent"),
            change=str(tmp_path / "change"),
            seeds="5-6",
        )
    )
    runs = json.loads(pairs._path("branchy").read_text())["entries"][0]["runs"]
    assert [(run["pair"], run["side"], run["seed"]) for run in runs[4:]] == [
        (2, "parent", 5),
        (2, "change", 5),
        (3, "change", 6),
        (3, "parent", 6),
    ]
    capsys.readouterr()
    pairs.table(argparse.Namespace(pr=7))
    rows = capsys.readouterr().out.splitlines()
    assert "| `branchy` | ops failed / attempted | 0 / 160 | 0 / 160 | | | | |" in rows
    (throughput_row,) = [row for row in rows if "`throughput_ops`" in row]
    assert throughput_row.endswith("| 4/4 | yes | too few pairs |")
