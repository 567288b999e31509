"""Parent-vs-change pairs of the repository benchmark, kept as a trajectory.

Each ``trajectory/BENCH_<workload>.json`` holds one entry per change that
claims or checks a performance effect, keyed by its PR number.  An entry
lists every run of its pair comparison: the side (``parent`` or
``change``), the seed, the pair index, the run's seconds and
perfbench's last JSON line.

Run the pairs (untraced, ``BENCHMARK.json``'s ``run_seconds`` per run,
one seed per pair, the side that runs first alternating with the pair
index; each finished run is saved at once).  A second invocation for the
same entry numbers its pairs after the entry's last one:

    python3 trajectory/pairs.py run --pr N --workload branchy \\
        --parent ../parent-checkout --change . --seeds 1201-1210

Print an entry's parent-vs-change table, as the README shows it:

    python3 trajectory/pairs.py table --pr N

Each cell is the median over the side's runs with the quartile spread
(IQR / median) in brackets; "pairs won" counts the pairs in which the
change was better, in the direction ``BENCHMARK.json`` gives.  The last
two columns are the acceptance verdicts: "inside bound" says whether the
change's median is worse than the parent's by no more than the metric's
``BENCHMARK.json`` bound, and "gain" whether, over at least ten
complete pairs, the change won at least 9 of 10 and its median beats
the parent's by more than the parent's IQR.  A last row per workload sums each side's failed and
attempted ops and names any run whose verdicts were not correct: a pair
that fails more ops is no win, whatever its metrics say.

``run`` stops, printing the tail of perfbench's stderr, at the first run
that prints no report; that run leaves no record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
METRICS = BENCHMARK["end_to_end"]
SECONDS = BENCHMARK["run_seconds"]
#: What each workload reports as ``latency_tail_ms`` (perfbench/README.md).
TAIL = {"tables": "p98", "branchy": "slowest third", "service": "p99.5"}
#: A gain needs this many complete pairs, and this share of them won.
GAIN_MIN_PAIRS = 10
GAIN_PAIRS = 0.9
#: Lines of perfbench's stderr shown when a run prints no report.
STDERR_TAIL = 20


def _path(workload: str) -> Path:
    return HERE / f"BENCH_{workload}.json"


def _load(workload: str) -> dict:
    path = _path(workload)
    if path.exists():
        return json.loads(path.read_text())
    return {"workload": workload, "entries": []}


def _entry(trajectory: dict, pr: int) -> dict | None:
    return next((entry for entry in trajectory["entries"] if entry["pr"] == pr), None)


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(args: argparse.Namespace) -> None:
    trajectory = _load(args.workload)
    entry = _entry(trajectory, args.pr)
    if entry is None:
        entry = {"pr": args.pr, "runs": []}
        trajectory["entries"].append(entry)
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    # New pairs follow the entry's existing ones, so running more seeds
    # into an entry adds pairs instead of replacing them in the table.
    first = 1 + max((record["pair"] for record in entry["runs"]), default=-1)
    for pair, seed in enumerate(_seeds(args.seeds), start=first):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            command = [
                sys.executable, "perfbench/run.py", "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0",
            ]
            completed = subprocess.run(
                command, cwd=trees[side], capture_output=True, text=True, check=False
            )
            report = _report(completed.stdout)
            if report is None:
                tail = "\n".join(completed.stderr.strip().splitlines()[-STDERR_TAIL:])
                sys.exit(
                    f"pair {pair} seed {seed} {side}: perfbench printed no report "
                    f"(exit {completed.returncode}); stderr ends:\n{tail}"
                )
            entry["runs"].append(
                {"side": side, "seed": seed, "pair": pair, "seconds": SECONDS,
                 "report": report}
            )
            _path(args.workload).write_text(json.dumps(trajectory, indent=1) + "\n")
            value = report["metrics"]["throughput_ops"]["value"]
            print(f"pair {pair} seed {seed} {side}: correct={report['correct']} "
                  f"failed={report['failed']} throughput_ops={value:.4g}", flush=True)


def _report(stdout: str) -> dict | None:
    """perfbench's report: the last line of its stdout, when that is JSON."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return quartiles[2] - quartiles[0]


def _spread(values: list[float]) -> float:
    return _iqr(values) / statistics.median(values)


def _cell(values: list[float]) -> str:
    median = f"{statistics.median(values):#.4g}".rstrip(".")
    return f"{median} ({_spread(values):.2f})"


def _ops_cell(reports: list[dict]) -> str:
    failed = sum(report["failed"] for report in reports)
    attempted = sum(report["attempted"] for report in reports)
    cell = f"{failed} / {attempted}"
    incorrect = sum(1 for report in reports if not report["correct"])
    if incorrect:
        cell += f", **{incorrect} run{'s' if incorrect > 1 else ''} not correct**"
    return cell


def _verdicts(metric: dict, before: list[float], after: list[float], won: int) -> str:
    """The "inside bound" and "gain" cells of one metric's row."""
    lower = metric["better"] == "lower"
    median_before = statistics.median(before)
    median_after = statistics.median(after)
    # How much better the change's median is, positive when better.
    gap = median_before - median_after if lower else median_after - median_before
    inside = "yes" if -gap <= metric["bound"] * median_before else "**no**"
    if len(before) < GAIN_MIN_PAIRS:
        gain = "too few pairs"
    else:
        gain = "yes" if won >= GAIN_PAIRS * len(before) and gap > _iqr(before) else "no"
    return f"{inside} | {gain}"


def table(args: argparse.Namespace) -> None:
    print(
        "| workload | metric | before | after | after ÷ before | pairs won "
        "| inside bound | gain |"
    )
    print("|---|---|---|---|---|---|---|---|")
    for workload in WORKLOADS:
        entry = _entry(_load(workload), args.pr)
        if entry is None:
            continue
        pairs: dict[int, dict[str, dict]] = {}
        for record in entry["runs"]:
            pairs.setdefault(record["pair"], {})[record["side"]] = record["report"]
        complete = [sides for sides in pairs.values() if len(sides) == 2]
        if not complete:
            continue
        for metric in METRICS:
            name = metric["name"]
            before = [sides["parent"]["metrics"][name]["value"] for sides in complete]
            after = [sides["change"]["metrics"][name]["value"] for sides in complete]
            lower = metric["better"] == "lower"
            won = sum(1 for b, a in zip(before, after) if (a < b if lower else a > b))
            label = f"`{name}`"
            if metric["unit"] == "1/s":
                label += " (1/s)"
            elif name == "latency_tail_ms" and workload in TAIL:
                label += f" ({TAIL[workload]})"
            ratio = statistics.median(after) / statistics.median(before)
            print(f"| `{workload}` | {label} | {_cell(before)} | {_cell(after)} | "
                  f"{ratio:.2f} | {won}/{len(complete)} | "
                  f"{_verdicts(metric, before, after, won)} |")
        cells = [_ops_cell([sides[side] for sides in complete]) for side in ("parent", "change")]
        print(f"| `{workload}` | ops failed / attempted | {cells[0]} | {cells[1]} | | | | |")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    runner = commands.add_parser("run", help="run interleaved pairs and record them")
    runner.add_argument("--pr", type=int, required=True)
    runner.add_argument("--workload", choices=WORKLOADS, required=True)
    runner.add_argument("--parent", required=True, help="checkout of the parent commit")
    runner.add_argument("--change", required=True, help="checkout of the change")
    runner.add_argument("--seeds", required=True, help="one seed per pair: N or FIRST-LAST")
    runner.set_defaults(handler=run)
    printer = commands.add_parser("table", help="print an entry's parent-vs-change table")
    printer.add_argument("--pr", type=int, required=True)
    printer.set_defaults(handler=table)
    args = parser.parse_args()
    args.handler(args)


if __name__ == "__main__":
    main()
