"""Expected verdicts and the checks that turn a mismatch into a failed op.

An analysis verdict is digested from its classifications — per site
(block, instruction index, speculative flag, scenario color) the
``must_hit`` and ``secret_dependent`` flags — plus its miss count.
Iteration counts and times are excluded: they may legitimately change.
A mitigation verdict is the chosen strategy, its fence points and the
leak-site count before repair.

Regenerate ``expected.json`` (only when a verdict change is intended)::

    python3 perfbench/verdicts.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

_FIELDS = ("block", "instruction_index", "speculative", "scenario_color", "must_hit", "secret_dependent")


def _digest(rows: list[tuple], misses: int) -> dict:
    canonical = sorted(
        tuple(-1 if value is None else value for value in row) for row in rows
    )
    payload = json.dumps([canonical, misses], separators=(",", ":"))
    return {"digest": hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32], "misses": misses}


def result_verdict(result) -> dict:
    """Verdict of an in-process :class:`CacheAnalysisResult`."""
    rows = [tuple(getattr(c, field) for field in _FIELDS) for c in result.classifications]
    return _digest(rows, result.miss_count)


def wire_verdict(wire: dict) -> dict:
    """Verdict of a daemon reply's wire-form result."""
    rows = [tuple(c[field] for field in _FIELDS) for c in wire["classifications"]]
    return _digest(rows, wire["misses"])


def mitigation_verdict(wire: dict) -> dict:
    """Verdict of a wire-form mitigation; ``verified`` is False unless the
    chosen placement re-analysed to zero leak sites."""
    placement = wire.get(wire.get("chosen")) if wire.get("chosen") in ("optimized", "baseline") else None
    verified = bool(
        placement and placement["verified"] and placement["leak_sites_after"] == 0
    )
    return {
        "chosen": wire.get("chosen"),
        "points": [] if placement is None else [[p["kind"], p["line"]] for p in placement["points"]],
        "leak_sites_before": wire.get("leak_sites_before"),
        "verified": verified,
    }


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def leaks_only_under_speculation(leaks: dict[str, tuple[bool, bool]]) -> set[str]:
    """Kernels whose speculative analysis flags a leak that the baseline
    does not; ``leaks`` maps kernel -> (baseline leaks, speculative leaks)."""
    return {name for name, (base, spec) in leaks.items() if spec and not base}


def regenerate() -> dict:
    """Run every catalogue request once, cold, and record its verdict."""
    from catalogue import branchy_requests, service_ops, tables_requests
    from repro.engine.engine import AnalysisEngine
    from repro.mitigation import synthesize_mitigation

    expected: dict[str, dict] = {}
    engine = AnalysisEngine()
    for request_id, request in tables_requests() + branchy_requests():
        expected[request_id] = result_verdict(engine.run(request))
    for op, request_id, request in service_ops():
        if op == "mitigate":
            wire = synthesize_mitigation(request, engine=AnalysisEngine()).to_wire()
            verdict = mitigation_verdict(wire)
            if not verdict.pop("verified"):
                raise SystemExit(f"{request_id}: mitigation did not verify")
            expected[request_id] = verdict
    return expected


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    EXPECTED_PATH.write_text(
        json.dumps(regenerate(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {EXPECTED_PATH}")
