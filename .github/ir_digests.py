"""Compiled-IR gate: one digest per benchmark program.

The op-count gate (``.github/op-counts.json``) cannot see a front-end
change that keeps every count but renames a temporary or shifts a line.
This gate compiles each distinct program of perfbench's ``tables`` and
``branchy`` catalogues and hashes the compiled result:

* the entry CFG's name, entry block and parameters;
* each block's name and the ``repr`` of its instructions and terminator,
  in block order (the reprs carry every field, lines included);
* the program's ``layout_fingerprint()``.

Keys are ``t5/<name>``, ``t7/<name>`` and ``branchy/<n>``.  Check the
committed digests (exit 1 naming every mismatch), or regenerate them
after a change that means to move a benchmark program's IR:

    python3 .github/ir_digests.py
    python3 .github/ir_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / ".github" / "ir-digests.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from catalogue import branchy_requests, tables_requests  # noqa: E402
from repro.engine.engine import compile_request  # noqa: E402


def ir_digest(program) -> str:
    cfg = program.cfg
    hasher = hashlib.sha256(repr((cfg.name, cfg.entry, tuple(cfg.params))).encode())
    for name, block in cfg.blocks.items():
        parts = (name, tuple(map(repr, block.instructions)), repr(block.terminator))
        hasher.update(repr(parts).encode())
    hasher.update(program.layout_fingerprint().encode())
    return hasher.hexdigest()


def program_digests() -> dict[str, str]:
    digests: dict[str, str] = {}
    for request_id, request in tables_requests() + branchy_requests():
        key = "/".join(request_id.split("/")[:2])
        if key not in digests:
            digests[key] = ir_digest(compile_request(request))
    return digests


def main() -> int:
    digests = program_digests()
    if "--write" in sys.argv[1:]:
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {DIGESTS.relative_to(ROOT)}")
        return 0
    expected = json.loads(DIGESTS.read_text())
    mismatches = [
        f"{key}: {digests.get(key, 'missing')}, expected {want}"
        for key, want in expected.items()
        if digests.get(key) != want
    ]
    mismatches += [f"{key}: not in {DIGESTS.name}" for key in digests if key not in expected]
    for mismatch in mismatches:
        print("IR mismatch:", mismatch)
    if mismatches:
        return 1
    print(f"IR gate OK: {len(digests)} programs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
