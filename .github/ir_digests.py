"""Compiled-IR and scenario gates: digests per benchmark program.

The op-count gate (``.github/op-counts.json``) cannot see a front-end
change that keeps every count but renames a temporary or shifts a line,
nor a convergence block or window that moved without changing a count.
This script compiles each distinct program of perfbench's ``tables`` and
``branchy`` catalogues and checks two files.

``.github/ir-digests.json`` holds one digest of each compiled program:

* the entry CFG's name, entry block and parameters;
* each block's name and the ``repr`` of its instructions and terminator,
  in block order (the reprs carry every field, lines included);
* the program's ``layout_fingerprint()``.

Its keys are ``t5/<name>``, ``t7/<name>`` and ``branchy/<n>``.

``.github/access-digests.json`` holds one digest of each program's
resolved access sites, under the same keys: for each reachable block,
in the graph index's order, each site of the block's access table as
field values, never reprs (instruction index, kind, symbol, blocks as
``(symbol, index)``, ``is_write``, lanes, lane mask, placeholder lanes
and placeholder mask).  A change to access resolution or lane numbering
must reproduce every bound access of every program.

``.github/vcfg-digests.json`` holds one digest of each program's
speculation scenarios per ``(depth_miss, depth_hit)``: the depths its
catalogue requests use, plus :data:`SHORT_DEPTHS`, whose windows end
inside the programs.  Each digest covers every scenario's color, branch
block, direction, wrong and correct targets and convergence block, and
both windows' depth and ``allowed`` map, in order.  Its keys are
``<program key>@<depth_miss>/<depth_hit>``.

Check the committed digests (exit 1 naming every mismatch), or
regenerate all three files after a change that means to move a
benchmark program's IR, access sites or scenarios:

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
ACCESS_DIGESTS = ROOT / ".github" / "access-digests.json"
VCFG_DIGESTS = ROOT / ".github" / "vcfg-digests.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from catalogue import branchy_requests, tables_requests  # noqa: E402
from repro.analysis.transfer import access_table  # noqa: E402
from repro.engine.engine import compile_request  # noqa: E402
from repro.engine.request import AnalysisKind  # noqa: E402
from repro.speculation.config import SpeculationConfig  # noqa: E402
from repro.speculation.vcfg import build_vcfg  # noqa: E402

#: Depths checked for every program besides its requests' own.
SHORT_DEPTHS = (32, 8)


def ir_digest(program) -> str:
    cfg = program.cfg
    hasher = hashlib.sha256(repr((cfg.name, cfg.entry, tuple(cfg.params))).encode())
    for name, block in cfg.blocks.items():
        parts = (name, tuple(map(repr, block.instructions)), repr(block.terminator))
        hasher.update(repr(parts).encode())
    hasher.update(program.layout_fingerprint().encode())
    return hasher.hexdigest()


def access_digest(program) -> str:
    cfg = program.cfg
    table = access_table(cfg, program.layout)
    hasher = hashlib.sha256()
    for name in cfg.graph().reachable:
        for site in table.sites(name):
            access = site.access
            parts = (
                name,
                site.instruction_index,
                access.kind.name,
                access.symbol,
                tuple((block.symbol, block.index) for block in access.blocks),
                access.is_write,
                access.lanes,
                access.lane_mask,
                access.placeholder_lanes,
                access.placeholder_mask,
            )
            hasher.update(repr(parts).encode())
    return hasher.hexdigest()


def vcfg_digest(program, depth_miss: int, depth_hit: int) -> str:
    config = SpeculationConfig(depth_miss=depth_miss, depth_hit=depth_hit)
    hasher = hashlib.sha256()
    for scenario in build_vcfg(program.cfg, config).scenarios:
        parts = (
            scenario.color,
            scenario.branch_block,
            scenario.mispredicted_taken,
            scenario.wrong_target,
            scenario.correct_target,
            scenario.convergence_block,
            scenario.window_miss.depth,
            tuple(scenario.window_miss.allowed.items()),
            scenario.window_hit.depth,
            tuple(scenario.window_hit.allowed.items()),
        )
        hasher.update(repr(parts).encode())
    return hasher.hexdigest()


def program_digests() -> tuple[dict[str, str], dict[str, str], dict[str, str]]:
    """``(IR digests, access digests, scenario digests)`` of the catalogue
    programs."""
    programs: dict[str, object] = {}
    depths: dict[str, set[tuple[int, int]]] = {}
    for request_id, request in tables_requests() + branchy_requests():
        key = "/".join(request_id.split("/")[:2])
        if key not in programs:
            programs[key] = compile_request(request)
            depths[key] = {SHORT_DEPTHS}
        if request.kind is AnalysisKind.SPECULATIVE:
            speculation = request.resolved_speculation
            depths[key].add((speculation.depth_miss, speculation.depth_hit))
    ir = {key: ir_digest(program) for key, program in programs.items()}
    access = {key: access_digest(program) for key, program in programs.items()}
    vcfg = {
        f"{key}@{miss}/{hit}": vcfg_digest(program, miss, hit)
        for key, program in programs.items()
        for miss, hit in sorted(depths[key])
    }
    return ir, access, vcfg


def _mismatches(label: str, path: Path, digests: dict[str, str]) -> list[str]:
    expected = json.loads(path.read_text())
    mismatches = [
        f"{label} mismatch: {key}: {digests.get(key, 'missing')}, expected {want}"
        for key, want in expected.items()
        if digests.get(key) != want
    ]
    mismatches += [
        f"{label} mismatch: {key}: not in {path.name}"
        for key in digests
        if key not in expected
    ]
    return mismatches


def main() -> int:
    ir, access, vcfg = program_digests()
    files = ((DIGESTS, ir), (ACCESS_DIGESTS, access), (VCFG_DIGESTS, vcfg))
    if "--write" in sys.argv[1:]:
        for path, digests in files:
            path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
            print(f"wrote {len(digests)} digests to {path.relative_to(ROOT)}")
        return 0
    mismatches = (
        _mismatches("IR", DIGESTS, ir)
        + _mismatches("access", ACCESS_DIGESTS, access)
        + _mismatches("scenario", VCFG_DIGESTS, vcfg)
    )
    for mismatch in mismatches:
        print(mismatch)
    if mismatches:
        return 1
    print(
        f"IR gate OK: {len(ir)} programs; access gate OK: {len(access)} programs; "
        f"scenario gate OK: {len(vcfg)} digests"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
