#!/usr/bin/env python3
"""Mitigation synthesis: the detect → repair → re-verify loop.

For each requested Table-7 crypto kernel, this script detects the
speculative cache side channel in its Figure-10 client harness, then
asks :func:`repro.mitigation.synthesize_mitigation` for a fence
placement that closes it.  Two placements are considered:

* the **optimized** placement found by the dominator-guided greedy
  minimiser, which re-analyses every candidate through the engine and
  keeps only fences that provably remove leak sites, and
* the fence-every-branch **baseline** (no analysis, every source branch
  arm fenced — what blind ``lfence`` hardening does), scored only as the
  fallback when no optimized placement verifies.

The chosen placement must re-analyse to zero leak sites; the
synthesiser refuses to return anything unverified.  ``repro mitigate`` is the daemon-backed
equivalent of this script.

Run with::

    python examples/mitigation_synthesis.py [kernel ...]
"""

import sys

from repro import default_engine
from repro.bench.crypto import CRYPTO_BENCHMARKS
from repro.bench.tables import table7_client_request
from repro.mitigation import synthesize_mitigation


def main(argv: list[str]) -> None:
    names = argv or ["hash", "des"]
    unknown = [name for name in names if name not in CRYPTO_BENCHMARKS]
    if unknown:
        raise SystemExit(
            f"unknown kernels {unknown}; available: {sorted(CRYPTO_BENCHMARKS)}"
        )

    engine = default_engine()
    for name in names:
        result = synthesize_mitigation(table7_client_request(name), engine=engine)

        print(f"== {name} ==")
        if result.already_safe:
            print("  no leak detected; nothing to mitigate\n")
            continue
        for site in result.leak_sites:
            print(
                f"  leak: secret-indexed access to {site.symbol!r} "
                f"(line {site.line}, block {site.block})"
            )
        baseline, optimized = result.baseline, result.optimized
        if baseline is None:
            # Synthesis only scores the fence-every-branch strawman when
            # the minimiser fails to verify a placement.
            print("  baseline : skipped (optimized placement verified)")
        else:
            print(
                f"  baseline : {baseline.source_fences} fences, "
                f"WCET overhead {baseline.wcet_overhead_cycles:+d} cycles, "
                f"verified={baseline.verified}"
            )
        if optimized is not None:
            placed = ", ".join(point.describe() for point in optimized.points)
            print(
                f"  optimized: {optimized.source_fences} fences, "
                f"WCET overhead {optimized.wcet_overhead_cycles:+d} cycles, "
                f"verified={optimized.verified}"
            )
            print(f"             at: {placed}")
        print(
            f"  chosen {result.chosen!r} after {result.analyses_run} engine "
            f"analyses ({result.synthesis_time:.2f}s)\n"
        )

    print(engine.stats)


if __name__ == "__main__":
    main(sys.argv[1:])
