"""Mitigation synthesis: naive vs optimized fence placement on Table 7.

For every Table-7 crypto kernel whose client harness leaks under the
speculative analysis, run the full detect → repair → re-verify loop and
compare two placements:

* **baseline** — fence-every-branch (both arms of every source
  conditional; what blind ``lfence`` hardening does).  The synthesiser
  scores it only as its fallback, so the yardstick comes from a second,
  ``optimize=False`` synthesis; and
* **optimized** — the dominator-guided greedy minimiser, which only
  fences what the analysis proves matters.

Reported per kernel: source fences inserted, fence instructions in the
compiled program, and the WCET-cycle overhead of each placement (cycle
bound from :func:`repro.apps.wcet.estimated_cycles` plus the per-fence
pipeline penalty).  Both placements must re-analyse to **zero** leak
sites; the optimized one is expected to use strictly fewer fences.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_mitigation.py [--smoke]

or under pytest (explicit path, as for all benchmarks)::

    PYTHONPATH=src python -m pytest benchmarks/bench_mitigation.py -s
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.crypto import CRYPTO_BENCHMARKS
from repro.bench.tables import table7_client_request
from repro.engine.engine import AnalysisEngine
from repro.mitigation import MitigationResult, synthesize_mitigation

#: Kernels whose harness leaks under speculation (Table 7's findings).
EXPECTED_LEAKY = ("hash", "encoder", "chacha20", "ocb", "des")


def run_suite(names: list[str], engine: AnalysisEngine) -> list[MitigationResult]:
    """Synthesise each kernel's placement, with the fence-every-branch
    yardstick filled in from an ``optimize=False`` run where the
    optimizer verified (and synthesis therefore left it out)."""
    results = []
    for name in names:
        request = table7_client_request(name)
        result = synthesize_mitigation(request, engine=engine)
        if result.baseline is None and not result.already_safe:
            result.baseline = synthesize_mitigation(
                request, engine=engine, optimize=False
            ).baseline
        results.append(result)
    return results


def report(results: list[MitigationResult]) -> None:
    from repro.apps.report import format_mitigation_table

    print(format_mitigation_table(
        results, title="Mitigation synthesis — naive vs optimized placement"
    ))
    leaking = [result for result in results if result.leak_sites_before >= 1]
    fewer = sum(
        1
        for result in leaking
        if result.optimized is not None
        and result.baseline is not None
        and result.optimized.source_fences < result.baseline.source_fences
    )
    print(
        f"\noptimized placement uses strictly fewer fences on "
        f"{fewer}/{len(leaking)} leaking kernels"
    )


def check(results: list[MitigationResult]) -> None:
    """Assert the PR's acceptance shape over the *leaking* kernels; safe
    kernels (any CRYPTO_BENCHMARKS name is accepted on the command line)
    just have to come back marked safe."""
    leaking = [result for result in results if result.leak_sites_before >= 1]
    for result in results:
        if result not in leaking:
            assert result.already_safe and result.chosen == "none", result.name
            continue
        selected = result.selected()
        assert selected is not None and selected.verified, (
            f"{result.name}: no verified placement"
        )
        assert result.baseline is not None and result.baseline.verified
    fewer = sum(
        1
        for result in leaking
        if result.optimized is not None
        and result.optimized.verified
        and result.optimized.source_fences < result.baseline.source_fences
    )
    assert fewer * 2 >= len(leaking), (
        f"optimized beat the baseline on only {fewer}/{len(leaking)} leaking kernels"
    )


def test_mitigation_naive_vs_optimized(once=None, benchmark=None):
    """Pytest entry point (fixtures optional so plain invocation works)."""
    engine = AnalysisEngine()
    results = run_suite(list(EXPECTED_LEAKY), engine)
    print()
    report(results)
    print(engine.stats)
    check(results)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="one kernel only (CI-sized)")
    parser.add_argument("kernels", nargs="*",
                        help=f"kernels to mitigate (default: {', '.join(EXPECTED_LEAKY)})")
    parser.add_argument("--json", action="store_true",
                        help="write BENCH_mitigation.json (see benchlib)")
    args = parser.parse_args(argv)
    names = args.kernels or list(EXPECTED_LEAKY)
    if args.smoke:
        names = names[:1]
    unknown = [name for name in names if name not in CRYPTO_BENCHMARKS]
    if unknown:
        print(f"unknown kernels: {unknown}", file=sys.stderr)
        return 2
    engine = AnalysisEngine()
    started = time.perf_counter()
    results = run_suite(names, engine)
    elapsed = time.perf_counter() - started
    report(results)
    print(f"total synthesis wall time: {elapsed:.2f}s")
    check(results)
    print("OK: every placement verified to zero leak sites")
    if args.json:
        import benchlib

        path = benchlib.write_bench_json(
            "mitigation",
            params={"smoke": args.smoke, "kernels": names},
            rows=[
                {
                    "kernel": result.name,
                    "leak_sites_before": result.leak_sites_before,
                    "chosen": result.chosen,
                    "fences": (
                        result.selected().source_fences
                        if result.selected() is not None
                        else 0
                    ),
                    "baseline_fences": (
                        result.baseline.source_fences
                        if result.baseline is not None
                        else 0
                    ),
                    "verified": (
                        result.selected().verified
                        if result.selected() is not None
                        else True
                    ),
                    "wall_seconds": result.synthesis_time,
                }
                for result in results
            ],
            wall_seconds=elapsed,
        )
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
