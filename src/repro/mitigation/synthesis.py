"""The detect → repair → re-verify loop.

:func:`synthesize_mitigation` takes one speculative
:class:`~repro.engine.request.AnalysisRequest`, detects its leak sites,
and produces a :class:`MitigationResult` holding two placements:

* the **fence-every-branch baseline** (no analysis, every source branch
  arm fenced), and
* the **optimized placement**: a greedy minimiser over analysis-guided
  candidates (surviving-branch arms plus dominator-guided hoist points),
  which each round evaluates every remaining candidate by actually
  re-analysing the patched program through the engine — so "removes N
  leak sites" is a proof, not a heuristic — and keeps the candidate
  removing the most leaks at the lowest WCET-cycle overhead.

Every evaluation is an ordinary engine request: repeated synthesis of
the same program is served from the result caches (including the tier-2
store when one is attached), and the daemon memoises whole
``MitigationResult`` values under :func:`mitigation_key`.

When the engine runs with incremental re-analysis enabled
(``REPRO_INCREMENTAL=1`` / ``AnalysisEngine(incremental=True)``), the
loop instead analyses the unpatched program *once*, retains its fixpoint
snapshot, and scores every candidate as a warm-started re-analysis of an
IR-patched program (:func:`~repro.mitigation.patch.apply_fence_points_ir`)
— skipping the front end and the unperturbed part of the fixpoint per
candidate.  The verdicts are identical; only wall-clock changes.  The
final verification gate is unchanged: cache-free recompilation and
analysis of the selected placement's patched *source*.

The function *refuses to return an unverified placement*: the selected
placement's patched source is re-analysed one final time through the
engine, and anything but zero leak sites raises :class:`MitigationError`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.apps.sidechannel import LeakSite
from repro.engine.engine import AnalysisEngine, default_engine
from repro.engine.request import AnalysisKind, AnalysisRequest
from repro.errors import ReproError
from repro.ir.printer import program_to_source
from repro.lang.parser import parse_program
from repro.mitigation.patch import (
    FencePoint,
    apply_fence_points,
    apply_fence_points_ir,
    count_fence_statements,
    enumerate_fence_points,
)
from repro.mitigation.placement import (
    count_ir_fences,
    hoist_points,
    placement_cycles,
    surviving_branch_points,
)
from repro.obs import publish_progress, span

#: Synthesis gives up after this many greedy rounds (each round adds one
#: fence point); programs needing more are declared unmitigable by the
#: optimizer and fall back to the baseline placement.
DEFAULT_MAX_ROUNDS = 8


class MitigationError(ReproError):
    """No verified fence placement exists (or verification failed)."""


@dataclass(frozen=True)
class PlacementOutcome:
    """One evaluated fence placement, with its re-analysis verdict."""

    strategy: str
    points: tuple[FencePoint, ...]
    source_fences: int
    ir_fences: int
    leak_sites_after: int
    verified: bool
    wcet_cycles: int
    wcet_overhead_cycles: int
    patched_source: str

    def to_wire(self) -> dict:
        return {
            "strategy": self.strategy,
            "points": [
                {"kind": point.kind, "line": point.line} for point in self.points
            ],
            "source_fences": self.source_fences,
            "ir_fences": self.ir_fences,
            "leak_sites_after": self.leak_sites_after,
            "verified": self.verified,
            "wcet_cycles": self.wcet_cycles,
            "wcet_overhead_cycles": self.wcet_overhead_cycles,
            "patched_source": self.patched_source,
        }


@dataclass
class MitigationResult:
    """Outcome of one synthesis run.

    ``chosen`` names the placement a caller should apply: ``"optimized"``
    when the minimiser verified, ``"baseline"`` when only
    fence-every-branch did, ``"none"`` when the program was already
    leak-free (both placements are then absent).  On incremental runs
    where the optimizer verified, ``baseline`` is None — the yardstick
    placement is only evaluated when needed as the fallback.
    """

    name: str
    leak_sites_before: int
    secret_sites: int
    leak_sites: list[LeakSite] = field(default_factory=list)
    baseline: PlacementOutcome | None = None
    optimized: PlacementOutcome | None = None
    chosen: str = "none"
    unpatched_wcet_cycles: int = 0
    analyses_run: int = 0
    synthesis_time: float = 0.0
    from_cache: bool = False
    #: Whether candidates were scored through the incremental path
    #: (IR-level patching + warm-started fixpoints).  When True and the
    #: optimizer verified, ``baseline`` is None: the fence-every-branch
    #: yardstick is only evaluated as the fallback placement.
    incremental: bool = False
    #: Wall-clock spent evaluating candidate placements (the part the
    #: incremental path accelerates; the rest of ``synthesis_time`` is
    #: the unpatched analysis and the final cache-free verification).
    scoring_time: float = 0.0

    @property
    def already_safe(self) -> bool:
        return self.leak_sites_before == 0

    def selected(self) -> PlacementOutcome | None:
        if self.chosen == "optimized":
            return self.optimized
        if self.chosen == "baseline":
            return self.baseline
        return None

    def to_wire(self) -> dict:
        return {
            "name": self.name,
            "leak_sites_before": self.leak_sites_before,
            "secret_sites": self.secret_sites,
            "leak_sites": [
                {
                    "block": site.block,
                    "instruction_index": site.instruction_index,
                    "symbol": site.symbol,
                    "line": site.line,
                }
                for site in self.leak_sites
            ],
            "baseline": None if self.baseline is None else self.baseline.to_wire(),
            "optimized": None if self.optimized is None else self.optimized.to_wire(),
            "chosen": self.chosen,
            "unpatched_wcet_cycles": self.unpatched_wcet_cycles,
            "analyses_run": self.analyses_run,
            "synthesis_time": self.synthesis_time,
            "from_cache": self.from_cache,
            "incremental": self.incremental,
            "scoring_time": self.scoring_time,
        }


def mitigation_key(request: AnalysisRequest, optimize: bool = True) -> str:
    """Store key (64-hex) for a memoised synthesis of ``request``.

    The request is normalised to the speculative kind first, exactly as
    :func:`synthesize_mitigation` will run it — a BASELINE-kind request's
    own result key ignores the speculation config, which would collide
    syntheses that analyse differently.
    """
    if request.kind is not AnalysisKind.SPECULATIVE:
        request = replace(request, kind=AnalysisKind.SPECULATIVE)
    material = f"mitigation|v1|{request.result_key()}|optimize={bool(optimize)}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def synthesize_mitigation(
    request: AnalysisRequest,
    engine: AnalysisEngine | None = None,
    optimize: bool = True,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> MitigationResult:
    """Synthesise and verify a fence placement for ``request``.

    ``request`` is normalised to the speculative analysis kind (leaks are
    a speculative phenomenon; the baseline analysis cannot see them).
    With ``optimize=False`` only the fence-every-branch placement is
    evaluated.  Raises :class:`MitigationError` when leaks remain under
    every placement, so a returned result always carries a placement
    whose patched program re-analysed to zero leak sites.
    """
    eng = engine or default_engine()
    if request.kind is not AnalysisKind.SPECULATIVE:
        request = replace(request, kind=AnalysisKind.SPECULATIVE)
    label = request.label or request.entry or "<program>"

    # The public `synthesis_time` is derived from the span's duration:
    # the span always times itself, sinks or not.
    with span("mitigate", program=label, optimize=optimize) as mitigate_span:
        result = _synthesize(request, eng, optimize, max_rounds, label, mitigate_span)
    result.synthesis_time = mitigate_span.duration
    return result


def _synthesize(
    request: AnalysisRequest,
    eng: AnalysisEngine,
    optimize: bool,
    max_rounds: int,
    label: str,
    mitigate_span,
) -> MitigationResult:
    # The incremental path: retain a snapshot of the unpatched analysis
    # and score every candidate as a warm-started re-analysis of an
    # IR-patched program, skipping the front end and the unperturbed part
    # of the fixpoint per candidate.  Verdict-identical to the cold path;
    # the final _verify gate stays cache-free source recompilation.
    incremental = eng.incremental_enabled
    if incremental:
        unpatched = eng.ensure_snapshot(request)
        base_key = request.result_key()
    else:
        unpatched = eng.run(request)
        base_key = None
    leaks = unpatched.secret_dependent_classifications()
    program = eng.compile(request)
    program_ast = parse_program(request.source)
    cache_config = request.resolved_cache_config
    original_fences = count_fence_statements(program_ast)
    unpatched_cycles = placement_cycles(
        unpatched.hit_count,
        unpatched.miss_count,
        cache_config,
        count_ir_fences(program),
    )

    result = MitigationResult(
        name=label,
        leak_sites_before=len(leaks),
        secret_sites=len(unpatched.secret_indexed_classifications()),
        leak_sites=[LeakSite.from_classification(c) for c in leaks],
        unpatched_wcet_cycles=unpatched_cycles,
        analyses_run=1,
        incremental=incremental,
    )
    mitigate_span.set(leak_sites_before=len(leaks))
    publish_progress("mitigate", program=label, leak_sites_before=len(leaks))
    if not leaks:
        return result

    # Scored candidates whose snapshots were retained, for warm-start
    # chaining: the greedy loop's round-N placements extend round-(N-1)'s
    # accepted set, so the scored subset sharing the most points is a far
    # closer warm-start base than the unpatched program (its diff is just
    # the fresh group, not every fence placed so far).
    chained: dict[frozenset, str] = {}

    def nearest_base(points: tuple[FencePoint, ...]) -> str | None:
        point_set = frozenset(points)
        best: tuple[int, str] | None = None
        for scored, key in chained.items():
            if scored and scored < point_set and (best is None or len(scored) > best[0]):
                best = (len(scored), key)
        return best[1] if best is not None else base_key

    def evaluate(points: tuple[FencePoint, ...], strategy: str) -> PlacementOutcome:
        with span(
            "mitigate.candidate", strategy=strategy, fence_points=len(points)
        ) as candidate_span:
            patched_ast = apply_fence_points(program_ast, points)
            source = program_to_source(patched_ast)
            patched_request = replace(
                request,
                source=source,
                label=f"{label}+fences",
                warm_from=nearest_base(points) if incremental else base_key,
            )
            analysed = None
            patched_program = None
            if incremental:
                # Patch at the IR level and score through the quarantined
                # warm path: no front end, no result-cache writes (the IR
                # twin is verdict-identical but not line-faithful).  Points
                # with no IR image — arms of fully-unrolled loops, as in
                # the fence-every-branch baseline — take the source path.
                patched_program = apply_fence_points_ir(program, points, source)
                if patched_program is not None:
                    analysed = eng.run_ephemeral(
                        patched_request, patched_program, retain=True
                    )
                    chained[frozenset(points)] = patched_request.result_key()
            if analysed is None:
                analysed = eng.run(patched_request)
                patched_program = eng.compile(patched_request)
            result.analyses_run += 1
            ir_fences = count_ir_fences(patched_program)
            cycles = placement_cycles(
                analysed.hit_count, analysed.miss_count, cache_config, ir_fences
            )
            candidate_span.set(
                leak_sites_after=analysed.leak_site_count,
                verified=analysed.leak_site_count == 0,
            )
            publish_progress(
                "mitigate.candidate",
                strategy=strategy,
                fence_points=len(points),
                leak_sites_after=analysed.leak_site_count,
                verified=analysed.leak_site_count == 0,
            )
        result.scoring_time += candidate_span.duration
        return PlacementOutcome(
            strategy=strategy,
            points=tuple(points),
            source_fences=count_fence_statements(patched_ast) - original_fences,
            ir_fences=ir_fences,
            leak_sites_after=analysed.leak_site_count,
            verified=analysed.leak_site_count == 0,
            wcet_cycles=cycles,
            wcet_overhead_cycles=cycles - unpatched_cycles,
            patched_source=source,
        )

    if not incremental:
        result.baseline = evaluate(
            tuple(enumerate_fence_points(program_ast)), "baseline"
        )
    if optimize:
        result.optimized = _greedy_minimise(
            program, request, evaluate, len(leaks), max_rounds
        )
    if incremental and (result.optimized is None or not result.optimized.verified):
        # The fence-every-branch yardstick is only needed as the fallback
        # placement; when the optimizer verified, skipping it keeps the
        # interactive loop at one fixed-cost analysis (the unpatched one).
        result.baseline = evaluate(
            tuple(enumerate_fence_points(program_ast)), "baseline"
        )

    if result.optimized is not None and result.optimized.verified:
        result.chosen = "optimized"
    elif result.baseline is not None and result.baseline.verified:
        result.chosen = "baseline"
    else:
        remaining = (
            result.baseline.leak_sites_after if result.baseline is not None else len(leaks)
        )
        raise MitigationError(
            f"no fence placement closes the {len(leaks)} leak site(s) of "
            f"{label!r}: even fence-every-branch leaves "
            f"{remaining} (the leak is not a "
            "speculation artefact)"
        )

    _verify(result, request, eng, label)
    mitigate_span.set(chosen=result.chosen, analyses_run=result.analyses_run)
    return result


def _candidate_groups(program, request: AnalysisRequest) -> list[tuple[FencePoint, ...]]:
    """Candidate placements for one greedy step, cheapest shapes first:

    1. dominator-guided hoist points (one fence truncating the windows of
       several scenarios at once);
    2. single branch arms (one fence killing one scenario);
    3. whole branches (both arms — needed when both of a branch's
       scenarios pollute, as a lone arm fence then removes nothing).
    """
    groups: list[tuple[FencePoint, ...]] = [
        (point,) for point in hoist_points(program, request.resolved_speculation)
    ]
    arms = surviving_branch_points(program)
    groups += [(point,) for point in arms if (point,) not in groups]
    by_line: dict[int, list[FencePoint]] = {}
    for point in arms:
        by_line.setdefault(point.line, []).append(point)
    groups += [tuple(points) for points in by_line.values() if len(points) > 1]
    return groups


def _greedy_minimise(
    program,
    request: AnalysisRequest,
    evaluate,
    leaks_before: int,
    max_rounds: int,
) -> PlacementOutcome | None:
    """Greedy set-cover over analysis-guided candidate groups.

    Each round evaluates every remaining candidate group appended to the
    placement so far and keeps the one removing the most leak sites;
    WCET-cycle overhead breaks ties, fewer source fences break the rest.
    Rounds in which no group removes a leak stop the search (returning
    the best-so-far lets the caller fall back to the baseline).
    """
    groups = _candidate_groups(program, request)
    placed: list[FencePoint] = []
    best_outcome: PlacementOutcome | None = None
    remaining = leaks_before
    for _ in range(max_rounds):
        round_best: tuple[tuple, tuple[FencePoint, ...], PlacementOutcome] | None = None
        for group in groups:
            fresh = tuple(point for point in group if point not in placed)
            if not fresh:
                continue
            outcome = evaluate(tuple(placed) + fresh, "optimized")
            score = (
                -(remaining - outcome.leak_sites_after),
                outcome.wcet_overhead_cycles,
                outcome.source_fences,
            )
            if round_best is None or score < round_best[0]:
                round_best = (score, fresh, outcome)
        if round_best is None or round_best[0][0] >= 0:
            return best_outcome  # no group removes a leak site
        _, chosen, outcome = round_best
        placed.extend(chosen)
        remaining = outcome.leak_sites_after
        best_outcome = outcome
        if outcome.verified:
            return outcome
    return best_outcome


def _verify(
    result: MitigationResult,
    request: AnalysisRequest,
    engine: AnalysisEngine,
    label: str,
) -> None:
    """The final gate: recompute the side-channel analysis of the selected
    placement's patched source *cache-free* and refuse to return anything
    that still leaks.

    The greedy loop's own evaluations went through ``engine`` and sit in
    its caches; replaying the same request would be a tautological check.
    :func:`execute_request` is the engine's cache-free core, so this is an
    independent recomputation of the verdict the result promises.
    """
    from repro.engine.engine import execute_request

    selected = result.selected()
    assert selected is not None
    verification = execute_request(
        replace(request, source=selected.patched_source, label=f"{label}+fences")
    )
    result.analyses_run += 1
    if verification.leak_site_count:
        raise MitigationError(
            f"verification failed for {label!r}: the {selected.strategy} "
            "placement still reports leak sites"
        )
