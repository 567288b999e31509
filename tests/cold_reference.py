"""The cold candidate scorer: the reference for incremental synthesis.

:func:`repro.mitigation.synthesize_mitigation` scores every fence
candidate as a warm-started re-analysis of an IR-patched program.
:class:`ColdScoringEngine` answers the same questions the slow, obvious
way: every ``warm_from`` run and every ephemeral (IR-patched) run is a
cache-free :func:`~repro.engine.engine.execute_request` of the patched
*source* — a full front end and a cold solve per candidate.  Synthesis
through it must choose the same placement, with the same WCET cycles
and patched source, as synthesis through a plain engine.

Used by ``tests/test_incremental.py`` and the cold arm of
``benchmarks/bench_incremental.py``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.engine.engine import AnalysisEngine, execute_request


class ColdScoringEngine(AnalysisEngine):
    """An engine that never warm-starts a candidate (see the module
    docstring).  Requests without a ``warm_from`` handle, such as the
    unpatched program's, go through the ordinary engine."""

    def run(self, request, program=None):
        if request.warm_from is None:
            return super().run(request, program)
        return execute_request(replace(request, warm_from=None))

    def run_ephemeral(self, request, program, retain=False):
        return execute_request(replace(request, warm_from=None))
