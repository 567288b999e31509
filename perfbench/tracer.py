"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public entry points of each layer (listed in
:data:`LAYER_TARGETS`) while it is installed, and aggregates one span
per call: the call count, the inclusive time and the self time (the
span's duration minus the part covered by its child spans).  Spans are
kept in memory, per thread, as running totals; nothing is written until
the caller asks for :meth:`Tracer.layer_metrics`.

Wrapping patches *every binding callers use*: a function imported by
name into another module (``from repro.lang.parser import
parse_program``) is a separate binding, so installation replaces the
function in every loaded ``repro`` module that holds it, plus the
defining module for imports made later.  Methods are patched on their
class.  :meth:`Tracer.uninstall` restores the originals everywhere.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

#: ``(span name, module, attribute)``; a dotted attribute names a method.
#: Several targets may share one span name (they are one layer metric).
LAYER_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("lang.parse", "repro.lang.parser", "parse_program"),
    ("lang.typecheck", "repro.lang.typecheck", "check_program"),
    ("ir.unroll", "repro.ir.unroll", "unroll_fixed_loops"),
    ("ir.lower", "repro.ir.lowering", "lower_program"),
    ("ir.inline", "repro.ir.inline", "inline_calls"),
    ("ir.frontend_glue", "repro.frontend", "compile_source"),
    ("speculation.vcfg", "repro.speculation.vcfg", "build_vcfg"),
    ("analysis.init", "repro.analysis.multicolor", "SpeculativeCacheAnalysis.__init__"),
    ("analysis.fixpoint", "repro.analysis.multicolor", "SpeculativeCacheAnalysis.solve"),
    ("analysis.classify", "repro.analysis.multicolor", "SpeculativeCacheAnalysis.run"),
    ("analysis.baseline", "repro.analysis.baseline", "analyze_baseline"),
    ("engine.run", "repro.engine.engine", "AnalysisEngine.run"),
    ("mitigation.synthesize", "repro.mitigation.synthesis", "synthesize_mitigation"),
    ("mitigation.patch", "repro.mitigation.patch", "apply_fence_points"),
    ("mitigation.patch", "repro.mitigation.patch", "apply_fence_points_ir"),
    ("mitigation.patch", "repro.ir.printer", "program_to_source"),
) + tuple(
    (f"cache.{method}", module, f"{cls}.{method}")
    for module, cls in (
        ("repro.cache.shadow", "ShadowCacheState"),
        ("repro.cache.abstract", "CacheState"),
        ("repro.cache.setassoc", "SetAssocCacheState"),
    )
    for method in ("join", "leq", "access")
)

#: Per-layer counts the program already keeps in its metrics registry:
#: ``{metric: registry counter}``.
REGISTRY_COUNTS = {
    "analysis.pops": "fixpoint.pops",
    "analysis.slot_retransfers": "fixpoint.slot_retransfers",
    "analysis.widenings": "fixpoint.widenings",
}

#: Spans whose self time is cache-domain work (``cache.domain_share``).
DOMAIN_SPANS = ("cache.join", "cache.leq", "cache.access")

#: What to keep from a call for the derived counts: ``(args, result)`` ->
#: object appended to ``Tracer.captured[span]``.
_CAPTURES: dict[str, Callable] = {
    "ir.frontend_glue": lambda args, result: result,
    "speculation.vcfg": lambda args, result: result,
    "analysis.classify": lambda args, result: args[0],
}


class _ThreadState:
    """One thread's open-span stack (child time per open span) and its
    per-span totals ``[calls, inclusive s, self s]``."""

    __slots__ = ("stack", "totals", "fixpoint_domain_s", "fixpoint_total_s")

    def __init__(self) -> None:
        self.stack: list[float] = []
        self.totals: dict[str, list] = {}
        self.fixpoint_domain_s = 0.0
        self.fixpoint_total_s = 0.0


@dataclass
class _Patch:
    owner: object
    attribute: str
    original: object
    replacement: object


def _domain_self(totals: dict[str, list]) -> float:
    return sum(totals[name][2] for name in DOMAIN_SPANS if name in totals)


class Tracer:
    """Install/uninstall layer wrappers and aggregate their spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: list[_Patch] = []
        self.captured: dict[str, list] = {name: [] for name in _CAPTURES}

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def _wrap(self, name: str, fn: Callable) -> Callable:
        state_of = self._state
        clock = time.perf_counter
        capture = _CAPTURES.get(name)
        sink = self.captured.get(name)
        fixpoint = name == "analysis.fixpoint"

        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            stack.append(0.0)
            if fixpoint:
                domain_before = _domain_self(state.totals)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals = state.totals.get(name)
                if totals is None:
                    totals = state.totals[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - child
                if fixpoint:
                    state.fixpoint_domain_s += _domain_self(state.totals) - domain_before
                    state.fixpoint_total_s += elapsed
            if capture is not None:
                sink.append(capture(args, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, module_name, attribute in LAYER_TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(module, class_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(name, original))
                continue
            original = getattr(module, attribute)
            replacement = self._wrap(name, original)
            for holder in list(sys.modules.values()):
                if getattr(holder, "__name__", "").startswith("repro") and (
                    vars(holder).get(attribute) is original
                ):
                    self._patch(holder, attribute, original, replacement)
        return self

    def _patch(self, owner, attribute: str, original, replacement) -> None:
        setattr(owner, attribute, replacement)
        self._patches.append(_Patch(owner, attribute, original, replacement))

    def uninstall(self) -> None:
        """Restore every patched binding, including bindings that modules
        imported after installation copied from a patched module."""
        replacements = {id(patch.replacement): patch.original for patch in self._patches}
        for patch in self._patches:
            setattr(patch.owner, patch.attribute, patch.original)
        for holder in list(sys.modules.values()):
            if not getattr(holder, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(holder).items()):
                if id(value) in replacements:
                    setattr(holder, attribute, replacements[id(value)])
        self._patches.clear()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, list]:
        """``{span: [calls, inclusive s, self s]}`` merged over threads."""
        merged: dict[str, list] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for name, (calls, inclusive, own) in state.totals.items():
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += inclusive
                entry[2] += own
        return merged

    def self_time_total(self) -> float:
        """Sum of every span's self time (the layers' share of the wall)."""
        return sum(entry[2] for entry in self.totals().values())

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric this tracer can derive on its own."""
        totals = self.totals()

        def self_s(name: str) -> float:
            return totals.get(name, [0, 0.0, 0.0])[2]

        def calls(name: str) -> int:
            return totals.get(name, [0, 0.0, 0.0])[0]

        with self._states_lock:
            states = list(self._states)
        fixpoint_domain = sum(state.fixpoint_domain_s for state in states)
        fixpoint_total = sum(state.fixpoint_total_s for state in states)
        vcfgs = self.captured["speculation.vcfg"]
        entries = [
            _state_entries(state)
            for analysis in self.captured["analysis.classify"]
            for state in _fixpoint_states(analysis.last_fixpoint)
        ]
        values: dict[str, float] = {
            "lang.parse_s": self_s("lang.parse"),
            "lang.typecheck_s": self_s("lang.typecheck"),
            "ir.unroll_s": self_s("ir.unroll"),
            "ir.lower_s": self_s("ir.lower"),
            "ir.inline_s": self_s("ir.inline"),
            "ir.frontend_glue_s": self_s("ir.frontend_glue"),
            "ir.blocks": sum(
                len(program.cfg.blocks) for program in self.captured["ir.frontend_glue"]
            ),
            "speculation.vcfg_s": self_s("speculation.vcfg"),
            "speculation.scenarios": sum(len(vcfg.scenarios) for vcfg in vcfgs),
            "speculation.virtual_edges": sum(vcfg.num_virtual_edges for vcfg in vcfgs),
            "analysis.init_s": self_s("analysis.init"),
            "analysis.fixpoint_s": self_s("analysis.fixpoint"),
            "analysis.classify_s": self_s("analysis.classify"),
            "analysis.baseline_s": self_s("analysis.baseline"),
            "cache.state_entries_mean": sum(entries) / len(entries) if entries else 0.0,
            "cache.state_entries_max": max(entries, default=0),
            "cache.domain_share": fixpoint_domain / fixpoint_total if fixpoint_total else 0.0,
            "engine.run_s": self_s("engine.run"),
            "mitigation.synthesize_s": self_s("mitigation.synthesize"),
            "mitigation.patch_s": self_s("mitigation.patch"),
        }
        for method in ("join", "leq", "access"):
            values[f"cache.{method}_calls"] = calls(f"cache.{method}")
            values[f"cache.{method}_s"] = self_s(f"cache.{method}")
        return values

    def fired(self) -> set[str]:
        """Span names that recorded at least one call."""
        return {name for name, entry in self.totals().items() if entry[0]}


def _fixpoint_states(fixpoint) -> list:
    if fixpoint is None:
        return []
    states = list(fixpoint.normal.values())
    for slots in fixpoint.speculative.values():
        states.extend(slots.values())
    return states


def _state_entries(state) -> int:
    """Tracked blocks in one abstract state (must + may ages for the
    shadow domain)."""
    if hasattr(state, "must"):
        return len(state.must) + len(state.may)
    return len(state)
