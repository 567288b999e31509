"""Dynamic bounding of the speculation depth (Section 6.2).

Every speculation scenario carries two precomputed windows: one for the
``bm`` bound (branch condition operands may miss, long speculation) and
one for ``bh`` (operands proven must-hit, short speculation).  During the
fixpoint, whenever the branch block is processed the chooser inspects the
current abstract state: if every memory block the condition depends on is
a must hit, the short window is used, removing the corresponding virtual
edges from consideration.

Because abstract states only grow (become less precise) during the
fixpoint, a must-hit fact can be lost but never gained; the chooser
therefore only ever switches a scenario from the short window to the long
one, which keeps the overall computation monotone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.memory import MemoryLayout
from repro.speculation.config import SpeculationConfig
from repro.speculation.vcfg import SpeculationScenario, SpeculativeWindow


@dataclass
class DepthBoundingStats:
    """Statistics of the optimisation, reported in the ablation bench."""

    scenarios_total: int = 0
    scenarios_shortened: int = 0
    virtual_edges_full: int = 0
    virtual_edges_active: int = 0

    @property
    def virtual_edges_removed(self) -> int:
        return self.virtual_edges_full - self.virtual_edges_active


@dataclass
class DepthChooser:
    """Tracks the active window of every scenario during the fixpoint."""

    config: SpeculationConfig
    layout: MemoryLayout
    #: ``{color: window in force}``.  The speculative drain takes this dict
    #: once per pass and reads it per slot, so it is updated in place and
    #: never rebound.
    _active: dict[int, SpeculativeWindow] = field(default_factory=dict)
    _locked_long: set[int] = field(default_factory=set)

    def active_window(self, scenario: SpeculationScenario) -> SpeculativeWindow:
        """The window currently in force for ``scenario`` (defaults to the
        long window until the branch block has been analysed once)."""
        return self._active.get(scenario.color, scenario.window_miss)

    def choose(self, scenario: SpeculationScenario, state) -> SpeculativeWindow:
        """(Re-)choose the window for ``scenario`` given the abstract state
        at the entry of its branch block.  Returns the active window."""
        if not self.config.dynamic_depth_bounding:
            window = scenario.window_miss
            self._active[scenario.color] = window
            return window
        if scenario.color in self._locked_long:
            return self._active[scenario.color]
        if self._condition_must_hit(scenario, state):
            window = scenario.window_hit
        else:
            window = scenario.window_miss
            self._locked_long.add(scenario.color)
        self._active[scenario.color] = window
        return window

    def _condition_must_hit(self, scenario: SpeculationScenario, state) -> bool:
        if getattr(state, "is_bottom", False):
            # Unreachable so far: optimistically use the short window; it
            # will be revisited as soon as the block becomes reachable.
            return True
        if not scenario.cond_refs:
            # A condition held entirely in registers resolves immediately.
            return True
        for ref in scenario.cond_refs:
            access = self.layout.resolve(ref)
            if not state.must_hit_access(access):
                return False
        return True

    def export_state(self) -> tuple[dict[int, int], frozenset[int]]:
        """``({color: active window depth}, locked colors)`` — the part of
        the chooser an :class:`~repro.engine.incremental.AnalysisSnapshot`
        retains.  Depths (not window objects) are stored so a snapshot
        never keeps an old program's window block sets alive; the warm
        solver re-binds each depth to the matching scenario's window."""
        return (
            {color: window.depth for color, window in self._active.items()},
            frozenset(self._locked_long),
        )

    def import_state(
        self,
        active_depths: dict[int, int],
        locked: frozenset[int],
        scenarios: dict[int, SpeculationScenario],
    ) -> None:
        """The inverse of :meth:`export_state`: re-bind each exported
        color's depth to the window of ``scenarios[color]``, the scenario
        that stands for it now (it may carry another color).  A color
        with no exported depth, or whose depth matches neither window,
        stays unset and falls back to the long window as in a cold run;
        a locked color is restored only onto the long window."""
        for old_color, scenario in scenarios.items():
            depth = active_depths.get(old_color)
            if depth is None:
                continue
            if old_color in locked:
                if depth == scenario.window_miss.depth:
                    self._active[scenario.color] = scenario.window_miss
                    self._locked_long.add(scenario.color)
            elif depth == scenario.window_hit.depth:
                self._active[scenario.color] = scenario.window_hit
            elif depth == scenario.window_miss.depth:
                self._active[scenario.color] = scenario.window_miss

    def stats(self, scenarios: list[SpeculationScenario]) -> DepthBoundingStats:
        """Virtual edges are counted at instruction granularity: a rollback
        may occur after every speculated instruction, so each speculatively
        reachable instruction contributes one virtual edge."""
        stats = DepthBoundingStats(scenarios_total=len(scenarios))
        for scenario in scenarios:
            active = self.active_window(scenario)
            stats.virtual_edges_full += scenario.window_miss.num_instructions
            stats.virtual_edges_active += active.num_instructions
            if active.depth == scenario.window_hit.depth and (
                scenario.window_hit.depth < scenario.window_miss.depth
            ):
                stats.scenarios_shortened += 1
        return stats
