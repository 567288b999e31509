"""The speculative fixpoint's drain as it was before node-keyed marks:
the differential oracle for :mod:`repro.analysis.multicolor`'s drain.

:class:`DrainReference` runs the engine with the drain that the node-keyed
one replaced, kept verbatim: per-block dirty sets (a pop calls ``node()``
on every dirty slot of its block to find the ones under its key, then
walks every slot of the block to transfer the marked ones in creation
order), one ``_Delivery`` object per delivery, and a separate method per
slot kind.  Only the pass's entry point is new: the engine hands a pass
its initial marks as ``(block, slot)`` pairs and keeps its own visit
counts, so :meth:`DrainReference._run_sparse_pass` turns the marks into
dirty sets and calls the old pass, renamed ``_run_dirty_pass``.

Everything else — the scenario indices, window choice, the S and resume
transfers, warm planning and classification — is the engine's own, so a
comparison checks the drain: its schedule, its delivery order, the
states it reaches and its records.  The engine walks a window block's
record in place, inside its pop loop; the walk it replaced is kept here
as the function it was, :func:`record_window_block`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.multicolor import (
    MAX_VISITS,
    SlotKey,
    SpeculativeCacheAnalysis,
)
from repro.analysis.transfer import AccessTable, record_block, site_flags, transfer_block
from repro.engine.worklist import PriorityWorklist, WideningPolicy, run_fixpoint
from repro.obs import current_reporter
from repro.obs.progress import POP_PUBLISH_INTERVAL


def record_window_block(
    state, table: AccessTable, block: str, instruction_limit: int
) -> tuple[object, object, tuple]:
    """:func:`record_block`, also returning the join of the states after
    *every* prefix of the block: ``(state out, prefix join, flags)``.

    The prefix join is exactly the state contributed by a rollback that may
    happen at any point inside the block (Section 5.2): the merge of all
    possible rollback points.
    """
    current = state
    prefix_join = state
    flags = []
    for site in table.sites_up_to(block, instruction_limit):
        access = site.access
        flags.append(site_flags(current, access))
        current = current.access(access)
        prefix_join = prefix_join.join(current)
    return current, prefix_join, tuple(flags)


@dataclass
class _Delivery:
    """One pending join: ``value`` flows into ``slot`` (or S) at ``target``."""

    target: str
    slot: SlotKey | None  # None means the normal state S
    value: object


class DrainReference(SpeculativeCacheAnalysis):
    """The engine with the drain it replaced (see the module docstring)."""

    def _run_sparse_pass(
        self,
        normal: dict[str, object],
        speculative: dict[str, dict[SlotKey, object]],
        marks,
        policy: WideningPolicy,
        description: str,
    ) -> int:
        reachable = self._graph.reachable
        dirty: dict[str, set] = {name: set() for name in reachable}
        for block, slot in marks:
            dirty[block].add(slot)
        visits: dict[str, int] = {name: 0 for name in reachable}
        return self._run_dirty_pass(
            normal=normal,
            speculative=speculative,
            dirty=dirty,
            policy=policy,
            visits=visits,
            description=description,
        )

    def _run_dirty_pass(
        self,
        normal: dict[str, object],
        speculative: dict[str, dict[SlotKey, object]],
        dirty: dict[str, set],
        policy: WideningPolicy,
        visits: dict[str, int],
        description: str,
    ) -> int:
        """Drain one sparse fixpoint from the marks in ``dirty`` to
        convergence; returns the pop count.

        Items are node keys (see the module docstring), or ``(rank,)``
        for a whole block when the pass is block-granular."""
        rpo = self._rpo
        rank = self._rank
        block_granular = self._block_granular(policy)
        if block_granular:

            def node(block: str, slot: SlotKey | None) -> tuple:
                return (rank[block],)

        else:
            branch_rank = self._branch_rank

            def node(block: str, slot: SlotKey | None) -> tuple:
                position = rank[block]
                if slot is None:
                    return (position, 0, position)
                return (branch_rank[slot[1]], 1 if slot[0] == "window" else 2, position)

        worklist = PriorityWorklist(
            None, [node(block, slot) for block, marks in dirty.items() for slot in marks]
        )

        def mark(block: str, slot: SlotKey | None) -> None:
            dirty[block].add(slot)
            worklist.push(node(block, slot))

        # Streaming progress: throttled to one event per
        # POP_PUBLISH_INTERVAL pops, and only when a reporter is
        # installed — the common (unwatched) case pays nothing per pop.
        reporter = current_reporter()
        publish_every = POP_PUBLISH_INTERVAL if reporter.active else 0
        pops_seen = 0

        def step(item: tuple) -> tuple:
            nonlocal pops_seen
            if publish_every:
                pops_seen += 1
                if pops_seen % publish_every == 0:
                    reporter.publish(
                        "fixpoint.pops", pops=pops_seen, pass_name=description
                    )
            name = rpo[item[-1]]
            visits[name] += 1
            if block_granular:
                pending = dirty[name]
                dirty[name] = set()
            else:
                pending = {slot for slot in dirty[name] if node(name, slot) == item}
                dirty[name] -= pending
            deliveries = self._process_block_sparse(
                name, pending, normal, speculative, mark
            )
            self._apply_deliveries(deliveries, normal, speculative, policy, visits, mark)
            return ()

        return run_fixpoint(
            worklist, step, max_visits=MAX_VISITS, description=description
        )

    def _process_block_sparse(
        self,
        name: str,
        pending: set,
        normal: dict[str, object],
        speculative: dict[str, dict[SlotKey, object]],
        mark,
    ) -> list[_Delivery]:
        """Transfer what ``pending`` marks at block ``name`` (``None`` for
        S, slot keys for slots) and return the deliveries."""
        deliveries: list[_Delivery] = []
        successors = self._successors[name]
        state_in = normal[name]
        normal_dirty = None in pending

        # --- normal transfer and propagation (only when S[n] changed) ------
        state_out = None
        if normal_dirty:
            state_out, self._records[(name, None)] = record_block(
                state_in, self.table, name
            )
            for successor in successors:
                deliveries.append(_Delivery(successor, None, state_out))

        # --- dirty speculative slots, in slot-creation order ----------------
        # Iterating the slot dict (not the pending set) keeps the delivery
        # order independent of hash randomisation and identical to the dense
        # schedule's relative order.  Slots marked dirty before any state
        # reached them are still bottom and are skipped, exactly as the
        # dense schedule skips bottom slots.
        if pending:
            slots_in = speculative[name]
            for slot, slot_state in slots_in.items():
                if slot not in pending or getattr(slot_state, "is_bottom", False):
                    continue
                self._slot_transfers += 1
                if slot[0] == "window":
                    deliveries.extend(
                        self._process_window_slot(name, slot, slot_state, successors)
                    )
                else:
                    deliveries.extend(
                        self._process_resume_slot(name, slot, slot_state, successors)
                    )

        # --- window choice and scenario injection at branch blocks ---------
        # The choice reads only S[n], so it runs when S[n] is transferred:
        # re-running it on an unchanged state (as the dense schedule does
        # on every pop) chooses the same window again.
        if not normal_dirty:
            return deliveries
        for scenario in self._scenarios_by_branch.get(name, ()):
            previous_window = self.chooser.active_window(scenario)
            window = self.chooser.choose(scenario, state_in)
            if window.depth > previous_window.depth:
                # The window grew (the condition is no longer a proven hit):
                # re-propagate from every block of the old window, and mark
                # the scenario's window slot dirty there so the re-transfer
                # runs against the new window's limits and successor set.
                slot = ("window", scenario.color)
                for block in previous_window.allowed:
                    if block in normal:
                        mark(block, slot)
            if window.depth <= 0 or not window.contains(scenario.wrong_target):
                continue
            deliveries.append(
                _Delivery(scenario.wrong_target, ("window", scenario.color), state_out)
            )
        return deliveries

    # ------------------------------------------------------------------
    # Shared slot transfers
    # ------------------------------------------------------------------
    def _process_window_slot(
        self, name: str, slot: SlotKey, slot_state, successors: tuple[str, ...]
    ) -> list[_Delivery]:
        deliveries: list[_Delivery] = []
        scenario = self._scenario_by_color[slot[1]]
        window = self.chooser.active_window(scenario)
        if not window.contains(name):
            return deliveries
        limit = window.allowed_instructions(name)
        slot_out, prefix_join, self._records[(name, slot)] = record_window_block(
            slot_state, self.table, name, limit
        )
        # Window propagation (rule 2): only into blocks still inside the window.
        for successor in successors:
            if window.contains(successor):
                deliveries.append(_Delivery(successor, slot, slot_out))
        # Rollback (rule 3): the join of all prefix states re-enters the
        # normal flow at the correct target.
        target, resume_slot, per_origin = self._rollback[scenario.color]
        if per_origin:
            resume_slot += (name,)
        deliveries.append(_Delivery(target, resume_slot, prefix_join))
        return deliveries

    def _process_resume_slot(
        self, name: str, slot: SlotKey, slot_state, successors: tuple[str, ...]
    ) -> list[_Delivery]:
        deliveries: list[_Delivery] = []
        scenario = self._scenario_by_color[slot[1]]
        convergence = scenario.convergence_block
        slot_out = transfer_block(slot_state, self.table, name)
        for successor in successors:
            if successor == convergence:
                # Conversion (rule 4): vn_stop — the speculative state joins
                # the normal flow and stops being tracked separately.
                deliveries.append(_Delivery(successor, None, slot_out))
            else:
                deliveries.append(_Delivery(successor, slot, slot_out))
        return deliveries

    def _apply_deliveries(
        self,
        deliveries: list[_Delivery],
        normal: dict[str, object],
        speculative: dict[str, dict[SlotKey, object]],
        policy: WideningPolicy,
        visits: dict[str, int],
        mark,
    ) -> None:
        """Join every delivery into its target; ``mark`` each state that
        grew (which dirties and enqueues it)."""
        for delivery in deliveries:
            target = delivery.target
            if target not in normal:
                continue
            if delivery.slot is None:
                current = normal[target]
                joined = policy.apply(
                    target, visits.get(target, 0), current, current.join(delivery.value)
                )
                if not joined.leq(current):
                    normal[target] = joined
                    mark(target, None)
            else:
                slots = speculative[target]
                current = slots.get(delivery.slot, self._bottom)
                joined = current.join(delivery.value)
                if not joined.leq(current):
                    slots[delivery.slot] = joined
                    mark(target, delivery.slot)
