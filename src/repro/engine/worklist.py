"""Shared priority-worklist fixpoint kernel (Algorithm 1's scheduler).

The plain fixpoint computations — the generic forward solver
(:mod:`repro.ai.solver`) and the secret-taint dataflow
(:mod:`repro.analysis.taint`) — iterate the same way: pop the pending
block earliest in reverse postorder, apply a transfer, join the outputs
into the targets, widen at loop headers after a visit threshold, and
re-enqueue whatever changed.  This module is the single implementation
of that schedule.

* :class:`PriorityWorklist` — a heap-ordered, duplicate-free queue keyed
  by a priority map (typically reverse-postorder positions) or, for
  self-ordering items, by the items themselves.  It replaces the
  ``min(worklist, ...)`` + ``remove`` scan the ad-hoc loops used, which
  costs O(n) per pop and O(n²) over a run with a wide frontier; the heap
  costs O(log n) per operation.
* :class:`WideningPolicy` — where and when to widen, plus the
  lattice-based accounting of whether a widening actually changed the
  joined state (object identity is *not* a reliable signal: a ``widen``
  that returns an equal-but-distinct element must not be counted).
* :func:`run_fixpoint` — the pop/step/re-enqueue driver with the
  divergence guard.

The lifted multi-color engine (:mod:`repro.analysis.multicolor`) takes
only :class:`WideningPolicy` from here.  Its pass pops its own heap of
node keys, with the states marked under each queued key as the only
deduplication, so that a pop costs little beside its transfers; it keeps
the same divergence guard and progress events.  The drain it replaced,
kept as the tests' oracle (``tests/drain_reference.py``), still runs on
:class:`PriorityWorklist` and :func:`run_fixpoint`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Mapping

from repro.errors import AnalysisError

#: Priority assigned to blocks absent from the order map; anything larger
#: than every legal reverse-postorder position works.
UNKNOWN_PRIORITY = 1 << 30

#: Default number of visits to a widening point before widening kicks in.
DEFAULT_WIDENING_DELAY = 3


class PriorityWorklist:
    """A duplicate-free min-heap of hashable items ordered by priority.

    ``order`` maps items to their scheduling priority — lower pops first.
    Passing the reverse-postorder positions of a CFG's blocks yields the
    classical fast-converging iteration order.  Ties (only possible for
    items missing from ``order``) break deterministically by the item.
    With ``order=None`` every item is its own priority, so items must be
    mutually comparable (the multi-color drain's oracle pushes tuples of
    ints).
    """

    __slots__ = ("_order", "_heap", "_queued")

    def __init__(
        self, order: Mapping[Hashable, int] | None, initial: Iterable[Hashable] = ()
    ):
        self._order = order
        self._heap: list[tuple] = []
        self._queued: set = set()
        for item in initial:
            self.push(item)

    def push(self, item: Hashable) -> bool:
        """Enqueue ``item``; return False if it was already pending."""
        if item in self._queued:
            return False
        self._queued.add(item)
        order = self._order
        priority = item if order is None else order.get(item, UNKNOWN_PRIORITY)
        heapq.heappush(self._heap, (priority, item))
        return True

    def extend(self, items: Iterable[Hashable]) -> None:
        for item in items:
            self.push(item)

    def pop(self) -> Hashable:
        """Remove and return the pending item with the lowest priority."""
        if not self._heap:
            raise IndexError("pop from an empty worklist")
        _, item = heapq.heappop(self._heap)
        self._queued.discard(item)
        return item

    def __contains__(self, item: Hashable) -> bool:
        return item in self._queued

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


@dataclass
class WideningPolicy:
    """Where (``points``) and when (``delay`` visits) widening applies.

    ``widenings`` counts applications that actually coarsened the joined
    state.  The check is lattice-based: a proper ``widen`` result is
    always above the join, so it changed the state iff it is *not* below
    the join — comparing object identity would miscount whenever a domain
    returns an equal-but-distinct element.
    """

    points: frozenset[str] | set[str] = field(default_factory=set)
    delay: int = DEFAULT_WIDENING_DELAY
    widenings: int = 0

    def apply(self, target: str, visits: int, previous, joined):
        """Widen ``joined`` against ``previous`` at ``target`` if due.

        Returns the (possibly widened) state to store.
        """
        if target not in self.points or visits < self.delay:
            return joined
        widened = joined.widen(previous)
        if not widened.leq(joined):
            self.widenings += 1
        return widened


def run_fixpoint(
    worklist: PriorityWorklist,
    step: Callable[[Hashable], Iterable[Hashable]],
    *,
    max_visits: int,
    description: str = "fixpoint",
) -> int:
    """Drain ``worklist`` to a fixpoint and return the number of pops.

    ``step(item)`` processes one item (a block, for the plain solvers)
    and returns the items whose abstract state changed (they are
    re-enqueued).  ``step`` may also enqueue items directly through the
    worklist it closes over — the multi-color drain's oracle enqueues the
    key of every node it marks that way.  Exceeding ``max_visits`` raises
    :class:`AnalysisError`: the lattice and schedule guarantee
    termination, so divergence means a broken transfer function or
    partial order.
    """
    visits = 0
    while worklist:
        item = worklist.pop()
        visits += 1
        if visits > max_visits:
            raise AnalysisError(
                f"{description} did not converge within {max_visits} worklist pops"
            )
        worklist.extend(step(item))
    return visits
