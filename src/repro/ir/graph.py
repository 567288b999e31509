"""One graph index per CFG: every graph question answered once.

:meth:`CFG.graph() <repro.ir.cfg.CFG.graph>` hands out the
:class:`GraphIndex` of the graph as it is now.  The index holds:

* successor and predecessor tuples;
* the reachable blocks, in depth-first discovery order;
* reverse postorder and each reachable block's rank in it;
* the immediate dominators and immediate postdominators;
* the natural loops;
* each block's instruction count and first fence index.

Each part is computed on first use and then kept, so a caller that only
asks for reachability pays one traversal, and dominators are built only
when something asks for them.  Every answer is immutable: tuples,
frozensets and read-only mappings.  Threads may share an index: each
part is a pure function of the key, stored whole in one assignment, so
a race at worst computes a part twice.

Both dominator trees come from Cooper, Harvey and Kennedy's iterative
algorithm over reverse-postorder numbers ("A Simple, Fast Dominance
Algorithm", 2001).  Postdominators are dominators of the reversed graph
rooted at a virtual exit (:data:`VIRTUAL_EXIT`) that every reachable
return block feeds.  A block that cannot reach a return is not in that
tree: it has no immediate postdominator.

**Staleness.**  An index is keyed by the structure it was computed from:
the entry and, for every block in order, its name, terminator,
instruction list and instruction count.  ``CFG.graph()`` rebuilds the key
on every fetch and reuses the cached index only while the key is equal,
so the index never answers for an older graph: ``add_block``, assigning
``CFG.blocks`` or ``CFG.entry``, assigning a block's ``terminator`` or
``instructions``, and ``BasicBlock.append`` all change the key.
Terminators and instructions are frozen; replacing an element of an
instruction list in place is the one edit the key cannot see, so assign
a new list instead.  A fetch costs one pass over the blocks, so hot
consumers fetch the index once per pass, not once per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from repro.errors import CFGError
from repro.ir.instructions import Fence, Return

#: Name of the virtual exit node that joins every return block in the
#: postdominator tree; it is never a real block.
VIRTUAL_EXIT = "__virtual_exit__"

#: ``(entry, names, terminators, instruction lists, instruction list
#: lengths)``, the last four in block order.  Columns rather than one
#: tuple per block: an index keeps its key, and a handful of tuples costs
#: the garbage collector less than one per block.
GraphKey = tuple


@dataclass(frozen=True)
class NaturalLoop:
    """One natural loop: its header, the reachable blocks that reach a
    back edge without passing through the header (header included), and
    its back edges in discovery order."""

    header: str
    blocks: frozenset[str]
    back_edges: tuple[tuple[str, str], ...]


def _postorder(root: str, children: Callable[[str], Iterable[str]]) -> list[str]:
    """Depth-first postorder from ``root``, children visited in order."""
    visited = {root}
    postorder: list[str] = []
    stack = [(root, iter(children(root)))]
    while stack:
        node, pending = stack[-1]
        for child in pending:
            if child not in visited:
                visited.add(child)
                stack.append((child, iter(children(child))))
                break
        else:
            stack.pop()
            postorder.append(node)
    return postorder


def _immediate_dominators(
    order: list[str], predecessors: Callable[[str], Iterable[str]]
) -> tuple[dict[str, str], dict[str, int]]:
    """Cooper–Harvey–Kennedy over reverse-postorder numbers.

    ``order`` is a reverse postorder of the nodes reachable from its first
    element, the root; ``predecessors(node)`` may name nodes outside it,
    which are ignored.  Returns ``(idom, rank)``: the root maps to itself.
    """
    rank = {node: position for position, node in enumerate(order)}
    root = order[0]
    idom = {root: root}
    changed = True
    while changed:
        changed = False
        for node in order[1:]:
            nearest = None
            for pred in predecessors(node):
                if pred not in idom:
                    continue  # not processed yet, or outside ``order``
                if nearest is None:
                    nearest = pred
                    continue
                left, right = pred, nearest
                while left != right:
                    while rank[left] > rank[right]:
                        left = idom[left]
                    while rank[right] > rank[left]:
                        right = idom[right]
                nearest = left
            if idom.get(node) != nearest:
                idom[node] = nearest
                changed = True
    return idom, rank


def _first_fence(instructions) -> int | None:
    for index, instruction in enumerate(instructions):
        if isinstance(instruction, Fence):
            return index
    return None


class GraphIndex:
    """The immutable graph facts of one CFG structure (see the module
    docstring).  Get one from ``CFG.graph()``."""

    __slots__ = (
        "key",
        "cfg_name",
        "entry",
        "successors",
        "_names",
        "_terminators",
        "_instruction_lists",
        "_lengths",
        "_successors",
        "_predecessors",
        "_reachable",
        "_reachable_set",
        "_reachable_predecessors",
        "_rpo",
        "_rank",
        "_idom",
        "_postdominators",
        "_ipdom",
        "_loops",
        "_loop_headers",
        "_instruction_counts",
        "_fence_indexes",
    )

    def __init__(self, cfg_name: str, key: GraphKey) -> None:
        self.key = key
        self.cfg_name = cfg_name
        (
            self.entry,
            self._names,
            self._terminators,
            self._instruction_lists,
            self._lengths,
        ) = key
        successors: dict[str, tuple[str, ...]] = {}
        for name, terminator in zip(self._names, self._terminators):
            successors[name] = () if terminator is None else terminator.targets()
        self._successors = successors
        #: ``{block: successor names}`` for every block, in terminator
        #: order (a conditional branch with equal targets lists it twice).
        self.successors: Mapping[str, tuple[str, ...]] = MappingProxyType(successors)
        self._predecessors = None
        self._reachable = None
        self._reachable_set = None
        self._reachable_predecessors = None
        self._rpo = None
        self._rank = None
        self._idom = None
        self._postdominators = None
        self._ipdom = None
        self._loops = None
        self._loop_headers = None
        self._instruction_counts = None
        self._fence_indexes = None

    def __reduce__(self):
        # Pickles as its key; the parts are recomputed on first use.
        return (GraphIndex, (self.cfg_name, self.key))

    def _unknown(self, name: str) -> CFGError:
        return CFGError(f"unknown block {name!r} in {self.cfg_name!r}")

    def _successors_of(self, name: str) -> tuple[str, ...]:
        """Successors of ``name``; :class:`CFGError` for an unknown block."""
        if name not in self._successors:
            raise self._unknown(name)
        return self._successors[name]

    # ------------------------------------------------------------------
    # Adjacency and traversals
    # ------------------------------------------------------------------
    @property
    def predecessors(self) -> Mapping[str, tuple[str, ...]]:
        """``{block: predecessor names}`` over every block, reachable or
        not: each predecessor once, in block order."""
        if self._predecessors is None:
            preds: dict[str, list[str]] = {name: [] for name in self._successors}
            for source, targets in self._successors.items():
                for target in dict.fromkeys(targets):
                    preds.setdefault(target, []).append(source)
            self._predecessors = MappingProxyType(
                {name: tuple(sources) for name, sources in preds.items()}
            )
        return self._predecessors

    @property
    def reachable(self) -> tuple[str, ...]:
        """Blocks reachable from the entry, in depth-first discovery order.

        Raises :class:`CFGError` when a reachable edge names an unknown
        block."""
        if self._reachable is None:
            successors = self._successors
            order: list[str] = []
            seen: set[str] = set()
            stack = [self.entry]
            while stack:
                name = stack.pop()
                if name in seen:
                    continue
                seen.add(name)
                order.append(name)
                if name not in successors:
                    raise self._unknown(name)
                for successor in reversed(successors[name]):
                    if successor not in seen:
                        stack.append(successor)
            self._reachable = tuple(order)
        return self._reachable

    @property
    def reachable_set(self) -> frozenset[str]:
        """:attr:`reachable` as a set."""
        if self._reachable_set is None:
            self._reachable_set = frozenset(self.reachable)
        return self._reachable_set

    def _reachable_preds(self) -> dict[str, tuple[str, ...]]:
        """Predecessors restricted to reachable blocks, for reachable blocks."""
        if self._reachable_predecessors is None:
            reachable = self.reachable_set
            preds = self.predecessors
            self._reachable_predecessors = {
                name: tuple(p for p in preds[name] if p in reachable)
                for name in self.reachable
            }
        return self._reachable_predecessors

    @property
    def rpo(self) -> tuple[str, ...]:
        """The reachable blocks in reverse postorder (successors visited in
        terminator order)."""
        if self._rpo is None:
            self._rpo = tuple(reversed(_postorder(self.entry, self._successors_of)))
        return self._rpo

    @property
    def rank(self) -> Mapping[str, int]:
        """Each reachable block's position in :attr:`rpo`."""
        if self._rank is None:
            self._rank = MappingProxyType(
                {name: position for position, name in enumerate(self.rpo)}
            )
        return self._rank

    # ------------------------------------------------------------------
    # Dominators
    # ------------------------------------------------------------------
    @property
    def idom(self) -> Mapping[str, str | None]:
        """The immediate dominator of every reachable block (None for the
        entry)."""
        if self._idom is None:
            preds = self._reachable_preds()
            idom, _ = _immediate_dominators(list(self.rpo), preds.__getitem__)
            idom[self.entry] = None
            self._idom = MappingProxyType(idom)
        return self._idom

    def dominates(self, dominator: str, block: str) -> bool:
        """Whether ``dominator`` dominates ``block`` (reflexive; False
        when either is unreachable)."""
        rank = self.rank
        if dominator not in rank or block not in rank:
            return False
        idom = self.idom
        target = rank[dominator]
        while rank[block] > target:
            block = idom[block]
        return block == dominator

    def dominator_chain(self, block: str) -> tuple[str, ...]:
        """``block`` and its dominators, nearest first (empty when
        unreachable)."""
        idom = self.idom
        chain: list[str] = []
        node = block if block in idom else None
        while node is not None:
            chain.append(node)
            node = idom[node]
        return tuple(chain)

    def _postdominator_tree(self) -> tuple[dict[str, str], dict[str, int]]:
        """``(tree, rank)`` of the postdominator tree over the blocks that
        can reach a return, rooted at :data:`VIRTUAL_EXIT` (which maps to
        itself); ``rank`` numbers the reversed graph's reverse postorder."""
        if self._postdominators is None:
            returns = {
                name
                for name, terminator in zip(self._names, self._terminators)
                if isinstance(terminator, Return)
            }
            exits = [name for name in self.reachable if name in returns]
            preds = self._reachable_preds()

            def children(node: str) -> Iterable[str]:
                return exits if node == VIRTUAL_EXIT else preds[node]

            order = list(reversed(_postorder(VIRTUAL_EXIT, children)))
            members = set(order)
            exit_set = set(exits)
            successors = self._successors

            def reverse_predecessors(node: str) -> list[str]:
                result = [s for s in successors[node] if s in members]
                if node in exit_set:
                    result.append(VIRTUAL_EXIT)
                return result

            self._postdominators = _immediate_dominators(order, reverse_predecessors)
        return self._postdominators

    @property
    def ipdom(self) -> Mapping[str, str | None]:
        """The immediate postdominator of every reachable block.

        None when the block cannot reach a return, and when its only
        strict postdominator is the virtual exit."""
        if self._ipdom is None:
            tree, _ = self._postdominator_tree()
            ipdom: dict[str, str | None] = {}
            for name in self.reachable:
                parent = tree.get(name)
                ipdom[name] = None if parent == VIRTUAL_EXIT else parent
            self._ipdom = MappingProxyType(ipdom)
        return self._ipdom

    def postdominator_chain(self, block: str) -> tuple[str, ...] | None:
        """``block`` and its postdominators, nearest first, ending at
        :data:`VIRTUAL_EXIT`; None when ``block`` cannot reach a return
        (or is unreachable)."""
        tree, _ = self._postdominator_tree()
        if block not in tree:
            return None
        chain = [block]
        while chain[-1] != VIRTUAL_EXIT:
            chain.append(tree[chain[-1]])
        return tuple(chain)

    def common_postdominator(self, left: str, right: str) -> str | None:
        """The nearest block other than ``left`` and ``right`` that
        postdominates both; None when either cannot reach a return or only
        the virtual exit qualifies."""
        tree, rank = self._postdominator_tree()
        if left not in tree or right not in tree:
            return None
        a, b = left, right
        while a != b:
            while rank[a] > rank[b]:
                a = tree[a]
            while rank[b] > rank[a]:
                b = tree[b]
        while a in (left, right):
            a = tree[a]
        return None if a == VIRTUAL_EXIT else a

    # ------------------------------------------------------------------
    # Natural loops
    # ------------------------------------------------------------------
    @property
    def loops(self) -> tuple[NaturalLoop, ...]:
        """The natural loops, one per header (back edges merged), in the
        order their first back edge is found along :attr:`reachable`.

        A body holds only reachable blocks: it is collected over reachable
        predecessors, inside the header's dominance region."""
        if self._loops is None:
            preds = self._reachable_preds()
            found: dict[str, tuple[list[tuple[str, str]], set[str]]] = {}
            for source in self.reachable:
                for target in self._successors[source]:
                    if not self.dominates(target, source):
                        continue
                    back_edges, body = found.setdefault(target, ([], {target}))
                    back_edges.append((source, target))
                    stack = [source]
                    while stack:
                        block = stack.pop()
                        if block in body:
                            continue
                        body.add(block)
                        stack.extend(p for p in preds[block] if p not in body)
            self._loops = tuple(
                NaturalLoop(header, frozenset(body), tuple(back_edges))
                for header, (back_edges, body) in found.items()
            )
        return self._loops

    @property
    def loop_headers(self) -> frozenset[str]:
        if self._loop_headers is None:
            self._loop_headers = frozenset(loop.header for loop in self.loops)
        return self._loop_headers

    # ------------------------------------------------------------------
    # Per-block instruction facts
    # ------------------------------------------------------------------
    @property
    def instruction_counts(self) -> Mapping[str, int]:
        """Instructions per block, terminator included (the speculation
        depth unit)."""
        if self._instruction_counts is None:
            self._instruction_counts = MappingProxyType(
                {
                    name: count if terminator is None else count + 1
                    for name, terminator, count in zip(
                        self._names, self._terminators, self._lengths
                    )
                }
            )
        return self._instruction_counts

    @property
    def fence_indexes(self) -> Mapping[str, int | None]:
        """The index of each block's first fence (None when it has none)."""
        if self._fence_indexes is None:
            self._fence_indexes = MappingProxyType(
                {
                    name: _first_fence(instructions)
                    for name, instructions in zip(self._names, self._instruction_lists)
                }
            )
        return self._fence_indexes
