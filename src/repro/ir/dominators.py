"""Dominator and post-dominator queries.

The speculative VCFG construction needs post-dominators to find the
control-flow merge point of a branch (where Just-in-Time merging converts
the speculative state back into the normal state), and natural-loop
detection needs dominators to identify back edges.

Every function here reads the CFG's graph index (:mod:`repro.ir.graph`),
which computes both trees once per graph with Cooper, Harvey and
Kennedy's algorithm over reverse-postorder numbers.  Postdominators are
taken over a virtual exit (:data:`VIRTUAL_EXIT`) that joins every
reachable return block.  A block that cannot reach a return (inside an
infinite loop, say) has no immediate postdominator and maps to ``None``;
so does a block whose only strict postdominator is the virtual exit.
The results are fresh containers the caller may keep or modify.
"""

from __future__ import annotations

from repro.ir.cfg import CFG
from repro.ir.graph import VIRTUAL_EXIT


def compute_dominators(cfg: CFG) -> dict[str, set[str]]:
    """Return, for every reachable block, the set of blocks dominating it."""
    graph = cfg.graph()
    return {name: set(graph.dominator_chain(name)) for name in graph.reachable}


def immediate_dominators(cfg: CFG) -> dict[str, str | None]:
    """Return the immediate dominator of every reachable block (None for
    the entry)."""
    return dict(cfg.graph().idom)


def compute_postdominators(cfg: CFG) -> dict[str, set[str]]:
    """Return, for every reachable block, the set of blocks post-dominating it.

    The virtual exit (``VIRTUAL_EXIT``) joins all return blocks; it
    appears in the result, as a key and in every set, but is not a real
    block.  A block that cannot reach a return is postdominated vacuously
    by every node: its set holds every reachable block and the virtual
    exit.
    """
    graph = cfg.graph()
    everything = set(graph.reachable) | {VIRTUAL_EXIT}
    result: dict[str, set[str]] = {}
    for name in graph.reachable:
        chain = graph.postdominator_chain(name)
        result[name] = set(everything) if chain is None else set(chain)
    result[VIRTUAL_EXIT] = {VIRTUAL_EXIT}
    return result


def postdominator_tree(cfg: CFG) -> dict[str, str | None]:
    """Return the immediate postdominator of every reachable block.

    That is the nearest block every path from the block to a return must
    cross.  None when the block cannot reach a return, or when only the
    virtual exit postdominates it.
    """
    return dict(cfg.graph().ipdom)


def immediate_postdominator(cfg: CFG, block: str) -> str | None:
    """Return the nearest real block that post-dominates ``block``.

    Returns ``None`` when the only post-dominator is the virtual exit
    (i.e. the branch never reconverges before returning) or when
    ``block`` cannot reach any exit.
    """
    return cfg.graph().ipdom.get(block)


def common_postdominator(cfg: CFG, left: str, right: str) -> str | None:
    """Return the nearest block post-dominating both ``left`` and ``right``,
    other than ``left`` and ``right`` themselves.

    None when either block cannot reach an exit or when the only common
    postdominator is the virtual exit.
    """
    return cfg.graph().common_postdominator(left, right)
