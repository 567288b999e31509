"""Set-based reference answers to the graph index's questions.

The differential oracle for :mod:`repro.ir.graph`: each function answers
one question the straightforward way, straight from the blocks'
terminators and instructions, with no graph index involved.  The
dominator and postdominator computations are the classic iterative
set-intersection algorithm the index replaced, kept verbatim.
"""

from __future__ import annotations

from repro.ir.graph import VIRTUAL_EXIT
from repro.ir.instructions import Fence, Return
from repro.speculation.vcfg import SpeculativeWindow


# ----------------------------------------------------------------------
# Adjacency and traversals
# ----------------------------------------------------------------------
def successors(cfg, name: str) -> list[str]:
    terminator = cfg.blocks[name].terminator
    return [] if terminator is None else list(terminator.targets())


def predecessors(cfg, name: str) -> list[str]:
    return [source for source in cfg.blocks if name in successors(cfg, source)]


def reachable_blocks(cfg) -> list[str]:
    """Depth-first discovery order from the entry."""
    seen: list[str] = []
    seen_set: set[str] = set()
    stack = [cfg.entry]
    while stack:
        name = stack.pop()
        if name in seen_set:
            continue
        seen_set.add(name)
        seen.append(name)
        for successor in reversed(successors(cfg, name)):
            if successor not in seen_set:
                stack.append(successor)
    return seen


def reverse_postorder(cfg) -> list[str]:
    visited: set[str] = set()
    postorder: list[str] = []

    def visit(name: str) -> None:
        visited.add(name)
        for successor in successors(cfg, name):
            if successor not in visited:
                visit(successor)
        postorder.append(name)

    visit(cfg.entry)
    return list(reversed(postorder))


def exit_blocks(cfg) -> list[str]:
    return [
        name for name, block in cfg.blocks.items() if isinstance(block.terminator, Return)
    ]


# ----------------------------------------------------------------------
# Dominators: iterative set intersection
# ----------------------------------------------------------------------
def iterative_dominators(
    nodes: list[str], entry: str, predecessors: dict[str, list[str]]
) -> dict[str, set[str]]:
    """Classic iterative dominator-set computation."""
    all_nodes = set(nodes)
    dom: dict[str, set[str]] = {node: set(all_nodes) for node in nodes}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for node in nodes:
            if node == entry:
                continue
            preds = [pred for pred in predecessors.get(node, []) if pred in all_nodes]
            if preds:
                new_dom = set(all_nodes)
                for pred in preds:
                    new_dom &= dom[pred]
            else:
                new_dom = set()
            new_dom.add(node)
            if new_dom != dom[node]:
                dom[node] = new_dom
                changed = True
    return dom


def nearest_in_chain(candidates: set[str], relation: dict[str, set[str]]) -> str | None:
    """The element of ``candidates`` that all other candidates (strictly)
    relate to: the nearest strict (post)dominator, the bottom of the
    chain.  ``relation[x]`` is the set of nodes (post)dominating ``x``."""
    for candidate in sorted(candidates):
        if all(
            other in relation[candidate] for other in candidates if other != candidate
        ):
            return candidate
    return None


def dominators(cfg) -> dict[str, set[str]]:
    nodes = reachable_blocks(cfg)
    preds = {node: predecessors(cfg, node) for node in nodes}
    return iterative_dominators(nodes, cfg.entry, preds)


def immediate_dominators(cfg) -> dict[str, str | None]:
    dom = dominators(cfg)
    return {node: nearest_in_chain(sets - {node}, dom) for node, sets in dom.items()}


def postdominators(cfg) -> dict[str, set[str]]:
    """Postdominator sets over the whole reachable graph plus the virtual
    exit.  A block that cannot reach a return keeps its all-nodes
    initialisation."""
    nodes = reachable_blocks(cfg)
    exits = [node for node in exit_blocks(cfg) if node in nodes]
    all_nodes = nodes + [VIRTUAL_EXIT]
    predecessors_in_reverse: dict[str, list[str]] = {VIRTUAL_EXIT: []}
    for node in nodes:
        targets = successors(cfg, node)
        if node in exits:
            targets.append(VIRTUAL_EXIT)
        predecessors_in_reverse[node] = targets
    return iterative_dominators(all_nodes, VIRTUAL_EXIT, predecessors_in_reverse)


def exit_reaching_postdominators(cfg) -> tuple[dict[str, set[str]], set[str]]:
    """Postdominator sets over the *exit-reaching* subgraph only, and that
    subgraph's blocks."""
    nodes = reachable_blocks(cfg)
    node_set = set(nodes)
    exits = [node for node in exit_blocks(cfg) if node in node_set]
    can_reach_exit: set[str] = set(exits)
    stack = list(exits)
    while stack:
        node = stack.pop()
        for predecessor in predecessors(cfg, node):
            if predecessor in node_set and predecessor not in can_reach_exit:
                can_reach_exit.add(predecessor)
                stack.append(predecessor)
    sub_nodes = [node for node in nodes if node in can_reach_exit]
    predecessors_in_reverse: dict[str, list[str]] = {VIRTUAL_EXIT: []}
    for node in sub_nodes:
        targets = [s for s in successors(cfg, node) if s in can_reach_exit]
        if node in exits:
            targets.append(VIRTUAL_EXIT)
        predecessors_in_reverse[node] = targets
    pdom = iterative_dominators(sub_nodes + [VIRTUAL_EXIT], VIRTUAL_EXIT, predecessors_in_reverse)
    return pdom, can_reach_exit


def postdominator_tree(cfg) -> dict[str, str | None]:
    pdom, can_reach_exit = exit_reaching_postdominators(cfg)
    tree: dict[str, str | None] = {}
    for node in reachable_blocks(cfg):
        if node not in can_reach_exit:
            tree[node] = None
        else:
            tree[node] = nearest_in_chain(pdom[node] - {node, VIRTUAL_EXIT}, pdom)
    return tree


def common_postdominator(cfg, left: str, right: str) -> str | None:
    pdom, can_reach_exit = exit_reaching_postdominators(cfg)
    if left not in can_reach_exit or right not in can_reach_exit:
        return None
    common = (pdom[left] & pdom[right]) - {VIRTUAL_EXIT, left, right}
    return nearest_in_chain(common, pdom) if common else None


# ----------------------------------------------------------------------
# Natural loops
# ----------------------------------------------------------------------
def natural_loops(cfg) -> list[tuple[str, frozenset[str], tuple[tuple[str, str], ...]]]:
    """``(header, body, back edges)`` per header, in discovery order; bodies
    are collected over reachable predecessors only."""
    dom = dominators(cfg)
    reachable = set(dom)
    found: dict[str, tuple[list[tuple[str, str]], set[str]]] = {}
    for source in reachable_blocks(cfg):
        for target in successors(cfg, source):
            if target not in dom[source]:
                continue
            back_edges, body = found.setdefault(target, ([], {target}))
            back_edges.append((source, target))
            stack = [source]
            while stack:
                block = stack.pop()
                if block in body:
                    continue
                body.add(block)
                stack.extend(
                    p for p in predecessors(cfg, block) if p in reachable and p not in body
                )
    return [
        (header, frozenset(body), tuple(back_edges))
        for header, (back_edges, body) in found.items()
    ]


# ----------------------------------------------------------------------
# Speculative windows
# ----------------------------------------------------------------------
def first_fence_index(cfg, block: str) -> int | None:
    for index, instruction in enumerate(cfg.blocks[block].instructions):
        if isinstance(instruction, Fence):
            return index
    return None


def compute_window(cfg, start: str, depth: int) -> SpeculativeWindow:
    """The pre-heap window construction (sort-the-worklist-per-pop), kept
    verbatim as the equality oracle."""
    if depth <= 0:
        return SpeculativeWindow(depth=depth)
    distance = {start: 0}
    worklist = [start]
    while worklist:
        worklist.sort(key=lambda name: distance[name])
        block_name = worklist.pop(0)
        if first_fence_index(cfg, block_name) is not None:
            continue
        block_distance = distance[block_name]
        exit_distance = block_distance + cfg.blocks[block_name].instruction_count
        if exit_distance >= depth:
            continue
        for successor in successors(cfg, block_name):
            if exit_distance < distance.get(successor, depth):
                distance[successor] = exit_distance
                if successor not in worklist:
                    worklist.append(successor)
    allowed = {}
    for name, dist in distance.items():
        if depth - dist <= 0:
            continue
        limit = cfg.blocks[name].instruction_count
        fence = first_fence_index(cfg, name)
        if fence is not None:
            limit = min(limit, fence)
        allowance = min(limit, depth - dist)
        if allowance > 0:
            allowed[name] = allowance
    return SpeculativeWindow(depth=depth, allowed=allowed)
