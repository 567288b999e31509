"""The access resolution that :meth:`MemoryLayout.resolve` replaced, kept
as a test oracle.

It resolves in two steps, as the layout once did: :func:`resolve_uncached`
builds an unbound :class:`BlockAccess` (fresh :class:`MemoryBlock`
values, no lanes), and :func:`bind` fills in the lane fields through
``dataclasses.replace``.  :func:`lane_order` numbers blocks with
``MemoryBlock``'s generated ordering, the way :class:`LaneTable` once
sorted them.  The domain tests also bind their hand-built accesses with
:func:`bind`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from repro.ir.instructions import MemoryRef
from repro.ir.memory import (
    AccessKind,
    BlockAccess,
    LaneTable,
    MemoryBlock,
    MemoryLayout,
    placeholder_blocks,
)


def lane_order(blocks: Iterable[MemoryBlock]) -> tuple[MemoryBlock, ...]:
    """The blocks in lane order: sorted by ``MemoryBlock.__lt__``."""
    return tuple(sorted(set(blocks)))


def bind(lanes: LaneTable, access: BlockAccess) -> BlockAccess:
    """``access`` with the lane ids of ``lanes`` filled in.

    Unknown-index accesses also get the lanes of the object's
    placeholder lines (``[1*]``, ``[2*]``, ... in that order) when the
    table has all of them.
    """
    lane_ids = tuple(lanes.lane(block) for block in access.blocks)
    placeholder_lanes: tuple[int, ...] = ()
    if access.kind is AccessKind.UNKNOWN:
        found = [
            lanes.lane_of(block)
            for block in placeholder_blocks(access.symbol, len(access.blocks))
        ]
        if None not in found:
            placeholder_lanes = tuple(found)
    return replace(
        access,
        lanes=lane_ids,
        lane_mask=lanes.mask(lane_ids),
        placeholder_lanes=placeholder_lanes,
        placeholder_mask=lanes.mask(placeholder_lanes),
    )


def resolve_uncached(layout: MemoryLayout, ref: MemoryRef) -> BlockAccess:
    obj = layout.object(ref.symbol)
    if ref.index_secret or ref.index_const is None:
        # Only these may touch any block of the object; a concrete
        # access needs just its own (large arrays have thousands).
        return BlockAccess(
            kind=AccessKind.SECRET if ref.index_secret else AccessKind.UNKNOWN,
            symbol=ref.symbol,
            blocks=tuple(obj.blocks()),
            is_write=ref.is_write,
            ref=ref,
        )
    byte_offset = ref.index_const * max(ref.element_size, 1)
    block_index = byte_offset // layout.line_size
    block_index = min(max(block_index, 0), obj.num_blocks - 1)
    return BlockAccess(
        kind=AccessKind.CONCRETE,
        symbol=ref.symbol,
        blocks=(MemoryBlock(ref.symbol, block_index),),
        is_write=ref.is_write,
        ref=ref,
    )


def resolve(layout: MemoryLayout, ref: MemoryRef) -> BlockAccess:
    """``ref`` resolved and bound against ``layout``'s lane table."""
    return bind(layout.lanes, resolve_uncached(layout, ref))


def sites(cfg, layout: MemoryLayout) -> dict[str, list[tuple[int, BlockAccess]]]:
    """``{block: [(instruction index, access), ...]}`` for every reachable
    block of ``cfg``, resolved by :func:`resolve`."""
    return {
        name: [
            (index, resolve(layout, ref))
            for index, instruction in enumerate(cfg.blocks[name].instructions)
            for ref in instruction.memory_refs()
        ]
        for name in cfg.graph().reachable
    }
