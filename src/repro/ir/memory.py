"""Memory layout: mapping program symbols to cache-line-sized blocks.

The cache analysis does not track bytes; it tracks *memory blocks*, i.e.
cache-line-sized chunks of program objects.  A scalar occupies one block;
an array of ``s`` bytes occupies ``ceil(s / line_size)`` blocks.  Objects
never share a block (each object starts at a line boundary), matching the
paper's assumption that the example variables "are mapped to different
cache lines".

Array accesses whose index is statically unknown are resolved using the
paper's convention from Table 1: successive unknown accesses to the same
array conservatively pick successive fresh lines (``decis_lev[1*]``,
``decis_lev[2*]``, ...).  That bookkeeping lives in the analysis; this
module only says *which* blocks an access may touch.

The abstract cache states never look blocks up by value on their hot
paths: each layout interns its blocks into an immutable
:class:`LaneTable` (one 16-bit lane per block of the packed age maps in
:mod:`repro.cache.abstract`), and :meth:`MemoryLayout.resolve` hands out
:class:`BlockAccess` values that already carry their lane ids.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field, replace
from enum import Enum, auto
from typing import TYPE_CHECKING, Iterable

from repro.errors import ConfigError
from repro.ir.instructions import MemoryRef
from repro.lang.typecheck import ProgramInfo, Symbol

if TYPE_CHECKING:
    from repro.ir.cfg import CFG


@dataclass(frozen=True, order=True)
class MemoryBlock:
    """One cache-line-sized block of a program object.

    ``index`` is the block's position within its object (0 for scalars).
    Negative indices denote the *symbolic placeholder lines* used for
    accesses whose element index is statically unknown — the paper's
    ``decis_lev[1*]``, ``decis_lev[2*]`` convention from Table 1 (index
    ``-k`` is the k-th placeholder).
    """

    symbol: str
    index: int = 0

    @property
    def is_placeholder(self) -> bool:
        return self.index < 0

    def __str__(self) -> str:
        if self.index < 0:
            return f"{self.symbol}[{-self.index}*]"
        if self.index == 0:
            return self.symbol
        return f"{self.symbol}#{self.index}"


def placeholder_blocks(symbol: str, num_blocks: int) -> list[MemoryBlock]:
    """The symbolic placeholder lines of an object (one per real block)."""
    return [MemoryBlock(symbol, -(k + 1)) for k in range(num_blocks)]


#: Bits per lane of a packed age map: 15 value bits under one guard bit.
LANE_BITS = 16

#: Largest value a lane holds, and so the largest ``num_lines`` a packed
#: abstract cache state supports.
LANE_MAX = (1 << (LANE_BITS - 1)) - 1


class LaneTable:
    """An immutable numbering of memory blocks: block ``blocks[i]`` owns
    bits ``16*i .. 16*i + 15`` (lane ``i``) of every packed age map built
    against this table.

    Lanes follow sorted ``(symbol, index)`` order, so the numbering
    depends only on the block set, never on hashing or insertion order;
    equal block sets give equal tables.  Tables compare by value (a
    precomputed key keeps that cheap), pickle as their block list, and
    are never mutated once built (:meth:`countdown` only fills in
    constants derived from the lane count).  ``ones`` has a 1 at the
    bottom of every lane and ``guards`` a 1 at the top (guard) bit of
    every lane: the broadcast constants of the SWAR lane arithmetic.
    """

    __slots__ = ("blocks", "ones", "guards", "_lane_of", "_key", "_countdowns")

    def __init__(self, blocks: Iterable[MemoryBlock]):
        ordered = tuple(sorted(set(blocks)))
        self.blocks = ordered
        self._lane_of = {block: lane for lane, block in enumerate(ordered)}
        self.ones = int.from_bytes(b"\x01\x00" * len(ordered), "little")
        self.guards = self.ones << (LANE_BITS - 1)
        self._key = "\0".join(f"{block.symbol}\1{block.index}" for block in ordered)
        self._countdowns: dict[int, tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self.blocks)

    def lane_of(self, block: MemoryBlock) -> int | None:
        """The lane of ``block``, or None when the table has no lane for it."""
        return self._lane_of.get(block)

    def lane(self, block: MemoryBlock) -> int:
        lane = self._lane_of.get(block)
        if lane is None:
            raise ValueError(f"block {block} has no lane in this lane table")
        return lane

    def countdown(self, top: int) -> tuple[int, int]:
        """``top, top - 1, ...`` packed into the first ``min(len(self),
        top)`` lanes, and the guard bits of those lanes.

        Built once per ``top`` and kept with the table, like ``ones`` and
        ``guards``: the shadow state's NYoung step compares against it on
        every access (see :mod:`repro.cache.shadow`).
        """
        found = self._countdowns.get(top)
        if found is None:
            count = min(len(self.blocks), top)
            found = self._countdowns[top] = (
                self.pack(range(top, top - count, -1)),
                self.guards & ((1 << (count * LANE_BITS)) - 1),
            )
        return found

    def mask(self, lanes: Iterable[int]) -> int:
        """A 1 at the bottom of each of ``lanes``."""
        return sum(1 << (lane * LANE_BITS) for lane in set(lanes))

    def values(self, packed: int) -> array:
        """The lane values of ``packed``, indexed by lane."""
        lanes = array("H", packed.to_bytes(2 * len(self.blocks), "little"))
        if sys.byteorder == "big":
            lanes.byteswap()
        return lanes

    @staticmethod
    def pack(values: Iterable[int]) -> int:
        """Inverse of :meth:`values`: ``values[i]`` into lane ``i``."""
        lanes = array("H", values)
        if sys.byteorder == "big":
            lanes.byteswap()
        return int.from_bytes(lanes.tobytes(), "little")

    def bind(self, access: "BlockAccess") -> "BlockAccess":
        """``access`` with the lane ids of this table filled in.

        Unknown-index accesses also get the lanes of the object's
        placeholder lines (``[1*]``, ``[2*]``, ... in that order) when the
        table has all of them.
        """
        lanes = tuple(self.lane(block) for block in access.blocks)
        placeholder_lanes: tuple[int, ...] = ()
        if access.kind is AccessKind.UNKNOWN:
            found = [
                self._lane_of.get(block)
                for block in placeholder_blocks(access.symbol, len(access.blocks))
            ]
            if None not in found:
                placeholder_lanes = tuple(found)
        return replace(
            access,
            lanes=lanes,
            lane_mask=self.mask(lanes),
            placeholder_lanes=placeholder_lanes,
            placeholder_mask=self.mask(placeholder_lanes),
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LaneTable):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __reduce__(self):
        return (LaneTable, (self.blocks,))

    def __repr__(self) -> str:
        return f"LaneTable({len(self.blocks)} lanes)"


class AccessKind(Enum):
    """How precisely an access's target block is known."""

    CONCRETE = auto()   # exactly one known block
    UNKNOWN = auto()    # some block of the object, index not statically known
    SECRET = auto()     # some block of the object, index derived from a secret


@dataclass(frozen=True)
class BlockAccess:
    """A resolved memory access.

    ``blocks`` always lists every block the access *may* touch; for
    :data:`AccessKind.CONCRETE` accesses it has exactly one element.
    The lane fields are filled in by :meth:`LaneTable.bind` (which
    :meth:`MemoryLayout.resolve` applies): ``lanes[i]`` is the lane of
    ``blocks[i]``, ``lane_mask`` has a 1 at the bottom of each of those
    lanes, and for unknown-index accesses ``placeholder_lanes`` and
    ``placeholder_mask`` do the same for the object's placeholder lines.
    """

    kind: AccessKind
    symbol: str
    blocks: tuple[MemoryBlock, ...]
    is_write: bool
    ref: MemoryRef
    lanes: tuple[int, ...] = ()
    lane_mask: int = 0
    placeholder_lanes: tuple[int, ...] = ()
    placeholder_mask: int = 0

    @property
    def concrete_block(self) -> MemoryBlock:
        if self.kind is not AccessKind.CONCRETE:
            raise ValueError(f"access to {self.symbol!r} is not concrete")
        return self.blocks[0]


@dataclass
class ObjectLayout:
    """Placement of one program object (scalar or array)."""

    symbol: Symbol
    num_blocks: int

    @property
    def name(self) -> str:
        return self.symbol.name

    def blocks(self) -> list[MemoryBlock]:
        return [MemoryBlock(self.symbol.name, index) for index in range(self.num_blocks)]


@dataclass
class MemoryLayout:
    """Mapping from program symbols to their memory blocks.

    ``unknown_indexed`` names the objects the analysed code indexes with a
    statically unknown (non-secret) index: their placeholder lines get
    lanes in :attr:`lanes` next to the real blocks.
    """

    line_size: int
    objects: dict[str, ObjectLayout] = field(default_factory=dict)
    unknown_indexed: frozenset[str] = frozenset()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_program(
        cls, info: ProgramInfo, line_size: int = 64, cfg: CFG | None = None
    ) -> "MemoryLayout":
        """Build the layout for every in-memory symbol of ``info``.

        ``cfg`` is the CFG the analyses will run on: its unknown-index
        memory references decide :attr:`unknown_indexed`.
        """
        if line_size <= 0:
            raise ConfigError(f"line size must be positive, got {line_size}")
        layout = cls(line_size=line_size)
        for symbol in info.globals_table.local_symbols():
            layout._add_symbol(symbol)
        for function_info in info.functions.values():
            for symbol in function_info.table.local_symbols():
                layout._add_symbol(symbol)
        if cfg is not None:
            layout.unknown_indexed = frozenset(
                ref.symbol
                for block in cfg.blocks.values()
                for instruction in block.instructions
                for ref in instruction.memory_refs()
                if ref.index_const is None
                and not ref.index_secret
                and ref.symbol in layout.objects
            )
        return layout

    def _add_symbol(self, symbol: Symbol) -> None:
        self._resolve_cache = None
        self._lanes = None
        if not symbol.in_memory:
            return
        if symbol.name in self.objects:
            # Same-named locals in different functions share a layout entry;
            # the largest footprint wins so the analysis stays conservative.
            existing = self.objects[symbol.name]
            num_blocks = max(existing.num_blocks, self._blocks_for(symbol))
            self.objects[symbol.name] = ObjectLayout(symbol=symbol, num_blocks=num_blocks)
            return
        self.objects[symbol.name] = ObjectLayout(
            symbol=symbol, num_blocks=self._blocks_for(symbol)
        )

    def _blocks_for(self, symbol: Symbol) -> int:
        size = max(symbol.size_bytes, 1)
        return (size + self.line_size - 1) // self.line_size

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_symbol(self, name: str) -> bool:
        return name in self.objects

    def object(self, name: str) -> ObjectLayout:
        try:
            return self.objects[name]
        except KeyError as exc:
            raise ConfigError(f"no memory layout for symbol {name!r}") from exc

    def blocks_of(self, name: str) -> list[MemoryBlock]:
        return self.object(name).blocks()

    def all_blocks(self) -> list[MemoryBlock]:
        blocks: list[MemoryBlock] = []
        for obj in self.objects.values():
            blocks.extend(obj.blocks())
        return blocks

    @property
    def total_blocks(self) -> int:
        return sum(obj.num_blocks for obj in self.objects.values())

    @property
    def lanes(self) -> LaneTable:
        """The lane table of this layout: every real block, plus the
        placeholder lines of the :attr:`unknown_indexed` objects.  Built on
        first use; equal layouts give equal tables."""
        lanes = getattr(self, "_lanes", None)
        if lanes is None:
            blocks = self.all_blocks()
            for name in self.unknown_indexed:
                blocks.extend(placeholder_blocks(name, self.objects[name].num_blocks))
            lanes = self._lanes = LaneTable(blocks)
        return lanes

    # ------------------------------------------------------------------
    # Access resolution
    # ------------------------------------------------------------------
    def resolve(self, ref: MemoryRef) -> BlockAccess:
        """Resolve a :class:`MemoryRef` to the blocks it may touch.

        The result carries its lane ids in :attr:`lanes`.  Memoised per
        ref: resolution is pure given the layout, and every
        :class:`~repro.analysis.transfer.AccessTable` built against this
        layout re-resolves the same refs (the incremental mitigation loop
        builds one table per scored candidate).  The shared
        :class:`BlockAccess` values are immutable.
        """
        cache = getattr(self, "_resolve_cache", None)
        if cache is None:
            cache = {}
            self._resolve_cache = cache
        cached = cache.get(ref)
        if cached is not None:
            return cached
        access = self.lanes.bind(self._resolve_uncached(ref))
        cache[ref] = access
        return access

    def _resolve_uncached(self, ref: MemoryRef) -> BlockAccess:
        obj = self.object(ref.symbol)
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
        block_index = byte_offset // self.line_size
        block_index = min(max(block_index, 0), obj.num_blocks - 1)
        return BlockAccess(
            kind=AccessKind.CONCRETE,
            symbol=ref.symbol,
            blocks=(MemoryBlock(ref.symbol, block_index),),
            is_write=ref.is_write,
            ref=ref,
        )

    def describe(self) -> str:
        """Human-readable summary of the layout."""
        lines = [f"memory layout (line size {self.line_size} bytes)"]
        for name, obj in sorted(self.objects.items()):
            lines.append(f"  {name}: {obj.num_blocks} block(s)")
        return "\n".join(lines)
