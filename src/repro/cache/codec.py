"""Compact, versioned binary serialization of abstract cache states.

Retained snapshots keep whole fixpoints in this form for incremental
re-analysis (:mod:`repro.engine.incremental`).  States are packed ints
over a layout's :class:`~repro.ir.memory.LaneTable` (see
:mod:`repro.cache.abstract`), so a state's body is a *lane-byte copy*:

* one header (magic + format version + payload tag) per blob;
* one symbol table and one list of lane tables per blob — each distinct
  lane table (in practice: the one layout every state of an analysis
  shares) is written once, as its blocks in lane order, and states refer
  to it by index;
* per age map, the packed int's little-endian lane bytes — only the low
  byte of each lane when ``num_lines`` fits a byte — with trailing zero
  bytes dropped, behind a LEB128 length; geometry and counts as LEB128
  varints (block indices zigzag-encoded: placeholder lines are negative).

All three state flavours are supported — the flat
:class:`~repro.cache.abstract.CacheState`, the shadow-refined
:class:`~repro.cache.shadow.ShadowCacheState`, and the per-set product
:class:`~repro.cache.setassoc.SetAssocCacheState` wrapping either — for
every geometry and replacement policy.  ``decode_state(encode_state(s))``
is guaranteed equal to ``s``, and equal states encode to equal bytes
(lanes follow sorted block order, map keys are written sorted).

The format is versioned: a blob written under a different
:data:`CODEC_VERSION`, a foreign magic, an unknown tag, a lane table out
of canonical order, a lane value outside ``1..num_lines`` or trailing
bytes all raise :class:`CodecError` — readers never guess.
"""

from __future__ import annotations

from typing import Mapping

from repro.cache.abstract import CacheState
from repro.cache.shadow import ShadowCacheState
from repro.cache.setassoc import SetAssocCacheState
from repro.ir.memory import LANE_MAX, LaneTable, MemoryBlock

#: Leading bytes of every codec blob.
MAGIC = b"RSC"

#: Bump whenever the byte layout changes incompatibly.  Decoders reject
#: every other version outright rather than misinterpret a state.
#: Version 2: packed lane bytes over a per-blob lane table.
CODEC_VERSION = 2

#: Payload tags (one state vs a block-name → state map).
_TAG_STATE = 0x01
_TAG_STATE_MAP = 0x02

#: State-kind tags.
_KIND_FLAT = 0x01      # CacheState
_KIND_SHADOW = 0x02    # ShadowCacheState
_KIND_SETASSOC = 0x03  # SetAssocCacheState

_POLICY_TO_TAG = {"lru": 0, "fifo": 1}
_TAG_TO_POLICY = {tag: policy for policy, tag in _POLICY_TO_TAG.items()}

_FLAG_BOTTOM = 0x01


class CodecError(ValueError):
    """Raised for blobs this codec version cannot (or must not) decode."""


# ----------------------------------------------------------------------
# Varint primitives
# ----------------------------------------------------------------------
def _write_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise CodecError(f"cannot encode negative varint {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


# ----------------------------------------------------------------------
# Symbol interning
# ----------------------------------------------------------------------
class _SymbolTable:
    """Order-of-first-use string interning shared across one blob."""

    def __init__(self) -> None:
        self.symbols: list[str] = []
        self._index: dict[str, int] = {}

    def intern(self, symbol: str) -> int:
        index = self._index.get(symbol)
        if index is None:
            index = len(self.symbols)
            self._index[symbol] = index
            self.symbols.append(symbol)
        return index

    def emit(self, out: bytearray) -> None:
        _write_uvarint(out, len(self.symbols))
        for symbol in self.symbols:
            encoded = symbol.encode("utf-8")
            _write_uvarint(out, len(encoded))
            out.extend(encoded)

    @staticmethod
    def parse(data: bytes, pos: int) -> tuple[list[str], int]:
        count, pos = _read_uvarint(data, pos)
        symbols: list[str] = []
        for _ in range(count):
            length, pos = _read_uvarint(data, pos)
            if pos + length > len(data):
                raise CodecError("truncated symbol table")
            symbols.append(data[pos : pos + length].decode("utf-8"))
            pos += length
        return symbols, pos


# ----------------------------------------------------------------------
# Lane tables
# ----------------------------------------------------------------------
class _LaneTables:
    """Order-of-first-use interning of the lane tables of one blob."""

    def __init__(self) -> None:
        self.tables: list[LaneTable] = []
        self._index: dict[LaneTable, int] = {}

    def intern(self, lanes: LaneTable) -> int:
        index = self._index.get(lanes)
        if index is None:
            index = len(self.tables)
            self._index[lanes] = index
            self.tables.append(lanes)
        return index

    def emit(self, out: bytearray) -> None:
        symbols = _SymbolTable()
        body = bytearray()
        _write_uvarint(body, len(self.tables))
        for lanes in self.tables:
            _write_uvarint(body, len(lanes))
            for block in lanes.blocks:
                _write_uvarint(body, symbols.intern(block.symbol))
                _write_uvarint(body, _zigzag(block.index))
        symbols.emit(out)
        out.extend(body)

    @staticmethod
    def parse(data: bytes, pos: int, hint: LaneTable | None) -> tuple[list[LaneTable], int]:
        symbols, pos = _SymbolTable.parse(data, pos)
        count, pos = _read_uvarint(data, pos)
        tables: list[LaneTable] = []
        for _ in range(count):
            size, pos = _read_uvarint(data, pos)
            blocks = []
            for _ in range(size):
                sym_index, pos = _read_uvarint(data, pos)
                if sym_index >= len(symbols):
                    raise CodecError(f"symbol index {sym_index} out of range")
                raw_index, pos = _read_uvarint(data, pos)
                blocks.append(MemoryBlock(symbols[sym_index], _unzigzag(raw_index)))
            lanes = LaneTable(blocks)
            if lanes.blocks != tuple(blocks):
                raise CodecError("lane table is not in canonical (sorted, unique) order")
            tables.append(hint if lanes == hint else lanes)
        return tables, pos


# ----------------------------------------------------------------------
# Age maps (one packed int per map)
# ----------------------------------------------------------------------
def _emit_packed(out: bytearray, packed: int, lanes: LaneTable, num_lines: int) -> None:
    raw = packed.to_bytes(2 * len(lanes), "little")
    if num_lines <= 0xFF:
        raw = raw[::2]  # every lane fits its low byte
    raw = raw.rstrip(b"\0")
    _write_uvarint(out, len(raw))
    out.extend(raw)


def _parse_packed(
    data: bytes, pos: int, lanes: LaneTable, num_lines: int
) -> tuple[int, int]:
    length, pos = _read_uvarint(data, pos)
    if pos + length > len(data):
        raise CodecError("truncated age map")
    raw = data[pos : pos + length]
    if num_lines <= 0xFF:
        wide = bytearray(2 * length)
        wide[::2] = raw
        raw = wide
    if len(raw) > 2 * len(lanes):
        raise CodecError("age map wider than its lane table")
    packed = int.from_bytes(raw, "little")
    guards = lanes.guards
    if ((num_lines * lanes.ones | guards) - packed) & guards != guards:
        raise CodecError(f"lane value above {num_lines} lines")
    return packed, pos + length


# ----------------------------------------------------------------------
# State bodies (header-less; lane tables supplied by the caller)
# ----------------------------------------------------------------------
def _emit_flat_maps(out: bytearray, state) -> None:
    """The per-flavour age map(s) of one flat (single-set) state."""
    if isinstance(state, ShadowCacheState):
        _emit_packed(out, state.must_packed, state.lanes, state.num_lines)
        _emit_packed(out, state.may_packed, state.lanes, state.num_lines)
    else:
        _emit_packed(out, state.packed, state.lanes, state.num_lines)


def _emit_state_body(out: bytearray, state, tables: _LaneTables) -> None:
    if isinstance(state, SetAssocCacheState):
        inner = state.sets[0]
        out.append(_KIND_SETASSOC)
        out.append(_KIND_SHADOW if isinstance(inner, ShadowCacheState) else _KIND_FLAT)
        out.append(_POLICY_TO_TAG[inner.policy])
        out.append(_FLAG_BOTTOM if state.is_bottom else 0)
        _write_uvarint(out, state.num_sets)
        _write_uvarint(out, state.ways)
        _write_uvarint(out, tables.intern(inner.lanes))
        for per_set in state.sets:
            out.append(_FLAG_BOTTOM if per_set.is_bottom else 0)
            _emit_flat_maps(out, per_set)
        return
    if isinstance(state, ShadowCacheState):
        out.append(_KIND_SHADOW)
    elif isinstance(state, CacheState):
        out.append(_KIND_FLAT)
    else:
        raise CodecError(f"cannot encode {type(state).__name__}")
    out.append(_POLICY_TO_TAG[state.policy])
    out.append(_FLAG_BOTTOM if state.is_bottom else 0)
    _write_uvarint(out, state.num_lines)
    _write_uvarint(out, tables.intern(state.lanes))
    _emit_flat_maps(out, state)


def _parse_flat_state(
    data: bytes, pos: int, lanes: LaneTable, kind: int, policy: str,
    bottom: bool, num_lines: int,
):
    if not 1 <= num_lines <= LANE_MAX:
        raise CodecError(f"line count {num_lines} out of range")
    if kind == _KIND_SHADOW:
        must, pos = _parse_packed(data, pos, lanes, num_lines)
        may, pos = _parse_packed(data, pos, lanes, num_lines)
        return ShadowCacheState(num_lines, lanes, must, may, bottom, policy), pos
    packed, pos = _parse_packed(data, pos, lanes, num_lines)
    return CacheState(num_lines, lanes, packed, bottom, policy), pos


def _table_at(data: bytes, pos: int, tables: list[LaneTable]) -> tuple[LaneTable, int]:
    index, pos = _read_uvarint(data, pos)
    if index >= len(tables):
        raise CodecError(f"lane table index {index} out of range")
    return tables[index], pos


def _parse_state_body(data: bytes, pos: int, tables: list[LaneTable]):
    if pos >= len(data):
        raise CodecError("truncated state body")
    kind = data[pos]
    pos += 1
    if kind == _KIND_SETASSOC:
        if pos + 3 > len(data):
            raise CodecError("truncated set-associative header")
        inner_kind = data[pos]
        policy_tag = data[pos + 1]
        flags = data[pos + 2]
        pos += 3
        if inner_kind not in (_KIND_FLAT, _KIND_SHADOW):
            raise CodecError(f"unknown per-set state kind 0x{inner_kind:02x}")
        policy = _TAG_TO_POLICY.get(policy_tag)
        if policy is None:
            raise CodecError(f"unknown policy tag 0x{policy_tag:02x}")
        num_sets, pos = _read_uvarint(data, pos)
        ways, pos = _read_uvarint(data, pos)
        if num_sets <= 0:
            raise CodecError("set-associative state needs at least one set")
        lanes, pos = _table_at(data, pos, tables)
        sets = []
        for _ in range(num_sets):
            if pos >= len(data):
                raise CodecError("truncated per-set state")
            set_bottom = bool(data[pos] & _FLAG_BOTTOM)
            pos += 1
            per_set, pos = _parse_flat_state(
                data, pos, lanes, inner_kind, policy, set_bottom, ways
            )
            sets.append(per_set)
        return (
            SetAssocCacheState(
                num_sets=num_sets, ways=ways, sets=tuple(sets),
                is_bottom=bool(flags & _FLAG_BOTTOM),
            ),
            pos,
        )
    if kind not in (_KIND_FLAT, _KIND_SHADOW):
        raise CodecError(f"unknown state kind 0x{kind:02x}")
    if pos + 2 > len(data):
        raise CodecError("truncated state header")
    policy = _TAG_TO_POLICY.get(data[pos])
    if policy is None:
        raise CodecError(f"unknown policy tag 0x{data[pos]:02x}")
    bottom = bool(data[pos + 1] & _FLAG_BOTTOM)
    pos += 2
    num_lines, pos = _read_uvarint(data, pos)
    lanes, pos = _table_at(data, pos, tables)
    return _parse_flat_state(data, pos, lanes, kind, policy, bottom, num_lines)


# ----------------------------------------------------------------------
# Blob framing
# ----------------------------------------------------------------------
def _emit_header(out: bytearray, tag: int) -> None:
    out.extend(MAGIC)
    out.append(CODEC_VERSION)
    out.append(tag)


def _check_header(data: bytes, expected_tag: int) -> int:
    if len(data) < len(MAGIC) + 2:
        raise CodecError("blob too short for a codec header")
    if data[: len(MAGIC)] != MAGIC:
        raise CodecError("bad magic: not a cache-state codec blob")
    version = data[len(MAGIC)]
    if version != CODEC_VERSION:
        raise CodecError(
            f"unsupported codec version {version} (this reader is version {CODEC_VERSION})"
        )
    tag = data[len(MAGIC) + 1]
    if tag != expected_tag:
        raise CodecError(f"unexpected payload tag 0x{tag:02x}")
    return len(MAGIC) + 2


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def _frame(tag: int, tables: _LaneTables, body: bytearray) -> bytes:
    out = bytearray()
    _emit_header(out, tag)
    tables.emit(out)
    out.extend(body)
    return bytes(out)


def encode_state(state) -> bytes:
    """Encode one abstract cache state (any flavour) to a compact blob."""
    tables = _LaneTables()
    body = bytearray()
    _emit_state_body(body, state, tables)
    return _frame(_TAG_STATE, tables, body)


def decode_state(data: bytes, lanes: LaneTable | None = None):
    """Inverse of :func:`encode_state`; raises :class:`CodecError` on any
    malformed, foreign-version or trailing-garbage input.  A lane table of
    the blob equal to ``lanes`` decodes to ``lanes`` itself, so decoded
    states share the caller's table."""
    pos = _check_header(data, _TAG_STATE)
    tables, pos = _LaneTables.parse(data, pos, lanes)
    state, pos = _parse_state_body(data, pos, tables)
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing byte(s) after state")
    return state


def encode_state_map(states: Mapping[str, object]) -> bytes:
    """Encode a block-name → state map in one blob with shared lane
    tables — the snapshot shape.  Keys are written in sorted
    order (canonical bytes for equal maps)."""
    tables = _LaneTables()
    body = bytearray()
    _write_uvarint(body, len(states))
    for name in sorted(states):
        encoded = name.encode("utf-8")
        _write_uvarint(body, len(encoded))
        body.extend(encoded)
        _emit_state_body(body, states[name], tables)
    return _frame(_TAG_STATE_MAP, tables, body)


def decode_state_map(data: bytes, lanes: LaneTable | None = None) -> dict[str, object]:
    """Inverse of :func:`encode_state_map` (``lanes`` as for
    :func:`decode_state`)."""
    pos = _check_header(data, _TAG_STATE_MAP)
    tables, pos = _LaneTables.parse(data, pos, lanes)
    count, pos = _read_uvarint(data, pos)
    states: dict[str, object] = {}
    for _ in range(count):
        length, pos = _read_uvarint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated map key")
        name = data[pos : pos + length].decode("utf-8")
        pos += length
        states[name], pos = _parse_state_body(data, pos, tables)
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing byte(s) after state map")
    return states
