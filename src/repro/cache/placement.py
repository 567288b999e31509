"""Deterministic set placement, shared by the concrete and abstract caches.

A set-associative cache maps each memory block to exactly one cache set.
Both sides of the soundness argument — the concrete simulator and the
per-set abstract domain — must agree on that mapping, and the mapping
must be stable across processes: results are keyed into the persistent
store and replayed by the daemon after restarts, so a placement derived
from Python's randomised builtin ``hash()`` would make set-associative
runs irreproducible (PYTHONHASHSEED changes it per process).

We therefore place blocks with :func:`zlib.crc32` over the canonical
``"symbol:index"`` spelling of the block, which is fully specified by
the zlib standard and identical on every platform and in every process.
"""

from __future__ import annotations

import zlib

from repro.ir.memory import MemoryBlock


def set_index(block: MemoryBlock, num_sets: int) -> int:
    """The cache set ``block`` maps to, in ``[0, num_sets)``.

    Deterministic across processes and platforms (CRC-32 of
    ``"symbol:index"``); ``num_sets == 1`` (fully associative) always
    yields set 0 without hashing.
    """
    if num_sets <= 1:
        return 0
    return zlib.crc32(f"{block.symbol}:{block.index}".encode("utf-8")) % num_sets


def partition_by_set(blocks, num_sets: int) -> dict[int, list[MemoryBlock]]:
    """Group ``blocks`` by their set index (sets with no blocks omitted)."""
    partition: dict[int, list[MemoryBlock]] = {}
    for block in blocks:
        partition.setdefault(set_index(block, num_sets), []).append(block)
    return partition
