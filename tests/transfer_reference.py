"""The unmemoised committed-path transfer: the oracle for the access
table's memo (:class:`repro.analysis.transfer.CommittedTransfers`).

:func:`record_block` is the walk the speculative analysis's S transfer
and the baseline's transfer made before they read the memo, kept
verbatim: push the state through each site of the block, reading each
site's ``(must_hit, secret_dependent)`` flags off the state it executes
in.  :func:`assert_memo_matches_walks` checks every entry of a table's
memo against a fresh walk from the entry's own input state.
"""

from __future__ import annotations

from repro.analysis.transfer import AccessTable
from repro.ir.memory import AccessKind, BlockAccess


def _flags(state, access: BlockAccess) -> tuple[bool, bool]:
    must_hit = state.must_hit_access(access)
    if access.kind is not AccessKind.SECRET or getattr(state, "is_bottom", False):
        return must_hit, False
    hit_blocks = sum(1 for b in access.blocks if state.must_hit(b))
    return must_hit, 0 < hit_blocks < len(access.blocks)


def record_block(state, table: AccessTable, block: str):
    """``(state out, site flags)`` of a walk through every site of
    ``block`` from ``state``."""
    current = state
    flags = []
    for site in table.sites(block):
        access = site.access
        flags.append(_flags(current, access))
        current = current.access(access)
    return current, tuple(flags)


def assert_memo_matches_walks(table: AccessTable) -> int:
    """Every memo entry equals a fresh walk from its input state: the
    output state (by value, and its class) and each site's flags.
    Returns the number of entries checked."""
    for (block, state), (state_out, flags) in list(table.memo.items()):
        want_out, want_flags = record_block(state, table, block)
        assert type(state_out) is type(want_out), block
        assert state_out == want_out, block
        assert flags == want_flags, block
        assert len(flags) == len(table.sites(block)), block
    return len(table.memo)
