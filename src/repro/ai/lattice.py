"""The abstract-value protocol shared by all domains."""

from __future__ import annotations

from typing import Protocol, TypeVar, runtime_checkable

T = TypeVar("T", bound="AbstractValue")


@runtime_checkable
class AbstractValue(Protocol):
    """Minimal interface a domain element must provide to the solver.

    The cache states (:class:`~repro.cache.abstract.CacheState`,
    :class:`~repro.cache.shadow.ShadowCacheState`) satisfy this protocol.
    """

    @property
    def is_bottom(self) -> bool:
        """Whether this is the unreachable (⊥) element."""
        ...

    def join(self: T, other: T) -> T:
        """Least upper bound (the ⊔ operator)."""
        ...

    def widen(self: T, previous: T) -> T:
        """Widening of ``self`` (the new, joined value) against the value
        stored on the previous iteration.  Domains with finite height may
        simply return ``self``."""
        ...

    def leq(self: T, other: T) -> bool:
        """Partial order test ``self ⊑ other``."""
        ...
