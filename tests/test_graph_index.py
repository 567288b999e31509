"""The graph index (:mod:`repro.ir.graph`) against the set-based oracle in
``graph_reference.py``, and its staleness and immutability rules.

The random CFGs are seeded and small (1–16 blocks), so every shape that
matters shows up many times: irreducible cycles, self-loops, unreachable
blocks, regions that cannot reach a return, several returns, and
conditional branches whose two targets are equal.
"""

from __future__ import annotations

import itertools
import pickle
import random
import sys
import threading

import pytest

import graph_reference as reference
from repro import compile_source
from repro.bench.programs import quantl_client_source
from repro.errors import CFGError
from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import CFG
from repro.ir.graph import VIRTUAL_EXIT
from repro.ir.instructions import CondBranch, Const, Copy, Fence, Jump, Return, Temp
from repro.speculation.vcfg import compute_window, first_fence_index

SEED = 0x6A7F
NUM_CFGS = 1200
MAX_BLOCKS = 16


def random_cfg(rng: random.Random, index: int) -> CFG:
    size = rng.randint(1, MAX_BLOCKS)
    names = [f"b{i}" for i in range(size)]
    cfg = CFG(name=f"random{index}", entry=names[0])
    for name in names:
        block = cfg.add_block(BasicBlock(name))
        for position in range(rng.randint(0, 4)):
            if rng.random() < 0.1:
                block.append(Fence())
            else:
                block.append(Copy(dest=Temp(f"t{position}"), src=Const(position)))
        roll = rng.random()
        if roll < 0.2:
            block.terminator = Return(value=None)
        elif roll < 0.55:
            block.terminator = Jump(target=rng.choice(names))
        else:
            true_target = rng.choice(names)
            false_target = true_target if rng.random() < 0.1 else rng.choice(names)
            block.terminator = CondBranch(
                cond=Temp("c"), true_target=true_target, false_target=false_target
            )
    return cfg


@pytest.fixture(scope="module")
def cfgs() -> list[CFG]:
    rng = random.Random(SEED)
    return [random_cfg(rng, index) for index in range(NUM_CFGS)]


def _is_irreducible(cfg: CFG) -> bool:
    """A retreating edge (to a block no later in reverse postorder) whose
    target does not dominate its source."""
    rank = {name: i for i, name in enumerate(reference.reverse_postorder(cfg))}
    dom = reference.dominators(cfg)
    return any(
        rank[target] <= rank[source] and target not in dom[source]
        for source in rank
        for target in reference.successors(cfg, source)
    )


class TestRandomCFGsMatchTheOracle:
    def test_the_corpus_covers_every_shape(self, cfgs):
        reachable = [set(reference.reachable_blocks(cfg)) for cfg in cfgs]
        trees = [reference.postdominator_tree(cfg) for cfg in cfgs]
        _, can_reach = zip(*(reference.exit_reaching_postdominators(cfg) for cfg in cfgs))
        shapes = {
            "irreducible": sum(map(_is_irreducible, cfgs)),
            "self-loop": sum(
                any(name in reference.successors(cfg, name) for name in live)
                for cfg, live in zip(cfgs, reachable)
            ),
            "unreachable": sum(len(live) < len(cfg.blocks) for cfg, live in zip(cfgs, reachable)),
            "no exit reached": sum(
                bool(live - reach) for live, reach in zip(reachable, can_reach)
            ),
            "several returns": sum(
                len([n for n in reference.exit_blocks(cfg) if n in live]) > 1
                for cfg, live in zip(cfgs, reachable)
            ),
            "equal targets": sum(
                any(
                    isinstance(cfg.blocks[n].terminator, CondBranch)
                    and len(set(reference.successors(cfg, n))) == 1
                    for n in live
                )
                for cfg, live in zip(cfgs, reachable)
            ),
            "convergence": sum(any(v is not None for v in tree.values()) for tree in trees),
        }
        assert min(shapes.values()) >= 30, shapes

    def test_reachable_order_and_reverse_postorder(self, cfgs):
        for cfg in cfgs:
            assert cfg.reachable_blocks() == reference.reachable_blocks(cfg)
            assert cfg.reverse_postorder() == reference.reverse_postorder(cfg)
            graph = cfg.graph()
            assert graph.reachable_set == frozenset(graph.reachable)
            assert dict(graph.rank) == {name: i for i, name in enumerate(graph.rpo)}

    def test_successors_and_predecessors(self, cfgs):
        for cfg in cfgs:
            for name in cfg.blocks:
                assert cfg.successors(name) == reference.successors(cfg, name)
                assert cfg.predecessors(name) == reference.predecessors(cfg, name)

    def test_dominators(self, cfgs):
        for cfg in cfgs:
            graph = cfg.graph()
            assert dict(graph.idom) == reference.immediate_dominators(cfg)
            assert {
                name: set(graph.dominator_chain(name)) for name in graph.reachable
            } == reference.dominators(cfg)

    def test_postdominators(self, cfgs):
        for cfg in cfgs:
            graph = cfg.graph()
            assert dict(graph.ipdom) == reference.postdominator_tree(cfg)
            pdom, can_reach_exit = reference.exit_reaching_postdominators(cfg)
            for name in graph.reachable:
                chain = graph.postdominator_chain(name)
                if name in can_reach_exit:
                    assert chain[-1] == VIRTUAL_EXIT
                    assert set(chain) == pdom[name]
                else:
                    assert chain is None

    def test_common_postdominators(self, cfgs):
        for cfg in cfgs[:300]:
            graph = cfg.graph()
            live = reference.reachable_blocks(cfg)
            for left, right in itertools.product(live[:6], repeat=2):
                assert graph.common_postdominator(left, right) == (
                    reference.common_postdominator(cfg, left, right)
                )

    def test_natural_loops(self, cfgs):
        for cfg in cfgs:
            loops = [
                (loop.header, loop.blocks, loop.back_edges) for loop in cfg.graph().loops
            ]
            assert loops == reference.natural_loops(cfg)
            live = set(reference.reachable_blocks(cfg))
            assert all(loop.blocks <= live for loop in cfg.graph().loops)

    def test_windows_from_every_block(self, cfgs):
        for cfg in cfgs:
            for start in cfg.blocks:
                assert first_fence_index(cfg, start) == reference.first_fence_index(cfg, start)
                for depth in (3, 11):
                    assert compute_window(cfg, start, depth) == (
                        reference.compute_window(cfg, start, depth)
                    )


# ----------------------------------------------------------------------
# Staleness: the index never answers for an older graph
# ----------------------------------------------------------------------
def build_loop() -> CFG:
    """entry -> header <-> body, header -> exit."""
    cfg = CFG(name="loop")
    for name in ("entry", "header", "body", "exit"):
        cfg.add_block(BasicBlock(name))
    cfg.block("entry").terminator = Jump(target="header")
    cfg.block("header").terminator = CondBranch(
        cond=Temp("c"), true_target="body", false_target="exit"
    )
    cfg.block("body").terminator = Jump(target="header")
    cfg.block("exit").terminator = Return(value=None)
    return cfg


def _answers(cfg: CFG) -> dict:
    """Every question the index answers, asked through the public API."""
    return {
        "successors": {name: cfg.successors(name) for name in cfg.blocks},
        "predecessors": {name: cfg.predecessors(name) for name in cfg.blocks},
        "reachable": cfg.reachable_blocks(),
        "rpo": cfg.reverse_postorder(),
        "idom": dict(cfg.graph().idom),
        "ipdom": dict(cfg.graph().ipdom),
        "loops": [(loop.header, loop.blocks) for loop in cfg.graph().loops],
        "windows": {name: compute_window(cfg, name, 8) for name in cfg.blocks},
    }


def _oracle(cfg: CFG) -> dict:
    return {
        "successors": {name: reference.successors(cfg, name) for name in cfg.blocks},
        "predecessors": {name: reference.predecessors(cfg, name) for name in cfg.blocks},
        "reachable": reference.reachable_blocks(cfg),
        "rpo": reference.reverse_postorder(cfg),
        "idom": reference.immediate_dominators(cfg),
        "ipdom": reference.postdominator_tree(cfg),
        "loops": [(header, set(body)) for header, body, _ in reference.natural_loops(cfg)],
        "windows": {name: reference.compute_window(cfg, name, 8) for name in cfg.blocks},
    }


def _add_block(cfg: CFG) -> None:
    cfg.add_block(BasicBlock("orphan", terminator=Jump(target="body")))


def _reassign_blocks(cfg: CFG) -> None:
    cfg.block("header").terminator = Jump(target="exit")
    cfg.blocks = {name: block for name, block in cfg.blocks.items() if name != "body"}


def _rewire_terminator(cfg: CFG) -> None:
    cfg.block("body").terminator = Jump(target="exit")


def _assign_instructions(cfg: CFG) -> None:
    cfg.block("header").instructions = [Copy(dest=Temp("x"), src=Const(1))] * 3


def _append(cfg: CFG) -> None:
    cfg.block("body").append(Fence())


def _move_entry(cfg: CFG) -> None:
    cfg.entry = "body"


EDITS = [
    _add_block,
    _reassign_blocks,
    _rewire_terminator,
    _assign_instructions,
    _append,
    _move_entry,
]


class TestStaleness:
    @pytest.mark.parametrize("edit", EDITS, ids=lambda edit: edit.__name__.strip("_"))
    def test_every_edit_is_seen(self, edit):
        cfg = build_loop()
        before = _answers(cfg)
        edit(cfg)
        after = _answers(cfg)
        assert after == _oracle(cfg)
        assert after != before

    def test_unchanged_graph_keeps_its_index(self):
        cfg = build_loop()
        graph = cfg.graph()
        cfg.block("body").terminator = Jump(target="header")  # equal terminator
        assert cfg.graph() is graph

    def test_rewired_compiled_program_is_reanalysed(self):
        cfg = compile_source(quantl_client_source()).cfg
        saved = cfg.block(cfg.entry).terminator
        assert dict(cfg.graph().ipdom) == reference.postdominator_tree(cfg)
        cfg.block(cfg.entry).terminator = Return(value=None)
        assert cfg.reachable_blocks() == [cfg.entry]
        assert dict(cfg.graph().idom) == {cfg.entry: None}
        assert dict(cfg.graph().ipdom) == {cfg.entry: None}
        cfg.block(cfg.entry).terminator = saved
        assert dict(cfg.graph().ipdom) == reference.postdominator_tree(cfg)


class TestSharedBetweenThreads:
    def test_concurrent_first_use_answers_alike(self, cfgs):
        """Threads racing to compute the parts of shared indexes all read
        the oracle's answers."""
        sample = cfgs[:40]
        expected = [_oracle(cfg) for cfg in sample]
        fresh = [pickle.loads(pickle.dumps(cfg)) for cfg in sample]
        failures: list[str] = []

        def read_all() -> None:
            for cfg, want in zip(fresh, expected):
                if _answers(cfg) != want:
                    failures.append(cfg.name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read_all) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestAnswersCannotBeMutated:
    def test_index_parts_are_read_only(self):
        graph = build_loop().graph()
        for mapping in (
            graph.successors,
            graph.predecessors,
            graph.rank,
            graph.idom,
            graph.ipdom,
            graph.instruction_counts,
            graph.fence_indexes,
        ):
            with pytest.raises(TypeError):
                mapping["entry"] = None
        assert isinstance(graph.successors["header"], tuple)
        assert isinstance(graph.reachable, tuple)
        assert isinstance(graph.rpo, tuple)
        assert isinstance(graph.reachable_set, frozenset)
        assert isinstance(graph.loops[0].blocks, frozenset)

    def test_public_answers_are_fresh(self):
        cfg = build_loop()
        cfg.successors("header").append("entry")
        cfg.predecessors("header").clear()
        cfg.reachable_blocks().clear()
        assert _answers(cfg) == _oracle(cfg)

    def test_pickled_cfg_answers_alike(self):
        cfg = build_loop()
        cfg.graph().idom
        copy = pickle.loads(pickle.dumps(cfg))
        assert _answers(copy) == _answers(cfg)
        copy.block("body").terminator = Jump(target="exit")
        assert _answers(copy) == _oracle(copy)

    def test_unknown_block_raises(self):
        cfg = build_loop()
        with pytest.raises(CFGError):
            cfg.successors("nope")
        cfg.block("body").terminator = Jump(target="nowhere")
        with pytest.raises(CFGError):
            cfg.reachable_blocks()
