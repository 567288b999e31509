"""Secret-taint dataflow tests: lattice unit cases, blame-path shape, and
the soundness differential against the concrete speculative simulator."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import compile_source
from repro.analysis.taint import analyze_taint
from repro.apps.sidechannel import detect_leaks, explain_leaks
from repro.cache.config import CacheConfig
from repro.speculation.predictor import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
    OpposingPredictor,
)
from repro.speculation.simulator import SpeculativeSimulator

SECRET_INDEX = """\
char tab[256];
secret char k;

int main() {
  tab[k];
  return 0;
}
"""

MEMORY_FLOW = """\
secret char k;
char scratch[64];
char tab[256];
int x;

int main() {
  scratch[k] = 1;
  x = scratch[0];
  tab[x];
  return 0;
}
"""

CONTROL_DEPENDENCE = """\
secret char k;
char a[64];
char b[64];

int main() {
  if (k > 0) {
    a[0];
  } else {
    b[0];
  }
  return 0;
}
"""

NO_SECRETS = """\
char a[64];
char b[64];
int p;

int main() {
  if (p > 0) {
    a[0];
  } else {
    b[0];
  }
  return 0;
}
"""


def sites_touching(taint, symbol: str) -> set:
    """Tainted sites whose instruction references ``symbol``."""
    found = set()
    for block, index in taint.tainted_sites:
        instruction = taint.cfg.block(block).instructions[index]
        if any(ref.symbol == symbol for ref in instruction.memory_refs()):
            found.add((block, index))
    return found


class TestTaintLattice:
    def test_secret_indexed_access_is_tainted(self):
        taint = analyze_taint(compile_source(SECRET_INDEX))
        assert sites_touching(taint, "tab")

    def test_secret_object_blocks_are_seeded(self):
        taint = analyze_taint(compile_source(SECRET_INDEX))
        assert any(block.symbol == "k" for block in taint.tainted_blocks)

    def test_memory_flow_store_then_load(self):
        """A secret-indexed store taints the array; a load from it taints
        the loaded temp; an access indexed by that temp is tainted."""
        taint = analyze_taint(compile_source(MEMORY_FLOW))
        assert any(block.symbol == "scratch" for block in taint.tainted_blocks)
        assert sites_touching(taint, "scratch")
        assert sites_touching(taint, "tab")

    def test_control_dependence_taints_arm_accesses(self):
        taint = analyze_taint(compile_source(CONTROL_DEPENDENCE))
        assert sites_touching(taint, "a")
        assert sites_touching(taint, "b")
        assert taint.control_tainted

    def test_no_secrets_means_no_taint(self):
        taint = analyze_taint(compile_source(NO_SECRETS))
        assert taint.tainted_sites == frozenset()
        assert taint.tainted_blocks == frozenset()
        assert taint.control_tainted == frozenset()

    def test_taint_is_never_killed(self):
        """Overwriting a tainted array with a constant does not clear the
        block taint (the cache side channel does not forget)."""
        source = MEMORY_FLOW.replace(
            "  tab[x];\n", "  scratch[0] = 0;\n  tab[x];\n"
        )
        taint = analyze_taint(compile_source(source))
        assert any(block.symbol == "scratch" for block in taint.tainted_blocks)


class TestBlamePaths:
    def test_path_runs_source_to_access(self):
        taint = analyze_taint(compile_source(SECRET_INDEX))
        for block, index in sites_touching(taint, "tab"):
            path = taint.blame_path(block, index)
            assert path is not None
            assert path[0].kind == "source"
            assert path[-1].kind == "access"
            assert path[-1].block == block
            assert path[-1].instruction_index == index

    def test_memory_flow_path_passes_through_store(self):
        taint = analyze_taint(compile_source(MEMORY_FLOW))
        kinds_seen = set()
        for block, index in sites_touching(taint, "tab"):
            path = taint.blame_path(block, index)
            assert path is not None and path[0].kind == "source"
            kinds_seen.update(step.kind for step in path)
        assert "access" in kinds_seen

    def test_untainted_site_has_no_path(self):
        program = compile_source(NO_SECRETS)
        taint = analyze_taint(program)
        for name in program.cfg.reachable_blocks():
            for index, _ in enumerate(program.cfg.block(name).instructions):
                assert taint.blame_path(name, index) is None

    def test_steps_render_and_serialise(self):
        taint = analyze_taint(compile_source(SECRET_INDEX))
        (site,) = sites_touching(taint, "tab")
        path = taint.blame_path(*site)
        for step in path:
            assert step.kind in step.render()
            assert step.to_dict()["kind"] == step.kind


#: Leaks under speculation at an 8-line cache: the secret-indexed load
#: of ``tab`` may hit or miss.
LEAKY = """\
char tab[256];
char pad[64];
secret char k;
int p;

int main() {
  tab[0];
  if (p > 0) {
    pad[0];
  }
  tab[k];
  return 0;
}
"""


class TestExplainLeaks:
    """``explain_leaks`` (behind ``repro sidechannel --explain``) is the
    taint pass's production caller: every leak site gets a path from a
    secret source to that very access."""

    @staticmethod
    def leaks():
        program = compile_source(LEAKY)
        report = detect_leaks(program, cache_config=CacheConfig(num_lines=8, line_size=64))
        assert report.leak_sites, "LEAKY stopped leaking; adjust the program"
        return program, report.leak_sites

    def test_every_leak_site_is_blamed_on_a_secret(self):
        program, sites = self.leaks()
        blames = explain_leaks(program, sites)
        assert set(blames) == {(site.block, site.instruction_index) for site in sites}
        for (block, index), path in blames.items():
            assert path[0].kind == "source"
            assert path[-1].kind == "access"
            assert (path[-1].block, path[-1].instruction_index) == (block, index)

    def test_leak_sites_and_bare_pairs_explain_alike(self):
        program, sites = self.leaks()
        pairs = [(site.block, site.instruction_index) for site in sites]
        assert explain_leaks(program, pairs) == explain_leaks(program, sites)

    def test_public_accesses_have_no_blame(self):
        program = compile_source(LEAKY)
        public = [
            (name, index)
            for name in program.cfg.reachable_blocks()
            for index, instruction in enumerate(program.cfg.block(name).instructions)
            if any(ref.symbol == "pad" for ref in instruction.memory_refs())
        ]
        assert public
        assert set(explain_leaks(program, public).values()) == {None}

    @pytest.mark.parametrize("kernel", ["hash", "encoder", "des"])
    def test_cli_explain_blames_every_leak_site(self, kernel, tmp_path, capsys):
        from repro.service.cli import main

        code = main(
            [
                "sidechannel", kernel, "--local", "--json", "--explain",
                "--store-dir", str(tmp_path / "store"),
            ]
        )
        assert code == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["spec_leak_sites"] >= 1
        assert len(row["blame"]) == row["spec_leak_sites"]
        for entry in row["blame"]:
            path = entry["path"]
            assert path[0]["kind"] == "source"
            assert path[-1]["kind"] == "access"
            assert (path[-1]["block"], path[-1]["instruction_index"]) == (
                entry["block"],
                entry["instruction_index"],
            )


# ----------------------------------------------------------------------
# Soundness against the concrete speculative simulator
# ----------------------------------------------------------------------
_ARRAYS = ["t0", "t1", "t2", "t3"]


@st.composite
def secret_programs(draw):
    """Small branchy programs mixing public and secret-derived accesses."""
    statements: list[str] = []
    num_statements = draw(st.integers(min_value=1, max_value=6))
    for _ in range(num_statements):
        kind = draw(
            st.sampled_from(
                ["touch", "secret_touch", "branch", "secret_branch", "store"]
            )
        )
        array = draw(st.sampled_from(_ARRAYS))
        other = draw(st.sampled_from(_ARRAYS))
        if kind == "touch":
            statements.append(f"{array}[0];")
        elif kind == "secret_touch":
            statements.append(f"{array}[k];")
        elif kind == "branch":
            cond_var = draw(st.sampled_from(["p", "q"]))
            statements.append(
                f"if ({cond_var} > {draw(st.integers(0, 2))}) "
                f"{{ {array}[0]; }} else {{ {other}[0]; }}"
            )
        elif kind == "secret_branch":
            statements.append(
                f"if (k > {draw(st.integers(0, 2))}) "
                f"{{ {array}[0]; }} else {{ {other}[0]; }}"
            )
        else:
            statements.append(f"{array}[{draw(st.integers(0, 3))}] = p;")
    body = "\n  ".join(statements)
    decls = "\n".join(f"char {name}[64];" for name in _ARRAYS)
    return f"""
{decls}
int p; int q;
secret char k;
int main() {{
  {body}
  return 0;
}}
"""


class TestSoundnessAgainstSimulator:
    """Every concrete access that touches secret-derived memory happens at
    a site the taint pass marked — across cache geometries, branch
    predictors (so mispredicted speculative accesses are covered too),
    and concrete secret values."""

    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        source=secret_programs(),
        p=st.integers(min_value=0, max_value=3),
        q=st.integers(min_value=0, max_value=3),
        k=st.integers(min_value=0, max_value=3),
        predictor=st.sampled_from(["opposing", "taken", "not_taken"]),
        num_lines=st.integers(min_value=2, max_value=4),
    )
    def test_concrete_secret_touches_are_tainted_sites(
        self, source, p, q, k, predictor, num_lines
    ):
        cache = CacheConfig(num_lines=num_lines, line_size=64)
        program = compile_source(source)
        taint = analyze_taint(program)
        secret_symbols = program.info.secret_symbols

        predictors = {
            "opposing": OpposingPredictor(),
            "taken": AlwaysTakenPredictor(),
            "not_taken": AlwaysNotTakenPredictor(),
        }
        simulation = SpeculativeSimulator(
            program, cache_config=cache, predictor=predictors[predictor]
        ).run({"p": p, "q": q, "k": k})

        for record in simulation.accesses:
            secret_data = (
                record.memory_block.symbol in secret_symbols
                or record.memory_block in taint.tainted_blocks
            )
            if secret_data:
                assert taint.is_tainted_site(
                    record.block_name, record.instruction_index
                ), (
                    f"concrete access to {record.memory_block} at "
                    f"({record.block_name}, {record.instruction_index}) "
                    f"(speculative={record.speculative}) touches secret-"
                    f"derived memory but the site is not tainted "
                    f"(inputs p={p}, q={q}, k={k})"
                )

    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(source=secret_programs())
    def test_tainted_sites_are_real_sites(self, source):
        """No phantom sites: every tainted site names an instruction that
        actually references memory."""
        program = compile_source(source)
        taint = analyze_taint(program)
        for block, index in taint.tainted_sites:
            instruction = program.cfg.block(block).instructions[index]
            assert instruction.memory_refs()
