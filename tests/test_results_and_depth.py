"""Unit tests for the result containers, the depth chooser, and the
VCFG/engine bookkeeping that the tables report."""

from repro import compile_source
from repro.analysis.depth import DepthChooser
from repro.analysis.result import AccessClassification, CacheAnalysisResult
from repro.cache.abstract import CacheState
from repro.cache.config import CacheConfig
from repro.cache.shadow import ShadowCacheState
from repro.ir.instructions import MemoryRef
from repro.ir.memory import AccessKind, MemoryBlock
from repro.speculation.config import SpeculationConfig
from repro.speculation.vcfg import build_vcfg


def _classification(block="bb", index=0, **kwargs):
    defaults = dict(
        block=block,
        instruction_index=index,
        ref=MemoryRef(symbol="x"),
        kind=AccessKind.CONCRETE,
        must_hit=True,
    )
    defaults.update(kwargs)
    return AccessClassification(**defaults)


class TestCacheAnalysisResult:
    def _result(self, classifications):
        return CacheAnalysisResult(
            program_name="p",
            cache_config=CacheConfig.small(),
            speculation=SpeculationConfig.paper_default(),
            classifications=classifications,
        )

    def test_counts_split_normal_and_speculative(self):
        result = self._result(
            [
                _classification(index=0, must_hit=True),
                _classification(index=1, must_hit=False),
                _classification(index=2, must_hit=False, speculative=True, scenario_color=0),
            ]
        )
        assert result.access_count == 2
        assert result.hit_count == 1
        assert result.miss_count == 1
        assert result.speculative_miss_count == 1

    def test_speculative_miss_sites_deduplicated_across_colors(self):
        result = self._result(
            [
                _classification(index=5, must_hit=False, speculative=True, scenario_color=0),
                _classification(index=5, must_hit=False, speculative=True, scenario_color=1),
            ]
        )
        assert result.speculative_miss_count == 1

    def test_leak_detection_flags(self):
        clean = self._result([_classification(secret_indexed=True, secret_dependent=False)])
        leaky = self._result([_classification(secret_indexed=True, secret_dependent=True, must_hit=False)])
        assert not clean.leak_detected
        assert leaky.leak_detected
        assert len(leaky.secret_dependent_classifications()) == 1

    def test_site_sets(self):
        result = self._result(
            [
                _classification(index=0, must_hit=True),
                _classification(index=1, must_hit=False),
            ]
        )
        assert result.must_hit_sites() == {("bb", 0)}
        assert result.miss_sites() == {("bb", 1)}

    def test_is_speculative_flag(self):
        spec = self._result([])
        assert spec.is_speculative
        non_spec = CacheAnalysisResult(
            program_name="p", cache_config=CacheConfig.small(), speculation=None
        )
        assert not non_spec.is_speculative
        zero_depth = CacheAnalysisResult(
            program_name="p",
            cache_config=CacheConfig.small(),
            speculation=SpeculationConfig.no_speculation(),
        )
        assert not zero_depth.is_speculative

    def test_summary_mentions_side_channel_only_when_relevant(self):
        with_secret = self._result([_classification(secret_indexed=True, secret_dependent=True)])
        without_secret = self._result([_classification()])
        assert "side channel" in with_secret.summary()
        assert "side channel" not in without_secret.summary()


class TestDepthChooser:
    SOURCE = """
    char a[64]; char b[64]; char c[64]; char p;
    int main() {
      a[0]; p;
      if (p == 0) { b[0]; } else { c[0]; }
      a[0];
      return 0;
    }
    """

    def _setup(self, dynamic=True):
        program = compile_source(self.SOURCE)
        config = SpeculationConfig(
            depth_miss=200, depth_hit=2, dynamic_depth_bounding=dynamic
        )
        vcfg = build_vcfg(program.cfg, config)
        chooser = DepthChooser(config, program.layout)
        return program, vcfg, chooser

    def test_default_window_is_long(self):
        _, vcfg, chooser = self._setup()
        scenario = vcfg.scenarios[0]
        assert chooser.active_window(scenario) is scenario.window_miss

    def test_condition_must_hit_switches_to_short_window(self):
        program, vcfg, chooser = self._setup()
        scenario = vcfg.scenarios[0]
        state = ShadowCacheState.empty(64, program.layout.lanes).access_block(MemoryBlock("p", 0))
        window = chooser.choose(scenario, state)
        assert window.depth == 2

    def test_condition_possibly_missing_locks_long_window(self):
        program, vcfg, chooser = self._setup()
        scenario = vcfg.scenarios[0]
        empty = ShadowCacheState.empty(64, program.layout.lanes)
        window = chooser.choose(scenario, empty)
        assert window.depth == 200
        # Even if the condition later becomes a must hit, the long window is
        # kept (the switch is monotone in one direction only).
        cached = empty.access_block(MemoryBlock("p", 0))
        assert chooser.choose(scenario, cached).depth == 200

    def test_dynamic_bounding_disabled_always_long(self):
        program, vcfg, chooser = self._setup(dynamic=False)
        scenario = vcfg.scenarios[0]
        state = ShadowCacheState.empty(64, program.layout.lanes).access_block(MemoryBlock("p", 0))
        assert chooser.choose(scenario, state).depth == 200

    def test_bottom_state_is_optimistic(self):
        program, vcfg, chooser = self._setup()
        scenario = vcfg.scenarios[0]
        window = chooser.choose(scenario, ShadowCacheState.bottom(64, program.layout.lanes))
        assert window.depth == 2

    def test_stats_report_shortened_scenarios(self):
        program, vcfg, chooser = self._setup()
        state = ShadowCacheState.empty(64, program.layout.lanes).access_block(MemoryBlock("p", 0))
        for scenario in vcfg.scenarios:
            chooser.choose(scenario, state)
        stats = chooser.stats(vcfg.scenarios)
        assert stats.scenarios_total == len(vcfg.scenarios)
        assert stats.scenarios_shortened == len(vcfg.scenarios)
        assert stats.virtual_edges_active <= stats.virtual_edges_full
        assert stats.virtual_edges_removed >= 0

    def test_plain_state_also_supported(self):
        program, vcfg, chooser = self._setup()
        scenario = vcfg.scenarios[0]
        state = CacheState.empty(64, program.layout.lanes).access_block(MemoryBlock("p", 0))
        assert chooser.choose(scenario, state).depth == 2

    def test_import_state_inverts_export_state(self):
        program, vcfg, chooser = self._setup()
        short, locked = vcfg.scenarios[:2]
        empty = ShadowCacheState.empty(64, program.layout.lanes)
        cached = empty.access_block(MemoryBlock("p", 0))
        assert chooser.choose(short, cached).depth == 2
        assert chooser.choose(locked, empty).depth == 200
        restored = DepthChooser(chooser.config, program.layout)
        restored.import_state(
            *chooser.export_state(), {s.color: s for s in vcfg.scenarios}
        )
        assert restored.export_state() == chooser.export_state()
        assert restored.active_window(short) is short.window_hit
        # The locked color stays locked: a must-hit condition cannot
        # shorten its window again.
        assert restored.choose(locked, cached).depth == 200

    def test_import_state_rebinds_colors_and_drops_unmatched_depths(self):
        program, vcfg, chooser = self._setup()
        first, second = vcfg.scenarios[:2]
        # Exported colors 7 and 8 now stand for `second` and `first`; 8's
        # depth matches neither window, and a locked color is restored
        # only onto a long window.
        chooser.import_state(
            {7: 2, 8: 99, 9: 2}, frozenset({9}), {7: second, 8: first, 9: first}
        )
        assert chooser.active_window(second) is second.window_hit
        assert chooser.active_window(first) is first.window_miss
        assert chooser.export_state() == ({second.color: 2}, frozenset())
