"""Tests for hotspot-skewed access patterns."""

import pytest

from repro.workloads.patterns import make_pattern


class TestHotspotPattern:
    def test_skew_concentrates_accesses(self):
        pattern = make_pattern(
            "randread", 4096, 1000 * 4096,
            hotspot_fraction=0.2, hotspot_weight=0.8, seed=5,
        )
        hot_limit = 200 * 4096
        hits = sum(1 for _, off in pattern.take(4000) if off < hot_limit)
        assert 0.75 < hits / 4000 < 0.85

    def test_default_pattern_is_uniform(self):
        pattern = make_pattern("randread", 4096, 1000 * 4096, seed=5)
        hot_limit = 200 * 4096
        hits = sum(1 for _, off in pattern.take(4000) if off < hot_limit)
        assert 0.15 < hits / 4000 < 0.25

    def test_hotspot_does_not_change_sequential(self):
        pattern = make_pattern(
            "read", 4096, 4 * 4096,
            hotspot_fraction=0.5, hotspot_weight=0.9,
        )
        offsets = [off for _, off in pattern.take(4)]
        assert offsets == [0, 4096, 8192, 12288]

    def test_validation(self):
        with pytest.raises(ValueError):
            make_pattern("randread", 4096, 1 << 20, hotspot_fraction=0.2)
        with pytest.raises(ValueError):
            make_pattern("randread", 4096, 1 << 20, hotspot_weight=0.5)
        with pytest.raises(ValueError):
            make_pattern(
                "randread", 4096, 1 << 20,
                hotspot_fraction=1.0, hotspot_weight=0.5,
            )

    def test_cold_region_still_reachable(self):
        pattern = make_pattern(
            "randwrite", 4096, 100 * 4096,
            hotspot_fraction=0.1, hotspot_weight=0.9, seed=2,
        )
        offsets = {off for _, off in pattern.take(2000)}
        assert any(off >= 10 * 4096 for off in offsets)
