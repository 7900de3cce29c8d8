"""Kernel rendering names: the vocabulary the scalar/vectorized seams accept."""

import pytest

from repro.kernels.tiers import TIERS, resolve_tier


class TestSelection:
    def test_aliases_map_to_canonical_tiers(self):
        assert resolve_tier("batched") == "vectorized"
        assert resolve_tier("event") == "scalar"
        assert resolve_tier("auto") == "vectorized"
        assert resolve_tier(None) == "vectorized"
        for tier in TIERS:
            assert resolve_tier(tier) == tier

    def test_unknown_tier_raises(self):
        for name in ("simd", "compiled", "", 3):
            with pytest.raises(ValueError):
                resolve_tier(name)
