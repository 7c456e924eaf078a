"""Shard-map determinism tests (``repro.service.sharding``)."""

from collections import Counter

import pytest

from repro.service import ShardMap, shard_for_area


class TestShardForArea:
    def test_pinned_assignments(self):
        # Frozen expectations: the map must never drift across releases,
        # processes, or platforms (it is BLAKE2b, not the salted built-in
        # hash), because replicas route areas independently.
        assert shard_for_area("area-0", 4) == 3
        assert shard_for_area("area-1", 4) == 2
        assert shard_for_area("la-1", 4) == 2
        assert shard_for_area(7, 4) == 2

    def test_range_and_determinism(self):
        for num_shards in (1, 2, 3, 7, 16):
            for area in ("a", "b", "area-42", 0, 123, ("la", 9)):
                shard = shard_for_area(area, num_shards)
                assert 0 <= shard < num_shards
                assert shard_for_area(area, num_shards) == shard

    def test_int_and_repr_string_agree(self):
        assert shard_for_area(7, 8) == shard_for_area("7", 8)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_for_area("a", 0)

    def test_loads_are_roughly_balanced(self):
        areas = [f"area-{index}" for index in range(4000)]
        loads = Counter(shard_for_area(area, 4) for area in areas)
        assert sorted(loads) == [0, 1, 2, 3]
        for load in loads.values():
            assert 800 < load < 1200


class TestShardMap:
    def test_matches_pure_function_and_memoizes(self):
        shard_map = ShardMap(4)
        for area in ("a", "b", "a", 17):
            assert shard_map(area) == shard_for_area(area, 4)
        # one memo entry per distinct area, in first-seen order
        assert list(shard_map._memo.items()) == [
            (area, shard_for_area(area, 4)) for area in ("a", "b", 17)
        ]

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            ShardMap(0)
