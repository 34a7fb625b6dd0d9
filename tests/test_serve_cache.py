"""The server's prediction cache: bounded, LRU-ordered, counted, disable-able.

`PredictionServer` keeps one `LRUCache` of `CachedPrediction` values per
`ServeKey`; these tests pin that contract down with the values the server
stores.
"""

import pytest

from repro import CachedPrediction, LRUCache


def entry(v: float, version: int = 1, seq: int = 0) -> CachedPrediction:
    return CachedPrediction(latency_s=v, model_version=version, batch_seq=seq)


class TestPredictionLRU:
    def test_get_put_round_trip(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", entry(1.5, version=3, seq=7))
        hit = cache.get("a")
        assert hit == CachedPrediction(1.5, 3, 7)
        assert hit.latency_s == 1.5
        assert "a" in cache and len(cache) == 1

    def test_counters(self):
        cache = LRUCache(maxsize=4)
        cache.get("missing")
        cache.put("a", entry(1.0))
        cache.get("a")
        cache.get("a")
        info = cache.info()
        assert (info.hits, info.misses) == (2, 1)
        assert info.hit_rate == pytest.approx(2 / 3)
        assert info.size == 1 and info.maxsize == 4

    def test_lru_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", entry(1.0))
        cache.put("b", entry(2.0))
        cache.get("a")  # refresh a; b is now least recently used
        cache.put("c", entry(3.0))
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_maxsize_zero_disables(self):
        cache = LRUCache(maxsize=0)
        cache.put("a", entry(1.0))
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_clear_keeps_counters(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", entry(1.0))
        cache.get("a")
        cache.clear()
        assert len(cache) == 0 and "a" not in cache
        assert cache.info().hits == 1

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            LRUCache(maxsize=-1)
