"""Cache eviction and byte accounting (service memory bounding)."""

import numpy as np
import pytest

from repro.experiments import cache
from repro.telemetry import METRICS


@pytest.fixture(autouse=True)
def clean_store():
    cache.clear()
    yield
    cache.clear()


class TestByteAccounting:
    def test_numpy_entries_report_buffer_size(self):
        array = np.zeros(1000, dtype=np.uint64)  # 8000 B of payload
        cache.memoized("unit-test", "k", lambda: array)
        stats = cache.stats()
        assert stats.entries == 1
        assert 8000 <= stats.bytes <= 16000

    def test_nested_structures_counted_once(self):
        shared = np.zeros(500, dtype=np.uint64)
        value = {"a": shared, "b": [shared, {"c": shared}]}
        size = cache.estimate_bytes(value)
        # The 4000 B buffer is shared: it must not be triple-counted.
        assert 4000 <= size <= 8000

    def test_stats_bytes_sums_all_entries(self):
        cache.memoized("unit-test", "a", lambda: np.zeros(100, np.uint64))
        cache.memoized("unit-test", "b", lambda: np.zeros(100, np.uint64))
        assert cache.stats().bytes >= 1600
        assert cache.total_bytes() == cache.stats().bytes


class TestEviction:
    def test_evict_removes_and_counts(self):
        cache.memoized("unit-test", "victim", lambda: np.zeros(100, np.uint64))
        before = cache.stats()
        assert cache.evict("unit-test", "victim") is True
        after = cache.stats()
        assert after.entries == before.entries - 1
        assert after.evictions == before.evictions + 1
        assert after.bytes < before.bytes

    def test_evict_missing_key_is_noop(self):
        assert cache.evict("unit-test", "never-stored") is False
        assert cache.stats().evictions == 0

    def test_evicted_key_rebuilds_on_next_lookup(self):
        builds = {"n": 0}

        def builder():
            builds["n"] += 1
            return builds["n"]

        assert cache.memoized("unit-test", "k", builder) == 1
        assert cache.memoized("unit-test", "k", builder) == 1  # hit
        cache.evict("unit-test", "k")
        assert cache.memoized("unit-test", "k", builder) == 2  # rebuilt

    def test_clear_resets_eviction_counter(self):
        cache.memoized("unit-test", "k", lambda: 1)
        cache.evict("unit-test", "k")
        cache.clear()
        assert cache.stats().evictions == 0
        assert cache.stats().bytes == 0


class TestSizedOnRead:
    @pytest.fixture
    def sized(self, monkeypatch):
        calls = []
        real = cache.estimate_bytes

        def counting(value, *args):
            if not args:
                calls.append(value)
            return real(value, *args)

        monkeypatch.setattr(cache, "estimate_bytes", counting)
        return calls

    def test_storing_and_counting_never_size(self, sized):
        cache.memoized("unit-test", "a", lambda: np.zeros(100, np.uint64))
        cache.seed("unit-test", "b", np.zeros(50, np.uint64))
        assert cache.stats().misses == {"unit-test": 1}
        assert sized == []

    def test_each_entry_sized_once(self, sized):
        cache.memoized("unit-test", "a", lambda: np.zeros(100, np.uint64))
        cache.memoized("unit-test", "b", lambda: np.zeros(50, np.uint64))
        total = cache.total_bytes()
        assert len(sized) == 2
        assert cache.stats().bytes == total == cache.total_bytes()
        assert len(sized) == 2
        assert METRICS.snapshot()["gauges"]["cache.bytes"] == total

    def test_stats_bytes_is_a_snapshot(self):
        cache.memoized("unit-test", "a", lambda: np.zeros(100, np.uint64))
        before = cache.stats()
        cache.memoized("unit-test", "b", lambda: np.zeros(100, np.uint64))
        after = cache.stats()
        assert after.bytes > before.bytes
        assert cache.total_bytes() == after.bytes
        # Reading the older snapshot keeps the gauge on the live store.
        assert before.bytes < after.bytes
        assert METRICS.snapshot()["gauges"]["cache.bytes"] == after.bytes
