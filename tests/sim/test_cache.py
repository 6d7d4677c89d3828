"""Cache model tests, including the LRU stack property."""

from hypothesis import given, settings, strategies as st

from repro.sim.cache import (
    Cache,
    CacheConfig,
    lru_hits,
    simulate_cache,
    sweep_cache_sizes,
)


class TestBasicBehaviour:
    def test_first_access_misses(self):
        cache = Cache(CacheConfig(1024, 32, 2))
        assert cache.access(0) is False

    def test_same_line_hits(self):
        cache = Cache(CacheConfig(1024, 32, 2))
        cache.access(0)
        assert cache.access(4) is True  # same 32-byte line
        assert cache.access(31) is True

    def test_next_line_misses(self):
        cache = Cache(CacheConfig(1024, 32, 2))
        cache.access(0)
        assert cache.access(32) is False

    def test_lru_eviction_order(self):
        # Direct-mapped-by-set: 2 ways, force 3 lines into one set.
        config = CacheConfig(size_bytes=64 * 2, line_bytes=32, associativity=2)
        cache = Cache(config)
        num_sets = config.num_sets
        stride = 32 * num_sets  # same set every time
        cache.access(0)
        cache.access(stride)
        cache.access(2 * stride)  # evicts line 0 (LRU)
        assert cache.access(stride) is True
        assert cache.access(0) is False

    def test_lru_refresh_on_hit(self):
        config = CacheConfig(size_bytes=64 * 2, line_bytes=32, associativity=2)
        cache = Cache(config)
        stride = 32 * config.num_sets
        cache.access(0)
        cache.access(stride)
        cache.access(0)  # refresh: line 0 becomes MRU
        cache.access(2 * stride)  # evicts `stride`, not 0
        assert cache.access(0) is True

    def test_counters(self):
        cache = Cache(CacheConfig(1024, 32, 2))
        for addr in (0, 0, 32, 0):
            cache.access(addr)
        assert cache.hits == 2
        assert cache.misses == 2
        assert cache.hit_rate == 0.5


class TestStridePatterns:
    """Table I's foundation: stride s over a huge array misses s/32."""

    def _miss_rate(self, stride_bytes: int) -> float:
        cache = Cache(CacheConfig(8 * 1024, 32, 4))
        address = 0
        span = 1 << 22  # far larger than the cache
        for _ in range(20000):
            cache.access(address % span)
            address += stride_bytes
        return cache.miss_rate

    def test_stride_zero_always_hits(self):
        assert self._miss_rate(0) < 0.01

    def test_stride_4_misses_one_in_eight(self):
        assert abs(self._miss_rate(4) - 0.125) < 0.01

    def test_stride_16_misses_half(self):
        assert abs(self._miss_rate(16) - 0.5) < 0.01

    def test_stride_32_always_misses(self):
        assert self._miss_rate(32) > 0.99


class TestSweep:
    def test_sweep_returns_all_sizes(self):
        addrs = list(range(0, 4096, 4))
        rates = sweep_cache_sizes(addrs, [1024, 2048, 4096])
        assert set(rates) == {1024, 2048, 4096}

    def test_working_set_knee(self):
        """Miss rate collapses once the cache covers the working set."""
        working_set = list(range(0, 8 * 1024, 4)) * 8  # 8KB, re-walked
        rates = sweep_cache_sizes(working_set, [2 * 1024, 16 * 1024])
        miss_small = 1.0 - rates[2 * 1024]
        miss_large = 1.0 - rates[16 * 1024]
        assert miss_small > 5 * miss_large  # ~8x fewer misses past the knee

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 1 << 16), min_size=10, max_size=300),
        st.sampled_from([1024, 2048, 4096]),
    )
    def test_hit_rate_monotonic_in_size_fully_assoc(self, addrs, size):
        """LRU inclusion property: bigger fully-associative cache never
        hits less (classic stack property of LRU)."""
        small = CacheConfig(size, 32, size // 32)  # fully associative
        big = CacheConfig(size * 2, 32, size * 2 // 32)
        small_hits = simulate_cache(addrs, small).hits
        big_hits = simulate_cache(addrs, big).hits
        assert big_hits >= small_hits

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 1 << 14), min_size=1, max_size=200))
    def test_counters_sum_to_accesses(self, addrs):
        cache = simulate_cache(addrs, CacheConfig(2048, 32, 4))
        assert cache.hits + cache.misses == len(addrs)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 1 << 18), min_size=0, max_size=400),
        st.sampled_from([16, 32, 64]),
        st.sampled_from([1, 2, 4, 8]),
    )
    def test_sweep_matches_per_config_cache_replay(self, addrs, line,
                                                   assoc):
        """Pin the sweep against a per-config :class:`Cache` replay of
        the same stream — hit rates must agree exactly for every size."""
        sizes = [512, 2048, 8192, 64 * 1024]
        swept = sweep_cache_sizes(addrs, sizes, line_bytes=line,
                                  associativity=assoc)
        for size in sizes:
            cache = simulate_cache(addrs, CacheConfig(size, line, assoc))
            assert swept[size] == cache.hit_rate, (size, line, assoc)

    def test_sweep_empty_stream_reports_unit_hit_rate(self):
        assert sweep_cache_sizes([], [1024]) == {1024: 1.0}


# Address streams with runs of same-line repeats, so the primitive's
# ``line == last`` fast path is exercised as well as the set lookup.  A
# 4 KB footprint keeps lines coming back after evictions.
_runs = st.lists(
    st.tuples(st.integers(0, 1 << 12), st.integers(1, 4)), max_size=150,
).map(lambda runs: [addr + step for addr, n in runs for step in range(n)])


class TestLruHits:
    @settings(max_examples=60, deadline=None)
    @given(
        _runs,
        st.sampled_from([16, 32, 64]),
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([256, 1024, 4096, 32 * 1024]),
    )
    def test_matches_cache_access_sequence(self, addrs, line, assoc, size):
        """Bit for bit the sequence of :meth:`Cache.access` returns."""
        config = CacheConfig(size, line, assoc)
        cache = Cache(config)
        expected = bytearray(cache.access(addr) for addr in addrs)
        assert lru_hits(addrs, config) == expected

    def test_repeats_hit_and_keep_lru_order(self):
        # 2-way, one set: A B B B C evicts A, then A evicts B.
        config = CacheConfig(64, 32, 2)
        assert list(lru_hits([0, 32, 36, 40, 64, 0, 32], config)) == [
            0, 0, 1, 1, 0, 0, 0]


class TestLatencyHistogram:
    def test_record_latency_populates_histogram(self):
        cache = Cache(CacheConfig(1024, 32, 2))
        for cycles in (2, 2, 12, 120):
            cache.record_latency(cycles)
        data = cache.latency_hist.snapshot_data()
        assert data["count"] == 4
        assert data["min"] == 2
        assert data["max"] == 120
        assert sum(data["buckets"].values()) == 4

    def test_reset_clears_histogram(self):
        cache = Cache(CacheConfig(1024, 32, 2))
        cache.record_latency(5)
        cache.reset()
        assert cache.latency_hist.count == 0
