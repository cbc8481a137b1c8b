// parallel_for / map_reduce: full index coverage, disjoint writes,
// and the ordered-merge contract (partials fold strictly in chunk
// order — the property every deterministic scan in the repo leans on).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace xrpl::exec {
namespace {

TEST(ParallelTest, ChunkCountForCoversEverything) {
    EXPECT_EQ(chunk_count_for(0, 8), 0u);
    EXPECT_EQ(chunk_count_for(1, 8), 1u);
    EXPECT_EQ(chunk_count_for(8, 8), 1u);
    EXPECT_EQ(chunk_count_for(9, 8), 2u);
    EXPECT_EQ(chunk_count_for(5, 0), 0u);
}

TEST(ParallelTest, ParallelForWritesEveryIndexOnce) {
    ScopedParallelism pool(4);
    constexpr std::size_t kCount = 5000;
    std::vector<std::uint32_t> hits(kCount, 0);
    parallel_for(kCount, 64, [&](std::size_t begin, std::size_t end) {
        EXPECT_LE(end - begin, 64u);
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(hits[i], 1u) << "index " << i;
    }
}

TEST(ParallelTest, MapReduceSumsAllChunks) {
    ScopedParallelism pool(4);
    constexpr std::size_t kCount = 10'000;
    const std::size_t chunks = chunk_count_for(kCount, 128);
    const std::uint64_t total = map_reduce<std::uint64_t>(
        chunks,
        [&](std::size_t c) {
            const std::size_t begin = c * 128;
            const std::size_t end = std::min(begin + 128, kCount);
            std::uint64_t sum = 0;
            for (std::size_t i = begin; i < end; ++i) sum += i;
            return sum;
        },
        [](std::uint64_t& acc, std::uint64_t&& part) { acc += part; });
    EXPECT_EQ(total, kCount * (kCount - 1) / 2);
}

TEST(ParallelTest, MapReduceMergesInChunkOrder) {
    // The merge sequence must be 0, 1, ..., k-1 regardless of which
    // worker finished first — concatenation makes any reordering
    // visible.
    ScopedParallelism pool(8);
    constexpr std::size_t kChunks = 64;
    const std::vector<std::size_t> order = map_reduce<std::vector<std::size_t>>(
        kChunks,
        [](std::size_t c) { return std::vector<std::size_t>{c}; },
        [](std::vector<std::size_t>& acc, std::vector<std::size_t>&& part) {
            acc.insert(acc.end(), part.begin(), part.end());
        });
    std::vector<std::size_t> expected(kChunks);
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_EQ(order, expected);
}

TEST(ParallelTest, MapReduceTimesEveryChunk) {
    // exec.busy_s sums exec.chunk_ns, so a map_reduce must record one
    // sample per chunk, as parallel_for does.
    ScopedParallelism pool(4);
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    obs::Histogram& chunk_ns = obs::histogram("exec.chunk_ns");
    chunk_ns.reset();
    constexpr std::size_t kChunks = 37;
    const std::size_t total = map_reduce<std::size_t>(
        kChunks, [](std::size_t c) { return c; },
        [](std::size_t& acc, std::size_t&& part) { acc += part; });
    const std::uint64_t reduce_samples = chunk_ns.count();
    parallel_for(100, 10, [](std::size_t, std::size_t) {});
    const std::uint64_t for_samples = chunk_ns.count() - reduce_samples;
    obs::set_enabled(was_enabled);
    EXPECT_EQ(total, kChunks * (kChunks - 1) / 2);
    EXPECT_EQ(reduce_samples, kChunks);
    EXPECT_EQ(for_samples, 10u);
}

TEST(ParallelTest, MapReduceZeroChunksReturnsInit) {
    const int result = map_reduce<int>(
        0, [](std::size_t) { return 1; }, [](int& acc, int&& p) { acc += p; },
        42);
    EXPECT_EQ(result, 42);
}

}  // namespace
}  // namespace xrpl::exec
