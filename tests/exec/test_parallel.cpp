// parallel_for / map_reduce: one partition of the range for both, full
// index coverage, disjoint writes, and the ordered-merge contract
// (partials fold strictly in chunk order — the property every
// deterministic scan in the repo leans on).
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <utility>
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
    const std::uint64_t total = map_reduce<std::uint64_t>(
        kCount, 128,
        [](std::size_t begin, std::size_t end) {
            std::uint64_t sum = 0;
            for (std::size_t i = begin; i < end; ++i) sum += i;
            return sum;
        },
        [](std::uint64_t& acc, std::uint64_t&& part) { acc += part; });
    EXPECT_EQ(total, kCount * (kCount - 1) / 2);
}

// The partition cases: the (begin, end) pairs map_reduce hands out, in
// merge order, must be exactly the chunks parallel_for(n, grain) gets.
using Chunks = std::vector<std::pair<std::size_t, std::size_t>>;

Chunks reduced_chunks(std::size_t n, std::size_t grain) {
    return map_reduce<Chunks>(
        n, grain,
        [](std::size_t begin, std::size_t end) { return Chunks{{begin, end}}; },
        [](Chunks& acc, Chunks&& part) {
            acc.insert(acc.end(), part.begin(), part.end());
        });
}

Chunks for_chunks(std::size_t n, std::size_t grain) {
    Chunks seen(chunk_count_for(n, grain));
    parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
        seen[begin / grain] = {begin, end};
    });
    return seen;
}

TEST(ParallelTest, PartitionsExactlyWithRemainder) {
    ScopedParallelism pool(4);
    EXPECT_EQ(reduced_chunks(25, 10), (Chunks{{0, 10}, {10, 20}, {20, 25}}));
    EXPECT_EQ(for_chunks(25, 10), reduced_chunks(25, 10));
}

TEST(ParallelTest, ExactMultipleHasNoRaggedTail) {
    ScopedParallelism pool(4);
    EXPECT_EQ(reduced_chunks(30, 10), (Chunks{{0, 10}, {10, 20}, {20, 30}}));
    EXPECT_EQ(for_chunks(30, 10), reduced_chunks(30, 10));
}

TEST(ParallelTest, EmptyRangeHasNoChunks) {
    ScopedParallelism pool(4);
    EXPECT_TRUE(reduced_chunks(0, 10).empty());
    EXPECT_TRUE(for_chunks(0, 10).empty());
}

TEST(ParallelTest, MapReduceMergesInChunkOrder) {
    // The merge sequence must be 0, 1, ..., k-1 regardless of which
    // worker finished first — concatenation makes any reordering
    // visible.
    ScopedParallelism pool(8);
    constexpr std::size_t kChunks = 64;
    const std::vector<std::size_t> order = map_reduce<std::vector<std::size_t>>(
        kChunks, 1,
        [](std::size_t begin, std::size_t) { return std::vector<std::size_t>{begin}; },
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
        kChunks, 1, [](std::size_t begin, std::size_t) { return begin; },
        [](std::size_t& acc, std::size_t&& part) { acc += part; });
    const std::uint64_t reduce_samples = chunk_ns.count();
    parallel_for(100, 10, [](std::size_t, std::size_t) {});
    const std::uint64_t for_samples = chunk_ns.count() - reduce_samples;
    obs::set_enabled(was_enabled);
    EXPECT_EQ(total, kChunks * (kChunks - 1) / 2);
    EXPECT_EQ(reduce_samples, kChunks);
    EXPECT_EQ(for_samples, 10u);
}

TEST(ParallelTest, MapReduceEmptyRangeReturnsAnEmptyPartial) {
    bool mapped = false;
    const int result = map_reduce<int>(
        0, 8,
        [&](std::size_t, std::size_t) {
            mapped = true;
            return 1;
        },
        [](int& acc, int&& p) { acc += p; });
    EXPECT_EQ(result, 0);
    EXPECT_FALSE(mapped);
}

}  // namespace
}  // namespace xrpl::exec
