// ThreadPool semantics: exactly-once execution, caller participation,
// nesting, exception propagation, the scoped width override, and the
// XRPL_THREADS knob that sizes the shared pool. The stress cases exist
// for the tsan preset — tools/tier2.sh runs this suite under
// ThreadSanitizer, where any bookkeeping race in the pool would
// surface.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"
#include "util/options.hpp"

namespace xrpl::exec {
namespace {

TEST(ThreadPoolTest, ExecutesEachIndexExactlyOnce) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.parallelism(), 4u);

    constexpr std::size_t kCount = 10'000;
    std::vector<std::atomic<std::uint32_t>> hits(kCount);
    pool.run(kCount, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
    }
}

TEST(ThreadPoolTest, ParallelismOneSpawnsNoWorkers) {
    // A width-1 pool executes everything inline on the calling thread
    // — XRPL_THREADS=1 must be genuinely serial.
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::size_t executed = 0;
    pool.run(100, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++executed;  // safe: single-threaded by construction
    });
    EXPECT_EQ(executed, 100u);
}

TEST(ThreadPoolTest, ZeroCountIsANoOp) {
    ThreadPool pool(2);
    pool.run(0, [&](std::size_t) { FAIL() << "task ran for count == 0"; });
}

TEST(ThreadPoolTest, NestedRunDoesNotDeadlock) {
    // A task fanning out again drains its own inner batch, so even a
    // fully-occupied pool makes progress.
    ThreadPool pool(2);
    std::atomic<std::uint64_t> total{0};
    pool.run(8, [&](std::size_t) {
        pool.run(8, [&](std::size_t) { ++total; });
    });
    EXPECT_EQ(total.load(), 64u);
}

TEST(ThreadPoolTest, FirstExceptionPropagatesAndAllTasksRun) {
    ThreadPool pool(4);
    std::atomic<std::uint32_t> executed{0};
    EXPECT_THROW(
        pool.run(64,
                 [&](std::size_t i) {
                     ++executed;
                     if (i == 13) throw std::runtime_error("task 13 failed");
                 }),
        std::runtime_error);
    // A failure poisons the batch's result, not its schedule.
    EXPECT_EQ(executed.load(), 64u);
}

TEST(ThreadPoolTest, StressManySmallBatches) {
    // tsan fodder: rapid-fire batches keep workers racing on the
    // claim/done bookkeeping.
    ThreadPool pool(8);
    for (std::size_t round = 0; round < 200; ++round) {
        std::vector<std::uint64_t> out(17, 0);
        pool.run(out.size(), [&](std::size_t i) { out[i] = i * i; });
        for (std::size_t i = 0; i < out.size(); ++i) {
            ASSERT_EQ(out[i], i * i);
        }
    }
}

TEST(ThreadPoolTest, ScopedParallelismOverridesSharedPool) {
    {
        ScopedParallelism narrow(1);
        EXPECT_EQ(ThreadPool::shared().parallelism(), 1u);
        {
            ScopedParallelism wide(8);
            EXPECT_EQ(ThreadPool::shared().parallelism(), 8u);
        }
        EXPECT_EQ(ThreadPool::shared().parallelism(), 1u);
    }
}

TEST(ThreadPoolTest, ConfiguredParallelismParsesXrplThreads) {
    // The shared pool is as wide as the process's parsed XRPL_THREADS.
    EXPECT_EQ(ThreadPool::shared().parallelism(), util::options().threads);

    // The suite may run under an XRPL_THREADS pin; restore it after.
    const char* pinned = std::getenv("XRPL_THREADS");
    const std::optional<std::string> saved =
        pinned != nullptr ? std::optional<std::string>(pinned) : std::nullopt;

    ::setenv("XRPL_THREADS", "3", 1);
    EXPECT_EQ(util::Options::from_env().threads, 3u);

    // Malformed and zero values fall back to the hardware default.
    ::unsetenv("XRPL_THREADS");
    const std::size_t hardware = util::Options::from_env().threads;
    EXPECT_GE(hardware, 1u);
    for (const char* threads : {"0", "4cores", "-2"}) {
        ::setenv("XRPL_THREADS", threads, 1);
        EXPECT_EQ(util::Options::from_env().threads, hardware) << threads;
    }

    if (saved) {
        ::setenv("XRPL_THREADS", saved->c_str(), 1);
    } else {
        ::unsetenv("XRPL_THREADS");
    }
}

}  // namespace
}  // namespace xrpl::exec
