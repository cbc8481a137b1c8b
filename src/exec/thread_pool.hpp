// The shared worker pool — the ONLY place this repo spawns threads
// (tools/lint.py bans raw std::thread / std::async everywhere else).
//
// Design constraints, in priority order:
//
//  1. Determinism is delegated, not provided: the pool schedules task
//     indices dynamically (whichever worker is free grabs the next
//     one), so callers MUST write results into per-index slots and
//     merge them in index order. exec::map_reduce packages that
//     contract; nothing downstream should touch run() directly unless
//     it writes disjoint output.
//  2. The calling thread participates: run() drains its own batch, so
//     a pool of parallelism 1 spawns zero workers and executes
//     serially in the caller — XRPL_THREADS=1 is genuinely
//     single-threaded, and nested run() calls (a task fanning out
//     again) can never deadlock waiting for a free worker.
//  3. All bookkeeping sits behind one mutex. Chunks are thousands of
//     rows, so a lock per claimed index is noise — and it keeps the
//     pool boring under ThreadSanitizer.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace xrpl::exec {

class ThreadPool {
public:
    /// A pool of total parallelism `parallelism` (the calling thread
    /// plus `parallelism - 1` workers, spawned immediately).
    explicit ThreadPool(std::size_t parallelism);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Total parallelism (workers + the participating caller).
    [[nodiscard]] std::size_t parallelism() const noexcept {
        return parallelism_;
    }

    /// Execute task(0) .. task(count - 1), each exactly once, and
    /// return when all have finished. Task indices are claimed
    /// dynamically; completion order is unspecified. The first
    /// exception a task throws is rethrown here (remaining tasks
    /// still run). Tasks may call run() themselves.
    void run(std::size_t count, const std::function<void(std::size_t)>& task);

    /// The process-wide pool, created on first use with parallelism
    /// util::options().threads (XRPL_THREADS, defaulting to
    /// hardware_concurrency()).
    [[nodiscard]] static ThreadPool& shared();

private:
    friend class ScopedParallelism;

    struct Batch {
        const std::function<void(std::size_t)>* task = nullptr;
        std::size_t count = 0;
        std::size_t next = 0;  // next unclaimed index   (guarded by mutex_)
        std::size_t done = 0;  // finished tasks         (guarded by mutex_)
        std::exception_ptr error;  // first failure      (guarded by mutex_)
    };

    void worker_loop();
    /// Claim and execute one task of `batch`; `lock` is held on entry
    /// and exit, released around the task body.
    void execute_one(std::unique_lock<std::mutex>& lock,
                     const std::shared_ptr<Batch>& batch);

    std::size_t parallelism_;
    std::mutex mutex_;
    std::condition_variable work_cv_;  // workers: a batch arrived / shutdown
    std::condition_variable done_cv_;  // callers: a batch completed
    std::vector<std::shared_ptr<Batch>> active_;  // batches with unclaimed work
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

/// RAII override of the shared pool's parallelism, for tests and the
/// bench thread-count sweep. While alive, ThreadPool::shared() returns
/// a private pool of the requested width; overrides nest.
class ScopedParallelism {
public:
    explicit ScopedParallelism(std::size_t parallelism);
    ~ScopedParallelism();

    ScopedParallelism(const ScopedParallelism&) = delete;
    ScopedParallelism& operator=(const ScopedParallelism&) = delete;

private:
    std::unique_ptr<ThreadPool> pool_;
    ThreadPool* previous_;
};

}  // namespace xrpl::exec
