#include "exec/thread_pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/contract.hpp"
#include "util/options.hpp"

namespace xrpl::exec {

namespace {

// The shared pool and its test override live behind one mutex; the
// pointers are read once per run() call, so contention is noise.
// analyze-shared: guards the one sanctioned singleton (the shared pool)
std::mutex g_shared_mutex;
std::unique_ptr<ThreadPool>& shared_slot() {
    static std::unique_ptr<ThreadPool> pool;
    return pool;
}
// analyze-shared: ScopedParallelism test hook; reads/writes hold g_shared_mutex
ThreadPool* g_override = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t parallelism)
    : parallelism_(std::max<std::size_t>(parallelism, 1)) {
    workers_.reserve(parallelism_ - 1);
    for (std::size_t i = 0; i + 1 < parallelism_; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        // Batches drain before their run() returns, so nothing can be
        // in flight when the owner destroys the pool.
        XRPL_ASSERT(active_.empty(), "thread pool destroyed with active batches");
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::execute_one(std::unique_lock<std::mutex>& lock,
                             const std::shared_ptr<Batch>& batch) {
    const std::size_t index = batch->next++;
    if (batch->next == batch->count) {
        // Last index claimed: nobody else should pick this batch up.
        std::erase(active_, batch);
    }
    lock.unlock();
    std::exception_ptr error;
    try {
        (*batch->task)(index);
    } catch (...) {
        error = std::current_exception();
    }
    lock.lock();
    if (error && !batch->error) batch->error = error;
    if (++batch->done == batch->count) done_cv_.notify_all();
}

void ThreadPool::worker_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_cv_.wait(lock, [this] { return stopping_ || !active_.empty(); });
        if (active_.empty()) return;  // stopping_, nothing left to help with
        // Copy, not reference: execute_one erases the vector element
        // when it claims the batch's last index.
        const std::shared_ptr<Batch> batch = active_.front();
        execute_one(lock, batch);
    }
}

void ThreadPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& task) {
    if (count == 0) return;
    static obs::Counter& batches = obs::counter("exec.batches");
    static obs::Counter& tasks = obs::counter("exec.tasks");
    batches.add();
    tasks.add(count);
    if (workers_.empty() || count == 1) {
        // Serial fast path: no queueing, no locks — XRPL_THREADS=1 is
        // exactly the plain loop.
        static obs::Counter& serial = obs::counter("exec.batches_serial");
        serial.add();
        for (std::size_t i = 0; i < count; ++i) task(i);
        return;
    }

    const auto batch = std::make_shared<Batch>();
    batch->task = &task;
    batch->count = count;

    std::unique_lock<std::mutex> lock(mutex_);
    active_.push_back(batch);
    // Depth of the shared queue at submission — a live view of how
    // much nested fan-out is stacking up behind this batch.
    static obs::Gauge& depth = obs::gauge("exec.queue_depth");
    depth.set(static_cast<std::int64_t>(active_.size()));
    work_cv_.notify_all();
    // Drain our own batch: guarantees forward progress even when every
    // worker is busy (or executing the task that called us).
    while (batch->next < batch->count) execute_one(lock, batch);
    done_cv_.wait(lock, [&] { return batch->done == batch->count; });
    if (batch->error) {
        const std::exception_ptr error = batch->error;
        lock.unlock();
        std::rethrow_exception(error);
    }
}

ThreadPool& ThreadPool::shared() {
    const std::lock_guard<std::mutex> lock(g_shared_mutex);
    if (g_override != nullptr) return *g_override;
    std::unique_ptr<ThreadPool>& pool = shared_slot();
    if (!pool) pool = std::make_unique<ThreadPool>(util::options().threads);
    return *pool;
}

ScopedParallelism::ScopedParallelism(std::size_t parallelism)
    : pool_(std::make_unique<ThreadPool>(parallelism)) {
    const std::lock_guard<std::mutex> lock(g_shared_mutex);
    previous_ = g_override;
    g_override = pool_.get();
}

ScopedParallelism::~ScopedParallelism() {
    const std::lock_guard<std::mutex> lock(g_shared_mutex);
    XRPL_ASSERT(g_override == pool_.get(),
                "ScopedParallelism overrides must unwind in LIFO order");
    g_override = previous_;
}

}  // namespace xrpl::exec
