#include "exec/parallel.hpp"

#include "obs/phase.hpp"

namespace xrpl::exec {

namespace {

/// Chunk c of [0, n): [c * grain, min((c + 1) * grain, n)).
std::pair<std::size_t, std::size_t> chunk_bounds(std::size_t c, std::size_t n,
                                                 std::size_t grain) noexcept {
    const std::size_t begin = c * grain;
    return {begin, begin + grain < n ? begin + grain : n};
}

}  // namespace

void detail::run_chunks(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& task) {
    XRPL_ASSERT(n == 0 || grain > 0, "a non-empty range needs a positive grain");
    static obs::Histogram& chunk_ns = obs::histogram("exec.chunk_ns");
    const std::size_t chunks = chunk_count_for(n, grain);
    ThreadPool::shared().run(chunks, [&](std::size_t c) {
        const auto [begin, end] = chunk_bounds(c, n, grain);
        // Every ordered merge downstream assumes the chunks partition
        // the range: chunk 0 starts it, none is empty, each chunk ends
        // where the next starts and the last ends it.
        XRPL_INVARIANT(begin < end && (c > 0 || begin == 0),
                       "chunks must be non-empty, the first starting the range");
        XRPL_INVARIANT(end == (c + 1 < chunks ? chunk_bounds(c + 1, n, grain).first : n),
                       "chunks must be contiguous and cover the range");
        // A histogram, not a phase: workers record concurrently and a
        // histogram is order-free, so the snapshot stays deterministic.
        // analyze-shared: order-free histogram; record() is striped-atomic
        const obs::ScopedTimer timer(chunk_ns);
        task(c, begin, end);
    });
}

void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
    detail::run_chunks(n, grain,
                       [&](std::size_t, std::size_t begin, std::size_t end) {
                           body(begin, end);
                       });
}

}  // namespace xrpl::exec
