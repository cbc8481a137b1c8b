#include "exec/parallel.hpp"

#include "obs/phase.hpp"

namespace xrpl::exec {

void detail::run_timed_chunks(std::size_t chunks,
                              const std::function<void(std::size_t)>& task) {
    static obs::Histogram& chunk_ns = obs::histogram("exec.chunk_ns");
    ThreadPool::shared().run(chunks, [&](std::size_t c) {
        // A histogram, not a phase: workers record concurrently and a
        // histogram is order-free, so the snapshot stays deterministic.
        // analyze-shared: order-free histogram; record() is striped-atomic
        const obs::ScopedTimer timer(chunk_ns);
        task(c);
    });
}

void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
    detail::run_timed_chunks(chunk_count_for(n, grain), [&](std::size_t c) {
        const std::size_t begin = c * grain;
        const std::size_t end = begin + grain < n ? begin + grain : n;
        body(begin, end);
    });
}

}  // namespace xrpl::exec
