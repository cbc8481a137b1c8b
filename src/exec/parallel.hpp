// Deterministic data-parallel primitives over the shared ThreadPool.
//
// The contract both primitives enforce: the RESULT of a parallel scan
// is bit-identical for every thread count, because
//
//  * parallel_for hands each chunk a disjoint index range — outputs
//    go into per-row slots, so interleaving cannot reorder them;
//  * map_reduce stores one partial per chunk and folds them on the
//    calling thread IN CHUNK ORDER (asserted), so any merge that is
//    associative over adjacent chunks reproduces the serial
//    left-to-right fold exactly.
//
// What dynamic scheduling may change — which worker computes which
// chunk, and when — is invisible to both. Both time every chunk into
// the order-free exec.chunk_ns histogram (exec.busy_s in perfbench).
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "util/contract.hpp"

namespace xrpl::exec {

/// Number of `grain`-sized chunks covering `n` items.
[[nodiscard]] constexpr std::size_t chunk_count_for(std::size_t n,
                                                    std::size_t grain) noexcept {
    return grain == 0 ? 0 : (n + grain - 1) / grain;
}

namespace detail {
/// ThreadPool::shared().run(chunks, task) with each task timed into
/// exec.chunk_ns.
void run_timed_chunks(std::size_t chunks, const std::function<void(std::size_t)>& task);
}  // namespace detail

/// body(begin, end) over [0, n) in contiguous chunks of at most
/// `grain` items, in parallel on the shared pool. The body must write
/// only state owned by its range.
void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Chunk-local map + ordered associative merge. `map(c)` produces the
/// partial of chunk c on the pool; `reduce(acc, std::move(partial))`
/// folds partials into `init` on the calling thread, strictly in
/// chunk order 0, 1, ..., chunks-1.
template <typename Partial, typename Map, typename Reduce>
[[nodiscard]] Partial map_reduce(std::size_t chunks, Map&& map, Reduce&& reduce,
                                 Partial init = Partial{}) {
    std::vector<Partial> partials(chunks);
    detail::run_timed_chunks(chunks, [&](std::size_t c) { partials[c] = map(c); });
    std::size_t merged = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
        // Merge order IS the determinism contract: partial c folds in
        // exactly after partials 0..c-1, same as the serial scan.
        XRPL_INVARIANT(merged == c, "partials must merge in chunk order");
        reduce(init, std::move(partials[c]));
        ++merged;
    }
    return init;
}

}  // namespace xrpl::exec
