// Deterministic data-parallel primitives over the shared ThreadPool.
//
// The contract both primitives enforce: the RESULT of a parallel scan
// is bit-identical for every thread count, because
//
//  * both cut [0, n) into the same chunks: contiguous runs of at most
//    `grain` items, fixed by n and the grain, never by the thread
//    count (one helper in parallel.cpp computes them, and checks that
//    they are contiguous, non-empty and cover the range);
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

/// Default rows per chunk. Large enough that per-chunk hash maps and
/// scheduling amortize to noise (a task is ~8k rows of hashing, a
/// claim is one mutex round-trip), small enough that the default
/// 250k-payment bench dataset still splits ~31 ways. The chunk count
/// bounds one scan's parallelism; it does not keep the workers busy:
/// serial work between scans idles them, which perfbench reports as
/// exec.utilisation.
inline constexpr std::size_t kDefaultChunkRows = 8192;

/// Number of `grain`-sized chunks covering `n` items.
[[nodiscard]] constexpr std::size_t chunk_count_for(std::size_t n,
                                                    std::size_t grain) noexcept {
    return grain == 0 ? 0 : (n + grain - 1) / grain;
}

namespace detail {
/// task(c, begin, end) for every chunk c of [0, n) on the shared
/// pool, each timed into exec.chunk_ns.
void run_chunks(std::size_t n, std::size_t grain,
                const std::function<void(std::size_t, std::size_t, std::size_t)>& task);
}  // namespace detail

/// body(begin, end) over [0, n) in contiguous chunks of at most
/// `grain` items, in parallel on the shared pool. The body must write
/// only state owned by its range.
void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Chunk-local map + ordered associative merge over the chunks
/// parallel_for(n, grain, ...) gets. `map(begin, end)` produces one
/// chunk's partial on the pool; on the calling thread the first
/// chunk's partial seeds the fold and `reduce(acc, std::move(partial))`
/// folds each later one into it, strictly in chunk order 1, 2, ...,
/// chunks-1. An empty range returns Partial{}.
template <typename Partial, typename Map, typename Reduce>
[[nodiscard]] Partial map_reduce(std::size_t n, std::size_t grain, Map&& map,
                                 Reduce&& reduce) {
    std::vector<Partial> partials(chunk_count_for(n, grain));
    detail::run_chunks(n, grain,
                       [&](std::size_t c, std::size_t begin, std::size_t end) {
                           partials[c] = map(begin, end);
                       });
    if (partials.empty()) return Partial{};
    Partial acc = std::move(partials[0]);
    std::size_t merged = 1;
    for (std::size_t c = 1; c < partials.size(); ++c) {
        // Merge order IS the determinism contract: partial c folds in
        // exactly after partials 0..c-1, same as the serial scan.
        XRPL_INVARIANT(merged == c, "partials must merge in chunk order");
        reduce(acc, std::move(partials[c]));
        ++merged;
    }
    return acc;
}

}  // namespace xrpl::exec
