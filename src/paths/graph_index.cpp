#include "paths/graph_index.hpp"

#include <algorithm>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "util/contract.hpp"

namespace xrpl::paths {

namespace {

/// lower_bound order of the currency-sorted partition list.
bool currency_below(const GraphIndex::Partition& part,
                    ledger::Currency currency) noexcept {
    return part.currency < currency;
}

}  // namespace

void GraphIndex::build(const ledger::LedgerState& ledger) {
    const auto account_count =
        static_cast<std::uint32_t>(ledger.account_count());

    // One partition per currency, at the currency's ledger index
    // during the walks (the ledger numbers a currency with its first
    // trust line, so none is empty), sorted by currency at the end.
    partitions_.clear();
    partitions_.resize(ledger.currency_count());
    for (std::uint32_t c = 0; c < partitions_.size(); ++c) {
        partitions_[c].currency = ledger.currency_by_index(c);
        partitions_[c].offsets.assign(account_count + 1, 0);
    }

    const std::span<const ledger::TrustLineIndices> ends = ledger.line_ends();
    const std::span<const std::uint8_t> ripples = ledger.ripple_flags();

    // Walk 1 — count each node's degree per partition into
    // offsets[i + 1]. Iterating accounts in dense index order (not the
    // unordered line map) keeps the build deterministic and gives each
    // line exactly two visits, one per endpoint.
    for (std::uint32_t i = 0; i < account_count; ++i) {
        for (const std::uint32_t line : ledger.lines_by_index(i).indices()) {
            ++partitions_[ends[line].currency].offsets[i + 1];
        }
    }
    for (Partition& part : partitions_) {
        std::partial_sum(part.offsets.begin(), part.offsets.end(),
                         part.offsets.begin());
        part.edges.resize(part.offsets.back());
    }

    // Walk 2 — fill every partition at once. offsets[i] is row i's
    // write cursor, so a node's edges land in lines_of() order (the
    // legacy scan's enumeration order, which is what makes the two
    // engines return identical paths when ties exist). The walk
    // leaves offsets[i] at row i's end, which is row i + 1's start;
    // shifting the pointers one slot right restores them.
    for (std::uint32_t i = 0; i < account_count; ++i) {
        for (const std::uint32_t line : ledger.lines_by_index(i).indices()) {
            const ledger::TrustLineIndices& end = ends[line];
            Partition& part = partitions_[end.currency];
            const bool node_is_low = end.low == i;
            XRPL_INVARIANT(node_is_low || end.high == i,
                           "a line listed under an account records it as an endpoint");
            const std::uint32_t peer = node_is_low ? end.high : end.low;
            part.edges[part.offsets[i]++] =
                Edge{peer, line, node_is_low, ripples[peer] != 0};
        }
    }
    for (Partition& part : partitions_) {
        std::copy_backward(part.offsets.begin(), part.offsets.end() - 1,
                           part.offsets.end());
        part.offsets.front() = 0;
    }
    std::sort(partitions_.begin(), partitions_.end(),
              [](const Partition& a, const Partition& b) {
                  return a.currency < b.currency;
              });

    built_ = true;
    built_generation_ = ledger.topology_generation();
}

bool GraphIndex::ensure(const ledger::LedgerState& ledger) {
    if (built_ && built_generation_ == ledger.topology_generation()) {
        static obs::Counter& hits = obs::counter("paths.index.hits");
        hits.add(1);
        return false;
    }
    static obs::Counter& builds = obs::counter("paths.index.builds");
    static obs::Counter& rebuilds = obs::counter("paths.index.rebuilds");
    static obs::Histogram& build_ns = obs::histogram("paths.index.build_ns");
    const bool rebuild = built_;
    const obs::Stopwatch watch;
    build(ledger);
    build_ns.record(watch.elapsed_ns());
    builds.add(1);
    if (rebuild) rebuilds.add(1);
    return true;
}

const GraphIndex::Partition* GraphIndex::partition(
    ledger::Currency currency) const noexcept {
    const auto it = std::lower_bound(partitions_.begin(), partitions_.end(),
                                     currency, currency_below);
    if (it == partitions_.end() || !(it->currency == currency)) return nullptr;
    return &*it;
}

std::size_t GraphIndex::edge_count() const noexcept {
    std::size_t total = 0;
    for (const Partition& part : partitions_) total += part.edges.size();
    return total;
}

}  // namespace xrpl::paths
