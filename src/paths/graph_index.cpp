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
    build(ledger, ledger::LedgerState::TopologySize{
                      static_cast<std::uint32_t>(ledger.account_count()),
                      static_cast<std::uint32_t>(ledger.trustline_count()),
                      static_cast<std::uint32_t>(ledger.currency_count())});
}

void GraphIndex::build(const ledger::LedgerState& ledger,
                       ledger::LedgerState::TopologySize size) {
    // One partition per currency, at the currency's ledger index
    // during the walks (the ledger numbers a currency with its first
    // trust line, so none is empty), sorted by currency at the end.
    partitions_.clear();
    partitions_.resize(size.currencies);
    for (std::uint32_t c = 0; c < partitions_.size(); ++c) {
        partitions_[c].currency = ledger.currency_by_index(c);
        partitions_[c].offsets.assign(size.accounts + 1, 0);
    }

    const std::span<const ledger::TrustLineIndices> ends = ledger.line_ends();
    const std::span<const std::uint8_t> ripples = ledger.ripple_flags();

    // Walk 1 — count each node's degree per partition into
    // offsets[i + 1]. Iterating accounts in dense index order (not the
    // unordered line map) keeps the build deterministic and gives each
    // line exactly two visits, one per endpoint.
    for (std::uint32_t i = 0; i < size.accounts; ++i) {
        for (const std::uint32_t line : ledger.lines_by_index(i).indices()) {
            if (line >= size.lines) continue;
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
    // order the searches break ties by, which the pinned paths depend
    // on). The walk leaves offsets[i] at row i's end, which is row
    // i + 1's start; shifting the pointers one slot right restores
    // them.
    for (std::uint32_t i = 0; i < size.accounts; ++i) {
        for (const std::uint32_t line : ledger.lines_by_index(i).indices()) {
            if (line >= size.lines) continue;
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

    lines_ = size.lines;
    built_ = true;
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

SearchIndex::EdgeSpans SearchIndex::PartitionView::edges_of(
    std::uint32_t index) const noexcept {
    EdgeSpans spans;
    if (shared != nullptr) spans.shared = shared->edges_of(index);
    if (tail != nullptr) {
        const auto it = tail->find(index);
        if (it != tail->end()) spans.tail = it->second;
    }
    return spans;
}

bool SearchIndex::ensure(const ledger::LedgerState& ledger) {
    static obs::Counter& hits = obs::counter("paths.index.hits");
    if (shared_ != nullptr && generation_ == ledger.topology_generation()) {
        hits.add(1);
        return false;
    }
    static obs::Counter& builds = obs::counter("paths.index.builds");
    static obs::Counter& rebuilds = obs::counter("paths.index.rebuilds");
    static obs::Histogram& build_ns = obs::histogram("paths.index.build_ns");
    bool built_here = false;
    auto shared = std::static_pointer_cast<const GraphIndex>(ledger.shared_derived(
        [&](ledger::LedgerState::TopologySize size) -> std::shared_ptr<const void> {
            const obs::Stopwatch watch;
            auto index = std::make_shared<GraphIndex>();
            index->build(ledger, size);
            build_ns.record(watch.elapsed_ns());
            built_here = true;
            return index;
        }));
    if (built_here) {
        builds.add(1);
        if (shared_ != nullptr) rebuilds.add(1);
    } else {
        hits.add(1);
    }
    if (shared != shared_) {
        shared_ = std::move(shared);
        tails_.clear();
        lines_ = shared_->line_count();
    }

    // Lines past the shared index, in creation order: each is appended
    // to both endpoints' tail edges, behind their shared spans, which
    // is where lines_of() lists it.
    const std::span<const ledger::TrustLineIndices> ends = ledger.line_ends();
    const std::span<const std::uint8_t> ripples = ledger.ripple_flags();
    for (; lines_ < ledger.trustline_count(); ++lines_) {
        const ledger::TrustLineIndices& end = ends[lines_];
        TailEdges& tail = tails_[ledger.currency_by_index(end.currency)];
        tail[end.low].push_back(
            GraphIndex::Edge{end.high, lines_, true, ripples[end.high] != 0});
        tail[end.high].push_back(
            GraphIndex::Edge{end.low, lines_, false, ripples[end.low] != 0});
    }
    generation_ = ledger.topology_generation();
    return true;
}

SearchIndex::PartitionView SearchIndex::partition(
    ledger::Currency currency) const noexcept {
    const auto tail = tails_.find(currency);
    return PartitionView{shared_->partition(currency),
                         tail == tails_.end() ? nullptr : &tail->second};
}

std::size_t SearchIndex::edge_count() const noexcept {
    std::size_t total = shared_ == nullptr ? 0 : shared_->edge_count();
    for (const auto& [currency, tail] : tails_) {
        for (const auto& [node, edges] : tail) total += edges.size();
    }
    return total;
}

}  // namespace xrpl::paths
