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

    // The partition of `currency`, inserted in sorted position the
    // first time the currency shows up. There are tens of currencies,
    // so the binary search and the rare insert stay cheap.
    partitions_.clear();
    const auto partition_of = [&](ledger::Currency currency) -> Partition& {
        const auto it = std::lower_bound(partitions_.begin(), partitions_.end(),
                                         currency, currency_below);
        if (it != partitions_.end() && it->currency == currency) return *it;
        Partition part;
        part.currency = currency;
        part.offsets.assign(account_count + 1, 0);
        return *partitions_.insert(it, std::move(part));
    };

    // Walk 1 — discover the currency set and count each node's degree
    // per partition into offsets[i + 1]. Iterating accounts in dense
    // index order (not the unordered line map) keeps the build
    // deterministic and gives each line exactly two visits, one per
    // endpoint.
    for (std::uint32_t i = 0; i < account_count; ++i) {
        for (const ledger::TrustLine* line :
             ledger.lines_of(ledger.account_by_index(i))) {
            ++partition_of(line->key().currency).offsets[i + 1];
        }
    }
    for (Partition& part : partitions_) {
        std::partial_sum(part.offsets.begin(), part.offsets.end(),
                         part.offsets.begin());
        part.edges.resize(part.offsets.back());
    }

    // Walk 2 — fill every partition at once. offsets[i] is row i's
    // write cursor, so a node's edges land in lines_of() insertion
    // order (the legacy scan's enumeration order, which is what makes
    // the two engines return identical paths when ties exist). The
    // walk leaves offsets[i] at row i's end, which is row i + 1's
    // start; shifting the pointers one slot right restores them.
    for (std::uint32_t i = 0; i < account_count; ++i) {
        const ledger::AccountID& node = ledger.account_by_index(i);
        for (const ledger::TrustLine* line : ledger.lines_of(node)) {
            Partition& part = partition_of(line->key().currency);
            const bool node_is_low = node == line->key().low;
            const ledger::AccountID& peer_id =
                node_is_low ? line->key().high : line->key().low;
            const ledger::AccountRoot* peer = ledger.account(peer_id);
            XRPL_ASSERT(peer != nullptr,
                        "trust lines must connect existing accounts");
            part.edges[part.offsets[i]++] =
                Edge{peer->index, line, node_is_low, peer->allows_rippling};
        }
    }
    for (Partition& part : partitions_) {
        std::copy_backward(part.offsets.begin(), part.offsets.end() - 1,
                           part.offsets.end());
        part.offsets.front() = 0;
    }

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
