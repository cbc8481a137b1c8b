// Currency-partitioned CSR adjacency over the ledger's trust lines —
// the path subsystem's answer to the columnar refactors every scan
// layer already had (DESIGN.md §16).
//
// The legacy TrustGraph answers a neighbor query by scanning
// lines_of(account) — ALL currencies mixed — filtering by currency,
// hashing AccountIDs, and re-looking-up AccountRoot per visit. This
// index is built once per topology: for each currency, a
// compressed-sparse-row table of (peer index, line index, direction
// bit, cached rippling flag) keyed by the ledger's dense account
// index, so the bidirectional-BFS inner loop becomes a flat span walk
// over uint32 indices with zero hashing and zero account() lookups.
//
// The index is pure topology: the build reads only the ledger's
// adjacency lists of line indices, its flat line-endpoint array and
// its rippling flags, and an edge names its line by index. So two
// ledgers with the same topology and lines_of() order get the same
// index (sharing one across clones is DESIGN.md §16's next step).
//
// Invalidation contract: CAPACITY is read live at visit time from the
// searched ledger's line store (LedgerState::lines()[edge.line]), so
// balance/limit mutations by the payment engine never invalidate the
// index. TOPOLOGY mutations (new account, new trust line) bump
// LedgerState::topology_generation(); ensure() compares generations
// and lazily rebuilds. Rippling flags are fixed at account creation,
// so caching them per edge is safe.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ledger/ledger.hpp"

namespace xrpl::paths {

class GraphIndex {
public:
    struct Edge {
        std::uint32_t peer;  // dense account index of the far end
        std::uint32_t line;  // line index; capacity read live at visit time
        bool node_is_low;    // the owning node is the line's key().low
        bool peer_ripples;   // cached peer allows_rippling
    };

    /// One currency's CSR table. An out-edge and its mirror in-edge
    /// share one Edge record: edges_of(i) lists every line touching
    /// node i in this currency, and the DIRECTION decides which end's
    /// capacity to read — from node i: directed_capacity(node_is_low);
    /// towards node i: directed_capacity(!node_is_low). Per-node edge
    /// order equals lines_of(account) insertion order, so both engines
    /// enumerate neighbors identically.
    struct Partition {
        ledger::Currency currency;
        std::vector<std::uint32_t> offsets;  // account_count + 1 row pointers
        std::vector<Edge> edges;

        [[nodiscard]] std::span<const Edge> edges_of(
            std::uint32_t index) const noexcept {
            if (index + 1 >= offsets.size()) return {};
            return std::span<const Edge>(edges).subspan(
                offsets[index], offsets[index + 1] - offsets[index]);
        }
    };

    /// Rebuild from scratch (unconditionally): two walks over every
    /// account's line indices (LedgerState::lines_by_index) in
    /// dense-index order, one to count degrees, one to fill all
    /// partitions. An edge's partition, peer and direction are array
    /// lookups in the line's endpoint and currency indices
    /// (LedgerState::line_ends): the build hashes no AccountID and
    /// reads no TrustLine.
    void build(const ledger::LedgerState& ledger);

    /// Lazy freshness: rebuild only if the ledger's topology
    /// generation moved since the last build, and return whether it
    /// did. Records paths.index.* metrics (builds/rebuilds/build_ns on
    /// a rebuild, hits on a served query).
    bool ensure(const ledger::LedgerState& ledger);

    /// The CSR table for `currency`, or nullptr when no trust line in
    /// that currency exists. The build addresses partitions by the
    /// ledger's currency index and then sorts them by currency, so
    /// this is one binary search (a search calls it once).
    [[nodiscard]] const Partition* partition(
        ledger::Currency currency) const noexcept;

    [[nodiscard]] bool built() const noexcept { return built_; }
    [[nodiscard]] std::uint64_t built_generation() const noexcept {
        return built_generation_;
    }
    [[nodiscard]] std::size_t partition_count() const noexcept {
        return partitions_.size();
    }
    /// Total Edge records across partitions (2 per trust line: one per
    /// endpoint).
    [[nodiscard]] std::size_t edge_count() const noexcept;

private:
    std::vector<Partition> partitions_;  // sorted by currency
    std::uint64_t built_generation_ = 0;
    bool built_ = false;
};

}  // namespace xrpl::paths
