// Currency-partitioned CSR adjacency over the ledger's trust lines —
// the path subsystem's answer to the columnar refactors every scan
// layer already had (DESIGN.md §16).
//
// Answering a neighbor query from lines_of(account) would walk ALL
// currencies mixed, filter by currency, hash AccountIDs and look up
// each peer's AccountRoot on every visit. This index holds, for each
// currency, a compressed-sparse-row table of (peer index, line index,
// direction bit, cached rippling flag) keyed by the ledger's dense
// account index, so the search loops walk flat spans of uint32
// indices with zero hashing and zero account() lookups.
//
// The index is pure topology: the build reads only the ledger's
// adjacency lists of line indices, its flat line-endpoint array and
// its rippling flags, and an edge names its line by index. So every
// ledger holding one topology in one lines_of() order shares one
// index: SearchIndex fetches it through LedgerState::shared_derived(),
// which builds it once per (topology, order) pair, and adds the
// ledger's own tail lines as per-ledger TAIL EDGES, each listed behind
// its endpoint's shared span in its currency. A search never rebuilds
// the index for a clone.
//
// Invalidation contract: CAPACITY is read live at visit time from the
// searched ledger's line store (LedgerState::lines()[edge.line]), so
// balance/limit mutations by the payment engine never invalidate the
// index. TOPOLOGY mutations (new account, new trust line) bump
// LedgerState::topology_generation(); SearchIndex::ensure() compares
// generations and then takes the new lines as tail edges, or, on a
// topology only its ledger holds (changed in place), fetches a fresh
// build. Rippling flags are fixed at account creation (AccountRoot
// keeps them const), so caching them per edge is safe.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
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
    /// order equals lines_of(account) order, which is the order the
    /// searches break ties by (the pinned paths depend on it).
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

    /// Rebuild from scratch over every line of `ledger`.
    void build(const ledger::LedgerState& ledger);

    /// Rebuild from scratch over `ledger`'s first `size` accounts,
    /// lines and currencies: two walks over each of those accounts'
    /// line indices (LedgerState::lines_by_index) in dense-index order,
    /// one to count degrees, one to fill all partitions; a line at or
    /// past `size.lines` is skipped. An edge's partition, peer and
    /// direction are array lookups in the line's endpoint and currency
    /// indices (LedgerState::line_ends): the build hashes no AccountID
    /// and reads no TrustLine.
    void build(const ledger::LedgerState& ledger,
               ledger::LedgerState::TopologySize size);

    /// The CSR table for `currency`, or nullptr when no line the index
    /// covers is in that currency. The build addresses partitions by
    /// the ledger's currency index and then sorts them by currency, so
    /// this is one binary search (a search calls it once).
    [[nodiscard]] const Partition* partition(
        ledger::Currency currency) const noexcept;

    [[nodiscard]] bool built() const noexcept { return built_; }
    [[nodiscard]] std::size_t partition_count() const noexcept {
        return partitions_.size();
    }
    /// Total Edge records across partitions (2 per trust line: one per
    /// endpoint).
    [[nodiscard]] std::size_t edge_count() const noexcept;
    /// The lines the index covers: line indices below this number.
    [[nodiscard]] std::uint32_t line_count() const noexcept { return lines_; }

private:
    std::vector<Partition> partitions_;  // sorted by currency
    std::uint32_t lines_ = 0;
    bool built_ = false;
};

/// The CSR index as one ledger's searches see it: the GraphIndex that
/// every ledger holding the same topology in the same lines_of() order
/// shares, plus this ledger's tail edges (its lines past that index).
class SearchIndex {
public:
    /// A node's edges in lines_of() order: its shared span, then its
    /// tail edges.
    struct EdgeSpans {
        std::span<const GraphIndex::Edge> shared;
        std::span<const GraphIndex::Edge> tail;
    };

    /// One currency's tail edges, by account index.
    using TailEdges =
        std::unordered_map<std::uint32_t, std::vector<GraphIndex::Edge>>;

    /// One currency as a search walks it; either part may be absent.
    struct PartitionView {
        const GraphIndex::Partition* shared = nullptr;
        const TailEdges* tail = nullptr;

        [[nodiscard]] EdgeSpans edges_of(std::uint32_t index) const noexcept;
    };

    /// Lazy freshness: if the ledger's topology generation moved since
    /// the last call (or on the first), fetch the shared index for the
    /// ledger's (topology, order) pair, built there at most once, and
    /// take the ledger's lines past it as tail edges; return whether
    /// anything moved. Records paths.index.* metrics: builds and
    /// build_ns when this call built the shared index (rebuilds when
    /// it replaced one this object used), hits otherwise.
    bool ensure(const ledger::LedgerState& ledger);

    /// `currency`'s shared partition and tail edges. Precondition:
    /// built().
    [[nodiscard]] PartitionView partition(ledger::Currency currency) const noexcept;

    [[nodiscard]] bool built() const noexcept { return shared_ != nullptr; }
    [[nodiscard]] std::uint64_t built_generation() const noexcept {
        return generation_;
    }
    /// The shared part. Precondition: built().
    [[nodiscard]] const GraphIndex& shared() const noexcept { return *shared_; }
    /// Edge records, shared and tail.
    [[nodiscard]] std::size_t edge_count() const noexcept;

private:
    std::shared_ptr<const GraphIndex> shared_;
    std::unordered_map<ledger::Currency, TailEdges> tails_;
    std::uint32_t lines_ = 0;  // lines covered: shared, then tail edges
    std::uint64_t generation_ = 0;
};

}  // namespace xrpl::paths
