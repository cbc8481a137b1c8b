// Capacity-aware shortest-path search over the trust graph.
//
// Finds a shortest trust path carrying positive capacity from sender
// to receiver in one currency, using bidirectional BFS (gateways have
// enormous degree; expanding the smaller frontier keeps searches to a
// few hundred node visits on realistic topologies). The payment
// engine calls this repeatedly — executing each found path — to build
// the parallel-path splits of Fig 6(b).
//
// Neighbors come from the TrustGraph's CSR index (flat index-space
// spans), which lists each node's edges in lines_of() order; ties
// between equally short paths break by that order.
#pragma once

#include <optional>
#include <vector>

#include "ledger/amount.hpp"
#include "ledger/types.hpp"
#include "paths/trust_graph.hpp"

namespace xrpl::paths {

/// A discovered trust path: the full node sequence, endpoints
/// included, the line of each hop, and its bottleneck capacity.
struct TrustPath {
    std::vector<ledger::AccountID> nodes;  // [sender, ..., receiver]
    /// lines[i] is the index (LedgerState::lines()) of the trust line
    /// joining nodes[i] and nodes[i + 1]. Line indices are never
    /// renumbered, so they outlive later topology changes.
    std::vector<std::uint32_t> lines;
    ledger::IouAmount capacity;            // min line capacity along the path

    /// Intermediate node count (paper's Fig 6(a) x-axis).
    [[nodiscard]] std::size_t intermediate_hops() const noexcept {
        return nodes.size() >= 2 ? nodes.size() - 2 : 0;
    }
};

struct PathFinderConfig {
    /// Maximum number of intermediate nodes to consider.
    std::size_t max_intermediate_hops = 10;
    /// Give up after visiting this many nodes (defensive cap).
    std::size_t max_visited = 50'000;
};

/// Stateless-but-buffered path searcher. Reuses internal scratch
/// buffers between calls; not thread-safe, create one per thread.
class PathFinder {
public:
    explicit PathFinder(PathFinderConfig config = {}) noexcept : config_(config) {}

    /// Shortest positive-capacity path from `from` to `to` in
    /// `currency`, or nullopt. `graph` exclusions are honored.
    [[nodiscard]] std::optional<TrustPath> find(const TrustGraph& graph,
                                                const ledger::AccountID& from,
                                                const ledger::AccountID& to,
                                                ledger::Currency currency);

    [[nodiscard]] const PathFinderConfig& config() const noexcept { return config_; }

private:
    PathFinderConfig config_;

    // Scratch state, keyed by the ledger's dense account index.
    // `visit_epoch_` avoids clearing between searches.
    struct NodeState {
        std::uint64_t epoch = 0;
        std::uint8_t direction = 0;  // 1 = forward, 2 = backward
        std::uint32_t parent = 0;    // dense index of predecessor/successor
        std::uint8_t depth = 0;
        std::uint32_t line = 0;      // line index of the edge to `parent`
    };
    std::vector<NodeState> nodes_;
    std::uint64_t epoch_ = 0;

    /// The bridging edge where the two frontiers met.
    struct Meeting {
        std::uint32_t near_index = 0;  // node on the expanding side
        std::uint32_t far_index = 0;   // node already labeled by the other side
        std::uint8_t direction = 0;    // direction of the expanding side
        std::uint32_t line = 0;        // line index of the bridging edge
    };
    Meeting mark_meeting_;
};

}  // namespace xrpl::paths
