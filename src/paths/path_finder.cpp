#include "paths/path_finder.hpp"

#include <algorithm>
#include <deque>

#include "obs/metrics.hpp"
#include "paths/graph_index.hpp"
#include "util/contract.hpp"

namespace xrpl::paths {

namespace {

using ledger::AccountID;
using ledger::IouAmount;
using ledger::LedgerState;

/// Bottleneck capacity of a node path whose hop i runs over line
/// index lines[i] (the search's own edges: no key is hashed).
IouAmount path_capacity(const LedgerState& ledger,
                        const std::vector<AccountID>& nodes,
                        const std::vector<std::uint32_t>& lines) {
    IouAmount best;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const IouAmount cap = ledger.lines()[lines[i]].capacity_from(nodes[i]);
        if (i == 0 || cap < best) best = cap;
    }
    return best;
}

/// The search's neighbors: walk the currency partition's CSR spans,
/// then the node's tail edges. No hashing, no account() lookups — peer
/// index, line index, direction bit, and rippling flag are all in the
/// 12-byte Edge record; only capacity is read live from the ledger's
/// line store. An absent partition (no line in this currency) behaves
/// as an empty graph.
///
/// DefaultRipple comes first: an edge to a peer that blocks rippling
/// and is neither endpoint is skipped before the exclusion probe and
/// the capacity read, since find()'s visit would drop that peer
/// anyway. Every filter is a pure predicate, so the same peers reach
/// visit in the same order as without the pre-filter.
struct Expander {
    const TrustGraph& graph;
    SearchIndex::PartitionView part;
    const ledger::TrustLine* lines;  // the searched ledger's line store
    std::uint32_t src_index;
    std::uint32_t dst_index;
    std::uint64_t& capacity_reads;  // this search's paths.capacity_reads

    template <typename Visit>
    void out(std::uint32_t node_index, Visit&& visit) const {
        walk(node_index, /*outward=*/true, visit);
    }

    template <typename Visit>
    void in(std::uint32_t node_index, Visit&& visit) const {
        walk(node_index, /*outward=*/false, visit);
    }

    /// Out-edges read the capacity from node_index's end of the line,
    /// in-edges from the peer's end. One loop body serves both spans,
    /// as in WidestPathFinder's expander (which says why).
    template <typename Visit>
    void walk(std::uint32_t node_index, bool outward, Visit& visit) const {
        std::uint64_t reads = 0;
        const SearchIndex::EdgeSpans spans = part.edges_of(node_index);
        for (const std::span<const GraphIndex::Edge> edges : {spans.shared, spans.tail}) {
            for (const GraphIndex::Edge& edge : edges) {
                if (!edge.peer_ripples && edge.peer != src_index &&
                    edge.peer != dst_index) {
                    continue;
                }
                if (graph.is_excluded_index(edge.peer)) continue;
                ++reads;
                const IouAmount cap =
                    lines[edge.line].directed_capacity(edge.node_is_low == outward);
                if (cap.is_zero() || cap.is_negative()) continue;
                visit(edge.peer, edge.peer_ripples, edge.line);
            }
        }
        capacity_reads += reads;
    }
};

}  // namespace

std::optional<TrustPath> PathFinder::find(const TrustGraph& graph,
                                          const AccountID& from,
                                          const AccountID& to,
                                          ledger::Currency currency) {
    const LedgerState& ledger = graph.ledger();
    const ledger::AccountRoot* src = ledger.account(from);
    const ledger::AccountRoot* dst = ledger.account(to);
    if (src == nullptr || dst == nullptr) return std::nullopt;
    if (graph.is_excluded(from) || graph.is_excluded(to)) return std::nullopt;

    if (from == to) return std::nullopt;
    const std::uint32_t src_index = src->index;
    const std::uint32_t dst_index = dst->index;

    std::uint64_t capacity_reads = 0;
    const Expander expand{graph, graph.index().partition(currency),
                          ledger.lines().data(), src_index, dst_index, capacity_reads};

    if (nodes_.size() < ledger.account_count()) {
        nodes_.resize(ledger.account_count());
    }
    ++epoch_;

    auto state = [&](std::uint32_t index) -> NodeState& { return nodes_[index]; };
    auto mark = [&](std::uint32_t index, std::uint8_t direction,
                    std::uint32_t parent, std::uint8_t depth, std::uint32_t line) {
        NodeState& ns = state(index);
        ns.epoch = epoch_;
        ns.direction = direction;
        ns.parent = parent;
        ns.depth = depth;
        ns.line = line;
    };
    auto seen = [&](std::uint32_t index) {
        return state(index).epoch == epoch_;
    };

    std::deque<std::uint32_t> forward{src_index};
    std::deque<std::uint32_t> backward{dst_index};
    mark(src_index, 1, src_index, 0, 0);
    mark(dst_index, 2, dst_index, 0, 0);

    // Total path length cap: intermediate hops + the two endpoints.
    const std::size_t max_edges = config_.max_intermediate_hops + 1;
    std::size_t visited = 2;
    std::optional<std::uint32_t> meeting;

    std::uint8_t forward_depth = 0;
    std::uint8_t backward_depth = 0;

    while (!forward.empty() && !backward.empty() && !meeting) {
        if (static_cast<std::size_t>(forward_depth) +
                static_cast<std::size_t>(backward_depth) >= max_edges) {
            break;
        }
        if (visited > config_.max_visited) break;

        // Expand the smaller frontier one full level.
        const bool expand_forward = forward.size() <= backward.size();
        auto& frontier = expand_forward ? forward : backward;
        const std::uint8_t direction = expand_forward ? 1 : 2;
        const std::uint8_t next_depth =
            static_cast<std::uint8_t>((expand_forward ? forward_depth
                                                      : backward_depth) + 1);

        std::deque<std::uint32_t> next_frontier;
        for (const std::uint32_t node_index : frontier) {
            if (meeting) break;
            auto visit = [&](std::uint32_t peer_index, bool peer_ripples,
                             std::uint32_t line) {
                if (meeting) return;
                // DefaultRipple: only rippling-enabled accounts may sit
                // in the interior of a path; the two endpoints always may.
                if (!peer_ripples && peer_index != src_index &&
                    peer_index != dst_index) {
                    return;
                }
                if (seen(peer_index)) {
                    if (state(peer_index).direction != direction) {
                        // Frontiers met: peer was reached from the other
                        // side. Record the bridging edge.
                        mark_meeting_ = {node_index, peer_index, direction, line};
                        meeting = peer_index;
                    }
                    return;
                }
                mark(peer_index, direction, node_index, next_depth, line);
                next_frontier.push_back(peer_index);
                ++visited;
            };
            if (expand_forward) {
                expand.out(node_index, visit);
            } else {
                expand.in(node_index, visit);
            }
        }
        frontier = std::move(next_frontier);
        if (expand_forward) {
            forward_depth = next_depth;
        } else {
            backward_depth = next_depth;
        }
    }

    // One add per search with the whole BFS's totals, not one per
    // visit — find() is on the payment hot path.
    static obs::Counter& nodes_expanded = obs::counter("paths.nodes_expanded");
    nodes_expanded.add(visited);
    static obs::Counter& capacity_read_counter = obs::counter("paths.capacity_reads");
    capacity_read_counter.add(capacity_reads);

    if (!meeting) return std::nullopt;

    // Reconstruct: walk from the touch point back to both endpoints.
    const auto [near_index, far_index, bridge_direction, bridge_line] = mark_meeting_;
    // `far_index` holds the node already labeled by the *other* side.
    // Forward half: chain of parents with direction 1; backward half:
    // chain with direction 2 (parents point toward the destination).
    // Each node's `line` joins it to its parent, so the hops' lines
    // come out alongside the nodes.
    std::vector<AccountID> forward_part;   // sender ... bridgeA
    std::vector<AccountID> backward_part;  // bridgeB ... receiver
    std::vector<std::uint32_t> forward_lines;
    std::vector<std::uint32_t> backward_lines;

    auto collect = [&](std::uint32_t start, std::uint8_t direction,
                       std::vector<AccountID>& out, std::vector<std::uint32_t>& lines) {
        std::uint32_t cursor = start;
        while (true) {
            out.push_back(ledger.account_by_index(cursor));
            const NodeState& ns = state(cursor);
            if (ns.parent == cursor || ns.direction != direction) break;
            if (ns.depth == 0) break;
            lines.push_back(ns.line);
            cursor = ns.parent;
        }
    };

    const std::uint32_t forward_end = bridge_direction == 1 ? near_index : far_index;
    const std::uint32_t backward_start = bridge_direction == 1 ? far_index : near_index;

    collect(forward_end, 1, forward_part, forward_lines);
    std::reverse(forward_part.begin(), forward_part.end());
    std::reverse(forward_lines.begin(), forward_lines.end());
    collect(backward_start, 2, backward_part, backward_lines);

    TrustPath path;
    path.nodes = std::move(forward_part);
    path.nodes.insert(path.nodes.end(), backward_part.begin(), backward_part.end());
    std::vector<std::uint32_t> lines = std::move(forward_lines);
    lines.push_back(bridge_line);
    lines.insert(lines.end(), backward_lines.begin(), backward_lines.end());

    if (path.nodes.size() < 2 || path.nodes.front() != from ||
        path.nodes.back() != to) {
        return std::nullopt;
    }
    if (path.nodes.size() - 2 > config_.max_intermediate_hops) return std::nullopt;

    XRPL_ASSERT(lines.size() + 1 == path.nodes.size(),
                "a found path has one line per hop");
    path.capacity = path_capacity(ledger, path.nodes, lines);
    if (path.capacity.is_zero() || path.capacity.is_negative()) return std::nullopt;
    path.lines = std::move(lines);
    return path;
}

}  // namespace xrpl::paths
