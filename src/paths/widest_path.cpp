#include "paths/widest_path.hpp"

#include <algorithm>
#include <queue>

#include "paths/graph_index.hpp"
#include "util/contract.hpp"

namespace xrpl::paths {

namespace {

using ledger::AccountID;
using ledger::IouAmount;
using ledger::LedgerState;

struct QueueEntry {
    IouAmount bottleneck;
    std::uint32_t index;

    bool operator<(const QueueEntry& other) const noexcept {
        // priority_queue is a max-heap on operator<.
        return bottleneck < other.bottleneck;
    }
};

/// The search's out-neighbors: a flat CSR span walk, then the node's
/// tail edges; capacity read live from the ledger's line store at the
/// edge's line index, direction resolved by the edge's bit. An edge to
/// a non-rippling peer other than the destination is skipped before
/// the capacity read: find()'s relaxation would drop it (DefaultRipple).
///
/// One loop body serves both spans: GCC 12 left a per-edge lambda
/// called from two loops out of line here (max-inline-insns-single),
/// which doubled BM_PathFinder_Widest.
struct Expander {
    const TrustGraph& graph;
    SearchIndex::PartitionView part;
    const ledger::TrustLine* lines;  // the searched ledger's line store
    std::uint32_t dst_index;

    template <typename Visit>
    void out(std::uint32_t node_index, Visit&& visit) const {
        const SearchIndex::EdgeSpans spans = part.edges_of(node_index);
        for (const std::span<const GraphIndex::Edge> edges : {spans.shared, spans.tail}) {
            for (const GraphIndex::Edge& edge : edges) {
                if (!edge.peer_ripples && edge.peer != dst_index) continue;
                if (graph.is_excluded_index(edge.peer)) continue;
                const IouAmount cap = lines[edge.line].directed_capacity(edge.node_is_low);
                if (cap.is_zero() || cap.is_negative()) continue;
                visit(edge.peer, edge.peer_ripples, cap, edge.line);
            }
        }
    }
};

}  // namespace

std::optional<TrustPath> WidestPathFinder::find(const TrustGraph& graph,
                                                const AccountID& from,
                                                const AccountID& to,
                                                ledger::Currency currency) {
    const LedgerState& ledger = graph.ledger();
    const ledger::AccountRoot* src = ledger.account(from);
    const ledger::AccountRoot* dst = ledger.account(to);
    if (src == nullptr || dst == nullptr || from == to) return std::nullopt;
    if (graph.is_excluded(from) || graph.is_excluded(to)) return std::nullopt;
    const std::uint32_t src_index = src->index;
    const std::uint32_t dst_index = dst->index;

    const Expander expand{graph, graph.index().partition(currency),
                          ledger.lines().data(), dst_index};

    if (labels_.size() < ledger.account_count()) {
        labels_.resize(ledger.account_count());
    }
    ++epoch_;

    auto label_of = [&](std::uint32_t index) -> NodeLabel& {
        NodeLabel& label = labels_[index];
        if (label.epoch != epoch_) {
            label = NodeLabel{};
            label.epoch = epoch_;
        }
        return label;
    };
    auto seen = [&](std::uint32_t index) {
        return labels_[index].epoch == epoch_;
    };

    std::priority_queue<QueueEntry> frontier;

    NodeLabel& origin = label_of(src_index);
    origin.best = IouAmount::from_double(1e90);  // effectively infinite
    origin.parent = src_index;
    frontier.push(QueueEntry{origin.best, src_index});

    std::size_t visited = 0;
    while (!frontier.empty()) {
        const QueueEntry top = frontier.top();
        frontier.pop();
        NodeLabel& label = label_of(top.index);
        if (label.settled) continue;
        if (!(top.bottleneck == label.best)) continue;  // stale entry
        label.settled = true;
        if (top.index == dst_index) break;
        if (++visited > config_.max_visited) return std::nullopt;
        if (label.depth >= config_.max_intermediate_hops + 1) continue;

        expand.out(top.index, [&](std::uint32_t peer_index, bool peer_ripples,
                                  IouAmount edge, std::uint32_t line) {
            if (!peer_ripples && peer_index != dst_index) return;
            // The expander filters non-positive capacities; a negative
            // edge here means the filter and this relaxation disagree
            // about direction.
            XRPL_ASSERT(!edge.is_negative(),
                        "trust graph must only offer positive-capacity edges");
            const IouAmount bottleneck = edge < label.best ? edge : label.best;
            if (bottleneck.is_zero() || bottleneck.is_negative()) return;
            NodeLabel& peer_label = label_of(peer_index);
            if (peer_label.settled) return;
            if (peer_label.best.is_zero() || peer_label.best < bottleneck) {
                peer_label.best = bottleneck;
                peer_label.parent = top.index;
                peer_label.line = line;
                peer_label.depth = static_cast<std::uint8_t>(label.depth + 1);
                frontier.push(QueueEntry{bottleneck, peer_index});
            }
        });
    }

    if (!seen(dst_index)) return std::nullopt;

    TrustPath path;
    path.capacity = labels_[dst_index].best;
    std::uint32_t cursor = dst_index;
    while (true) {
        path.nodes.push_back(ledger.account_by_index(cursor));
        const NodeLabel& label = labels_[cursor];
        if (label.parent == cursor) break;
        path.lines.push_back(label.line);
        cursor = label.parent;
    }
    std::reverse(path.nodes.begin(), path.nodes.end());
    std::reverse(path.lines.begin(), path.lines.end());
    if (path.nodes.front() != from || path.nodes.back() != to) return std::nullopt;
    if (path.nodes.size() - 2 > config_.max_intermediate_hops) return std::nullopt;
    // A settled destination label is the min over positive edge
    // capacities along the path — the capacity the payment engine will
    // try to move. Zero or negative would send nothing (or reverse a
    // trust balance).
    XRPL_INVARIANT(!path.capacity.is_zero() && !path.capacity.is_negative(),
                   "widest-path bottleneck capacity must be positive");
    return path;
}

}  // namespace xrpl::paths
