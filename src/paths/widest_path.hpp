// Widest-path search — the ablation partner of the BFS finder.
//
// PathFinder returns a SHORTEST positive-capacity path; this finder
// returns the path with the MAXIMUM bottleneck capacity (bounded by
// the same hop cap), a Dijkstra variant ordered by bottleneck. Wider
// paths move more value per path, so payments need fewer parallel
// paths at the cost of longer routes — the trade the
// `micro_benchmarks` ablation and DESIGN.md §6 examine.
//
// Like PathFinder, it walks the TrustGraph's CSR index; labels live in
// an epoch-stamped flat scratch vector keyed by dense account index
// (no per-call hash map).
#pragma once

#include <optional>
#include <vector>

#include "paths/path_finder.hpp"

namespace xrpl::paths {

class WidestPathFinder {
public:
    explicit WidestPathFinder(PathFinderConfig config = {}) noexcept
        : config_(config) {}

    /// The positive-capacity path from `from` to `to` in `currency`
    /// maximizing the bottleneck, or nullopt. Honors graph exclusions
    /// and DefaultRipple exactly like PathFinder.
    [[nodiscard]] std::optional<TrustPath> find(const TrustGraph& graph,
                                                const ledger::AccountID& from,
                                                const ledger::AccountID& to,
                                                ledger::Currency currency);

    [[nodiscard]] const PathFinderConfig& config() const noexcept { return config_; }

private:
    PathFinderConfig config_;

    // Scratch labels, keyed by dense account index; `epoch` marks
    // entries live for the current search (no clearing between calls).
    struct NodeLabel {
        std::uint64_t epoch = 0;
        ledger::IouAmount best;  // widest bottleneck found so far
        std::uint32_t parent = 0;
        std::uint32_t line = 0;  // line index of the edge from `parent`
        std::uint8_t depth = 0;
        bool settled = false;
    };
    std::vector<NodeLabel> labels_;
    std::uint64_t epoch_ = 0;
};

}  // namespace xrpl::paths
