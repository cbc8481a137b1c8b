// Path-structure statistics (Fig 6).
//
// Consumes the hop / parallel-path histograms the history builder
// collects and exposes the shares the paper quotes (16.3% unsplit,
// 28.9% four-way, the 8-hop MTL spike, ...).
#pragma once

#include <cstdint>
#include <span>

#include "analytics/histogram.hpp"

namespace xrpl::analytics {

struct PathStats {
    CountHistogram hops;      // key = intermediate hop count (>= 1)
    CountHistogram parallel;  // key = parallel path count (>= 1)

    [[nodiscard]] std::uint64_t multi_hop_total() const noexcept {
        return hops.total();
    }

    /// The hop count with the largest anomalous mass above the
    /// monotone-decay trend (the paper finds 8, the MTL spam). Returns
    /// 0 when no anomaly stands out.
    [[nodiscard]] std::uint32_t hop_anomaly() const;
};

/// Build from raw histogram arrays (index = key).
[[nodiscard]] PathStats make_path_stats(std::span<const std::uint64_t> hop_histogram,
                                        std::span<const std::uint64_t> parallel_histogram);

}  // namespace xrpl::analytics
