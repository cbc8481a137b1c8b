#include "analytics/path_stats.hpp"

namespace xrpl::analytics {

std::uint32_t PathStats::hop_anomaly() const {
    // A bucket is anomalous when it exceeds its predecessor — the
    // organic distribution decays monotonically with hop count.
    std::uint32_t anomaly = 0;
    std::uint64_t anomaly_mass = 0;
    const auto items = hops.items();
    for (std::size_t i = 1; i < items.size(); ++i) {
        const auto [key, count] = items[i];
        const auto [prev_key, prev_count] = items[i - 1];
        if (key == prev_key + 1 && count > prev_count && count > anomaly_mass) {
            anomaly = key;
            anomaly_mass = count;
        }
    }
    return anomaly;
}

PathStats make_path_stats(std::span<const std::uint64_t> hop_histogram,
                          std::span<const std::uint64_t> parallel_histogram) {
    PathStats stats;
    for (std::uint32_t key = 1; key < hop_histogram.size(); ++key) {
        if (hop_histogram[key] != 0) stats.hops.add(key, hop_histogram[key]);
    }
    for (std::uint32_t key = 1; key < parallel_histogram.size(); ++key) {
        if (parallel_histogram[key] != 0) {
            stats.parallel.add(key, parallel_histogram[key]);
        }
    }
    return stats;
}

}  // namespace xrpl::analytics
