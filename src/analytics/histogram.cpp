#include "analytics/histogram.hpp"

#include <cmath>

namespace xrpl::analytics {

void CountHistogram::add(std::uint32_t key, std::uint64_t weight) {
    if (counts_.size() <= key) counts_.resize(key + 1, 0);
    counts_[key] += weight;
    total_ += weight;
}

std::uint64_t CountHistogram::count(std::uint32_t key) const noexcept {
    return key < counts_.size() ? counts_[key] : 0;
}

double CountHistogram::share(std::uint32_t key) const noexcept {
    return total_ == 0 ? 0.0
                       : static_cast<double>(count(key)) /
                             static_cast<double>(total_);
}

std::vector<std::pair<std::uint32_t, std::uint64_t>> CountHistogram::items() const {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
    for (std::uint32_t key = 0; key < counts_.size(); ++key) {
        if (counts_[key] != 0) out.emplace_back(key, counts_[key]);
    }
    return out;
}

void LogHistogram::add(double value, std::uint64_t weight) {
    if (value <= 0.0 || !std::isfinite(value)) return;
    buckets_[static_cast<int>(std::floor(std::log10(value)))] += weight;
    total_ += weight;
}

std::vector<std::pair<int, std::uint64_t>> LogHistogram::items() const {
    return {buckets_.begin(), buckets_.end()};
}

}  // namespace xrpl::analytics
