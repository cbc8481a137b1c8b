#include "core/anonymity.hpp"

#include "core/fingerprint_groups.hpp"

namespace xrpl::core {

void AnonymityProfile::add(std::uint32_t set_size, std::uint64_t payments) {
    histogram_[set_size] += payments;
    total_ += payments;
}

double AnonymityProfile::identifiable_within(std::uint32_t k) const noexcept {
    if (total_ == 0) return 0.0;
    std::uint64_t covered = 0;
    for (const auto& [size, payments] : histogram_) {
        if (size > k) break;
        covered += payments;
    }
    return static_cast<double>(covered) / static_cast<double>(total_);
}

double AnonymityProfile::mean_set_size() const noexcept {
    if (total_ == 0) return 0.0;
    double weighted = 0.0;
    for (const auto& [size, payments] : histogram_) {
        weighted += static_cast<double>(size) * static_cast<double>(payments);
    }
    return weighted / static_cast<double>(total_);
}

std::uint32_t AnonymityProfile::set_size_quantile(double fraction) const noexcept {
    if (total_ == 0) return 0;
    // Compare in double: truncating fraction * total to an integer
    // would stop at a k covering LESS than `fraction` of payments.
    const double threshold = fraction * static_cast<double>(total_);
    std::uint64_t covered = 0;
    for (const auto& [size, payments] : histogram_) {
        covered += payments;
        if (static_cast<double>(covered) >= threshold) return size;
    }
    return histogram_.empty() ? 0 : histogram_.rbegin()->first;
}

AnonymityProfile analyze_anonymity(ledger::PaymentView view,
                                   const ResolutionConfig& config) {
    return anonymity_profile(view, sender_ids(view), config);
}

}  // namespace xrpl::core
