#include "core/anonymity.hpp"

#include <unordered_map>
#include <unordered_set>

#include "core/fingerprint.hpp"

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
    const std::vector<std::uint64_t> fingerprints = fingerprint_column(view, config);
    const ledger::PaymentColumns& columns = view.columns();
    const std::size_t offset = view.offset();

    struct Bucket {
        std::uint64_t payments = 0;
        std::unordered_set<std::uint32_t> senders;
    };
    std::unordered_map<std::uint64_t, Bucket> buckets;
    buckets.reserve(fingerprints.size());
    for (std::size_t i = 0; i < fingerprints.size(); ++i) {
        Bucket& bucket = buckets[fingerprints[i]];
        ++bucket.payments;
        bucket.senders.insert(columns.sender_id[offset + i]);
    }

    AnonymityProfile profile;
    for (const auto& [fp, bucket] : buckets) {
        profile.add(static_cast<std::uint32_t>(bucket.senders.size()),
                    bucket.payments);
    }
    return profile;
}

}  // namespace xrpl::core
