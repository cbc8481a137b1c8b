#include "core/fingerprint_groups.hpp"

#include <algorithm>

#include "core/fingerprint.hpp"
#include "util/contract.hpp"

namespace xrpl::core {

std::span<const std::uint32_t> sender_ids(ledger::PaymentView view) noexcept {
    return std::span<const std::uint32_t>(view.columns().sender_id)
        .subspan(view.offset(), view.size());
}

std::vector<KeyedFingerprint> sorted_by_fingerprint(
    ledger::PaymentView view, std::span<const std::uint32_t> keys,
    const ResolutionConfig& config) {
    XRPL_ASSERT(keys.size() == view.size(),
                "the key column must cover every row of the view");
    const std::vector<std::uint64_t> fingerprints = fingerprint_column(view, config);
    std::vector<KeyedFingerprint> sorted(fingerprints.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        sorted[i] = {fingerprints[i], keys[i]};
    }
    // A total order: equal pairs are identical, so the unstable sort's
    // tie handling cannot show in the result.
    std::sort(sorted.begin(), sorted.end());
    return sorted;
}

AnonymityProfile anonymity_profile(ledger::PaymentView view,
                                   std::span<const std::uint32_t> owners,
                                   const ResolutionConfig& config) {
    const std::vector<KeyedFingerprint> sorted =
        sorted_by_fingerprint(view, owners, config);
    AnonymityProfile profile;
    std::size_t begin = 0;
    while (begin < sorted.size()) {
        // Owners ascend within a group, so each change of owner
        // between neighbours is one more distinct owner.
        std::uint32_t distinct_owners = 1;
        std::size_t end = begin + 1;
        for (; end < sorted.size() &&
               sorted[end].fingerprint == sorted[begin].fingerprint;
             ++end) {
            if (sorted[end].key != sorted[end - 1].key) ++distinct_owners;
        }
        profile.add(distinct_owners, end - begin);
        begin = end;
    }
    return profile;
}

IgResult ig_of(const AnonymityProfile& profile) {
    IgResult result;
    result.total_payments = profile.total_payments();
    const auto singles = profile.histogram().find(1);
    if (singles != profile.histogram().end()) {
        result.uniquely_identified = singles->second;
    }
    // IG is a probability (Fig 3 plots it in [0, 1]).
    XRPL_INVARIANT(result.uniquely_identified <= result.total_payments,
                   "IG numerator must be a subset of the payment count");
    return result;
}

}  // namespace xrpl::core
