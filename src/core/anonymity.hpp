// Anonymity-set analysis — an extension of the paper's IG metric.
//
// IG only asks whether a fingerprint pins down ONE sender. The
// natural refinement (following de Montjoye et al., the credit-card
// unicity study the paper builds on) is the full distribution of
// anonymity-set sizes: for each payment, how many distinct senders
// share its fingerprint? A payment with anonymity set 2 is barely
// safer than one with set 1 — a fact Fig 3's single percentage hides.
#pragma once

#include <cstdint>
#include <map>

#include "core/features.hpp"
#include "ledger/payment_columns.hpp"

namespace xrpl::core {

/// Distribution of anonymity-set sizes under one resolution config.
class AnonymityProfile {
public:
    /// set_size -> number of payments whose fingerprint is shared by
    /// exactly that many distinct senders.
    [[nodiscard]] const std::map<std::uint32_t, std::uint64_t>& histogram()
        const noexcept {
        return histogram_;
    }

    [[nodiscard]] std::uint64_t total_payments() const noexcept { return total_; }

    /// Fraction of payments with anonymity set <= k ("k-identifiable").
    /// k = 1 equals the paper's IG.
    [[nodiscard]] double identifiable_within(std::uint32_t k) const noexcept;

    /// Mean anonymity-set size (payment-weighted).
    [[nodiscard]] double mean_set_size() const noexcept;

    /// Smallest k covering at least `fraction` of payments.
    [[nodiscard]] std::uint32_t set_size_quantile(double fraction) const noexcept;

    void add(std::uint32_t set_size, std::uint64_t payments);

private:
    std::map<std::uint32_t, std::uint64_t> histogram_;
    std::uint64_t total_ = 0;
};

/// Analyze the history under `config`: the anonymity_profile
/// (core/fingerprint_groups) with each payment owned by its sender.
[[nodiscard]] AnonymityProfile analyze_anonymity(ledger::PaymentView view,
                                                 const ResolutionConfig& config);

}  // namespace xrpl::core
