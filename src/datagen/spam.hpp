// Spam-campaign classification.
//
// The paper repeatedly separates organic traffic from the documented
// abuse campaigns (MTL 8-hop DoS, CCK micro-transactions, the
// ACCOUNT_ZERO ping-pong, ~Ripple Spin gambling). These helpers
// classify records the way an analyst would — from ledger-visible
// signals (currency, destination, amount shape) — so benches can
// annotate the same anomalies the paper calls out.
#pragma once

#include "datagen/population.hpp"
#include "ledger/payment_columns.hpp"

namespace xrpl::datagen {

enum class SpamKind : std::uint8_t {
    kOrganic,
    kMtlCampaign,
    kCckCampaign,
    kAccountZeroPingPong,
    kGambling,
};

[[nodiscard]] const char* spam_kind_name(SpamKind kind) noexcept;

/// Aggregate spam shares over a history.
struct SpamBreakdown {
    std::uint64_t organic = 0;
    std::uint64_t mtl = 0;
    std::uint64_t cck = 0;
    std::uint64_t account_zero = 0;
    std::uint64_t gambling = 0;

    [[nodiscard]] std::uint64_t total() const noexcept {
        return organic + mtl + cck + account_zero + gambling;
    }
};

/// Classify every payment in `view`, first match wins: ACCOUNT_ZERO as
/// sender or destination, then ~Ripple Spin as destination, then MTL
/// above 1e6 (the campaign's absurd amounts), then any CCK; the rest
/// is organic. The campaign accounts/currencies resolve to interned
/// ids once, then the rule runs on the integer columns.
[[nodiscard]] SpamBreakdown spam_breakdown(ledger::PaymentView view,
                                           const Population& population);

}  // namespace xrpl::datagen
