#include "datagen/spam.hpp"

namespace xrpl::datagen {

const char* spam_kind_name(SpamKind kind) noexcept {
    switch (kind) {
        case SpamKind::kOrganic: return "organic";
        case SpamKind::kMtlCampaign: return "mtl-campaign";
        case SpamKind::kCckCampaign: return "cck-campaign";
        case SpamKind::kAccountZeroPingPong: return "account-zero";
        case SpamKind::kGambling: return "gambling";
    }
    return "?";
}

SpamBreakdown spam_breakdown(ledger::PaymentView view,
                             const Population& population) {
    const ledger::PaymentColumns& columns = view.columns();
    const std::size_t offset = view.offset();

    // Resolve the campaign markers to interned ids once; an absent id
    // means the history contains no such traffic at all.
    constexpr std::uint32_t kNoAccount = 0xffffffffU;
    constexpr std::uint16_t kNoCurrency = 0xffffU;
    const auto account_marker = [&](const ledger::AccountID& id) {
        return columns.accounts.find(id).value_or(kNoAccount);
    };
    const auto currency_marker = [&](const ledger::Currency& currency) {
        return columns.currencies.find(currency).value_or(kNoCurrency);
    };
    const std::uint32_t account_zero = account_marker(population.account_zero);
    const std::uint32_t ripple_spin = account_marker(population.ripple_spin);
    const std::uint16_t mtl = currency_marker(cur("MTL"));
    const std::uint16_t cck = currency_marker(cur("CCK"));

    const auto amount = [&](std::size_t r) {
        return ledger::IouAmount::from_mantissa_exponent(
                   columns.amount_mantissa[r], columns.amount_exponent[r])
            .to_double();
    };

    SpamBreakdown breakdown;
    for (std::size_t r = offset; r < offset + view.size(); ++r) {
        // First match wins, in the order spam.hpp documents.
        const std::uint16_t currency = columns.currency_id[r];
        if (columns.dest_id[r] == account_zero ||
            columns.sender_id[r] == account_zero) {
            ++breakdown.account_zero;
        } else if (columns.dest_id[r] == ripple_spin) {
            ++breakdown.gambling;
        } else if (currency == mtl && currency != kNoCurrency && amount(r) > 1e6) {
            ++breakdown.mtl;
        } else if (currency == cck && currency != kNoCurrency) {
            ++breakdown.cck;
        } else {
            ++breakdown.organic;
        }
    }
    return breakdown;
}

}  // namespace xrpl::datagen
