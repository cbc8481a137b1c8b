// Trust lines — the credit edges of the Ripple network.
//
// A trust line between two accounts (stored once, under the
// canonically ordered (low, high) pair, as the real ledger does)
// carries a signed balance and the two directional trust limits.
// IOU payments ripple along trust lines; the capacity available in a
// direction is  balance-from-receiver's-view + receiver's-limit.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>

#include "ledger/amount.hpp"
#include "ledger/types.hpp"

namespace xrpl::ledger {

/// Canonical trust line key: low < high.
struct TrustLineKey {
    AccountID low;
    AccountID high;
    Currency currency;

    /// Build the canonical key for an unordered account pair.
    [[nodiscard]] static TrustLineKey make(const AccountID& a, const AccountID& b,
                                           Currency currency) noexcept;

    friend auto operator<=>(const TrustLineKey&, const TrustLineKey&) = default;
};

/// The ledger's dense indices of a line's two endpoints and its
/// currency (AccountRoot::index, LedgerState::currency_index). Fixed
/// when the ledger creates the line, like the key they mirror; the
/// ledger's topology keeps them (LedgerState::line_ends), so topology
/// walks address arrays instead of hashing IDs.
struct TrustLineIndices {
    std::uint32_t low = 0;
    std::uint32_t high = 0;
    std::uint32_t currency = 0;
};

/// A credit line between two accounts in one currency.
class TrustLine {
public:
    TrustLine(TrustLineKey key, IouAmount limit_low, IouAmount limit_high) noexcept
        : key_(key), limit_low_(limit_low), limit_high_(limit_high) {}

    [[nodiscard]] const TrustLineKey& key() const noexcept { return key_; }

    /// Balance from the low account's perspective: positive means the
    /// high account owes the low account.
    [[nodiscard]] IouAmount balance() const noexcept { return balance_; }

    /// The amount `account` is owed on this line (signed).
    [[nodiscard]] IouAmount balance_for(const AccountID& account) const noexcept;

    /// Trust declared BY `account` towards the other endpoint — the
    /// cap on how much the counterparty may owe `account`.
    [[nodiscard]] IouAmount limit_of(const AccountID& account) const noexcept;
    void set_limit_of(const AccountID& account, IouAmount limit) noexcept;

    /// How much value can still flow from `sender` to the other
    /// endpoint: receiver's current claim headroom.
    [[nodiscard]] IouAmount capacity_from(const AccountID& sender) const noexcept;

    /// capacity_from keyed by endpoint position instead of identity:
    /// the CSR graph index stores "which end is the sender" as one bit
    /// so its inner loop never compares AccountIDs. Bit-for-bit equal
    /// to capacity_from(low) / capacity_from(high).
    [[nodiscard]] IouAmount directed_capacity(bool from_low) const noexcept;

    /// Move `amount` of value from `sender` to the other endpoint.
    /// Returns false (and leaves the line untouched) if `amount`
    /// exceeds the current capacity or is not positive.
    [[nodiscard]] bool transfer_from(const AccountID& sender, IouAmount amount) noexcept;

    /// Byte-exact rollback support: reset the balance to a previously
    /// observed value (no checks — journal use only).
    void restore_balance(IouAmount balance) noexcept { balance_ = balance; }

    /// Which endpoint is the counterparty of `account`.
    [[nodiscard]] const AccountID& peer_of(const AccountID& account) const noexcept;

    /// True if `account` is one of the two endpoints.
    [[nodiscard]] bool involves(const AccountID& account) const noexcept {
        return account == key_.low || account == key_.high;
    }

private:
    TrustLineKey key_;
    IouAmount balance_;     // high owes low when positive
    IouAmount limit_low_;   // low's trust towards high
    IouAmount limit_high_;  // high's trust towards low
};

}  // namespace xrpl::ledger

template <>
struct std::hash<xrpl::ledger::TrustLineKey> {
    std::size_t operator()(const xrpl::ledger::TrustLineKey& k) const noexcept {
        std::size_t seed = std::hash<xrpl::ledger::AccountID>{}(k.low);
        seed ^= std::hash<xrpl::ledger::AccountID>{}(k.high) + 0x9e3779b97f4a7c15ULL +
                (seed << 6) + (seed >> 2);
        seed ^= std::hash<xrpl::ledger::Currency>{}(k.currency) +
                0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
        return seed;
    }
};
