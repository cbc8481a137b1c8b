#include "ledger/trustline.hpp"

namespace xrpl::ledger {

TrustLineKey TrustLineKey::make(const AccountID& a, const AccountID& b,
                                Currency currency) noexcept {
    if (a < b) return {a, b, currency};
    return {b, a, currency};
}

IouAmount TrustLine::balance_for(const AccountID& account) const noexcept {
    return account == key_.low ? balance_ : balance_.negated();
}

IouAmount TrustLine::limit_of(const AccountID& account) const noexcept {
    return account == key_.low ? limit_low_ : limit_high_;
}

void TrustLine::set_limit_of(const AccountID& account, IouAmount limit) noexcept {
    if (account == key_.low) {
        limit_low_ = limit;
    } else {
        limit_high_ = limit;
    }
}

IouAmount TrustLine::capacity_from(const AccountID& sender) const noexcept {
    // Receiver's claim after the transfer must stay within the
    // receiver's declared limit:
    //   capacity = receiver_limit - receiver_current_claim
    //            = receiver_limit + balance_for(sender)   (claims are
    //              antisymmetric across the line)
    const AccountID& receiver = peer_of(sender);
    return limit_of(receiver) - balance_for(receiver);
}

IouAmount TrustLine::directed_capacity(bool from_low) const noexcept {
    // Same expressions capacity_from evaluates after resolving the
    // receiver: sender == low -> limit_high_ - balance_for(high).
    return from_low ? limit_high_ - balance_.negated() : limit_low_ - balance_;
}

bool TrustLine::transfer_from(const AccountID& sender, IouAmount amount) noexcept {
    if (amount.is_zero() || amount.is_negative()) return false;
    if (amount > capacity_from(sender)) return false;
    // Sender pays: the sender's claim decreases (or its debt grows).
    if (sender == key_.low) {
        balance_ = balance_ - amount;
    } else {
        balance_ = balance_ + amount;
    }
    return true;
}

const AccountID& TrustLine::peer_of(const AccountID& account) const noexcept {
    return account == key_.low ? key_.high : key_.low;
}

}  // namespace xrpl::ledger
