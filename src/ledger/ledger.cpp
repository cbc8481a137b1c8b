#include "ledger/ledger.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace xrpl::ledger {

namespace {
const std::vector<TrustLine*> kNoLines;
const std::vector<Offer> kNoOffers;
}  // namespace

LedgerState LedgerState::clone() const {
    LedgerState copy;
    copy.accounts_ = accounts_;
    copy.index_to_account_ = index_to_account_;
    copy.lines_ = lines_;
    copy.index_to_currency_ = index_to_currency_;
    copy.currency_to_index_ = currency_to_index_;
    copy.books_ = books_;
    copy.burned_ = burned_;
    copy.next_offer_id_ = next_offer_id_;
    copy.topology_generation_ = topology_generation_;
    // Each list gets its exact size up front, and each line names its
    // endpoints' slots, so the fill is two appends per line: no
    // hashing, no regrowth.
    copy.adjacency_.resize(adjacency_.size());
    for (std::size_t i = 0; i < adjacency_.size(); ++i) {
        copy.adjacency_[i].reserve(adjacency_[i].size());
    }
    for (auto& [key, line] : copy.lines_) {
        copy.adjacency_[line.low_index()].push_back(&line);
        copy.adjacency_[line.high_index()].push_back(&line);
    }
    return copy;
}

bool LedgerState::create_account(const AccountID& id, XrpAmount initial_balance,
                                 bool is_gateway, bool allows_rippling) {
    const auto index = static_cast<std::uint32_t>(accounts_.size());
    const auto [it, inserted] = accounts_.try_emplace(
        id, AccountRoot{id, initial_balance, 0, is_gateway,
                        is_gateway || allows_rippling, index});
    (void)it;
    if (inserted) {
        index_to_account_.push_back(id);
        adjacency_.emplace_back();
        ++topology_generation_;
    }
    return inserted;
}

const AccountRoot* LedgerState::account(const AccountID& id) const noexcept {
    const auto it = accounts_.find(id);
    return it == accounts_.end() ? nullptr : &it->second;
}

AccountRoot* LedgerState::account(const AccountID& id) noexcept {
    const auto it = accounts_.find(id);
    return it == accounts_.end() ? nullptr : &it->second;
}

bool LedgerState::xrp_payment(const AccountID& from, const AccountID& to,
                              XrpAmount amount, XrpAmount fee) {
    if (amount.drops <= 0) return false;
    AccountRoot* src = account(from);
    AccountRoot* dst = account(to);
    if (src == nullptr || dst == nullptr) return false;
    if (src->balance.drops < amount.drops + fee.drops) return false;
    src->balance.drops -= amount.drops + fee.drops;
    dst->balance.drops += amount.drops;
    burned_.drops += fee.drops;
    ++src->sequence;
    return true;
}

bool LedgerState::burn_fee(const AccountID& account, XrpAmount fee) {
    AccountRoot* root = this->account(account);
    if (root == nullptr || fee.drops <= 0) return false;
    if (root->balance.drops < fee.drops) return false;
    root->balance.drops -= fee.drops;
    burned_.drops += fee.drops;
    return true;
}

TrustLine& LedgerState::set_trust(const AccountID& from, const AccountID& to,
                                  Currency currency, IouAmount limit) {
    const TrustLineKey key = TrustLineKey::make(from, to, currency);
    auto it = lines_.find(key);
    if (it == lines_.end()) {
        const AccountRoot* low = account(key.low);
        const AccountRoot* high = account(key.high);
        XRPL_ASSERT(low != nullptr && high != nullptr && low != high,
                    "a trust line joins two distinct existing accounts");
        // A currency is numbered when its first line is created.
        const auto [interned, fresh] = currency_to_index_.try_emplace(
            currency, static_cast<std::uint32_t>(index_to_currency_.size()));
        if (fresh) index_to_currency_.push_back(currency);
        const IouAmount zero;
        const bool from_is_low = from == key.low;
        TrustLine line(key, from_is_low ? limit : zero, from_is_low ? zero : limit,
                       TrustLineIndices{low->index, high->index, interned->second});
        it = lines_.emplace(key, line).first;
        adjacency_[low->index].push_back(&it->second);
        adjacency_[high->index].push_back(&it->second);
        ++topology_generation_;
    } else {
        it->second.set_limit_of(from, limit);
    }
    return it->second;
}

const TrustLine* LedgerState::trustline(const AccountID& a, const AccountID& b,
                                        Currency currency) const noexcept {
    const auto it = lines_.find(TrustLineKey::make(a, b, currency));
    return it == lines_.end() ? nullptr : &it->second;
}

TrustLine* LedgerState::trustline(const AccountID& a, const AccountID& b,
                                  Currency currency) noexcept {
    const auto it = lines_.find(TrustLineKey::make(a, b, currency));
    return it == lines_.end() ? nullptr : &it->second;
}

const std::vector<TrustLine*>& LedgerState::lines_of(
    const AccountID& account) const noexcept {
    const AccountRoot* root = this->account(account);
    return root == nullptr ? kNoLines : adjacency_[root->index];
}

std::optional<std::uint32_t> LedgerState::currency_index(
    Currency currency) const noexcept {
    const auto it = currency_to_index_.find(currency);
    if (it == currency_to_index_.end()) return std::nullopt;
    return it->second;
}

double LedgerState::net_iou_balance(
    const AccountID& account,
    const std::function<double(Currency)>& rate_to_reference) const {
    double total = 0.0;
    for (const TrustLine* line : lines_of(account)) {
        total += line->balance_for(account).to_double() *
                 rate_to_reference(line->key().currency);
    }
    return total;
}

LedgerState::TrustSummary LedgerState::trust_summary(
    const AccountID& account,
    const std::function<double(Currency)>& rate_to_reference) const {
    TrustSummary summary;
    for (const TrustLine* line : lines_of(account)) {
        const double rate = rate_to_reference(line->key().currency);
        const AccountID& peer = line->peer_of(account);
        summary.received += line->limit_of(peer).to_double() * rate;
        summary.given += line->limit_of(account).to_double() * rate;
    }
    return summary;
}

std::uint64_t LedgerState::place_offer(const AccountID& owner, Amount taker_pays,
                                       Amount taker_gets) {
    Offer offer{next_offer_id_++, owner, taker_pays, taker_gets};
    auto& entries = books_[BookKey{taker_pays.currency, taker_gets.currency}];
    const auto pos = std::upper_bound(
        entries.begin(), entries.end(), offer,
        [](const Offer& a, const Offer& b) { return a.rate() < b.rate(); });
    entries.insert(pos, offer);
    return offer.id;
}

const std::vector<Offer>& LedgerState::book(const BookKey& key) const noexcept {
    const auto it = books_.find(key);
    return it == books_.end() ? kNoOffers : it->second;
}

std::vector<Offer>& LedgerState::book_mutable(const BookKey& key) noexcept {
    return books_[key];
}

std::size_t LedgerState::offer_count() const noexcept {
    std::size_t total = 0;
    for (const auto& [key, entries] : books_) total += entries.size();
    return total;
}

void LedgerState::remove_offers_of(const AccountID& owner) {
    for (auto& [key, entries] : books_) {
        std::erase_if(entries, [&](const Offer& o) { return o.owner == owner; });
    }
}

}  // namespace xrpl::ledger
