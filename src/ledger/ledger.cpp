#include "ledger/ledger.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <unordered_map>

#include "util/contract.hpp"

namespace xrpl::ledger {

/// The key maps, flat topology arrays and sharing record of a ledger.
/// Once a clone shares it, nothing changes it again.
struct LedgerState::Topology {
    /// What clone() records on a topology.
    struct Sharing {
        Sharing() = default;
        /// A copied topology starts private, with no clone order derived.
        Sharing(const Sharing& /*other*/) noexcept {}

        /// Set by the first clone(); a ledger holding a frozen topology
        /// copies it before a topology change. Read by the ledger's own
        /// writer, which is ordered after any clone() of that ledger.
        std::atomic<bool> frozen{false};
        std::mutex mutex;  // guards clone_order
        /// lines_of() of every clone of this topology: the line-key
        /// map's iteration order, derived by the first clone().
        std::shared_ptr<const Adjacency> clone_order;
    };

    std::unordered_map<AccountID, std::uint32_t> account_index;
    std::vector<std::uint8_t> ripples;  // by account index
    /// Its iteration order (keys, bucket count, insertion history) is
    /// the clone order; the mapped type does not enter it.
    std::unordered_map<TrustLineKey, std::uint32_t> line_index;
    std::vector<TrustLineIndices> line_ends;  // by line index
    std::unordered_map<Currency, std::uint32_t> currency_index;
    std::vector<Currency> currencies;  // by currency index
    mutable Sharing sharing;
};

namespace {
const std::vector<Offer> kNoOffers;

/// A copy of `from` that keeps its capacity, so the copy's first
/// appends (a clone's new accounts and lines) do not reallocate the
/// store, which would briefly hold it twice. The spare capacity is
/// never written, so it costs address space, not resident memory.
template <typename T>
std::vector<T> copy_with_capacity(const std::vector<T>& from) {
    std::vector<T> to;
    to.reserve(from.capacity());
    to.assign(from.begin(), from.end());
    return to;
}

/// lower_bound order of the key-sorted book list.
bool book_below(const LedgerState::Book& book, const BookKey& key) noexcept {
    return book.first < key;
}
}  // namespace

LedgerState::LedgerState()
    : topology_(std::make_shared<Topology>()),
      adjacency_(std::make_shared<Adjacency>()) {}

LedgerState::LedgerState(std::shared_ptr<const Topology> topology,
                         std::shared_ptr<const Adjacency> adjacency) noexcept
    : topology_(std::move(topology)), adjacency_(std::move(adjacency)) {}

LedgerState LedgerState::clone() const {
    LedgerState copy(topology_, clone_adjacency());
    copy.accounts_ = copy_with_capacity(accounts_);
    copy.lines_ = copy_with_capacity(lines_);
    copy.books_ = books_;
    copy.burned_ = burned_;
    copy.next_offer_id_ = next_offer_id_;
    copy.topology_generation_ = topology_generation_;
    return copy;
}

std::shared_ptr<const LedgerState::Adjacency> LedgerState::clone_adjacency() const {
    Topology::Sharing& sharing = topology_->sharing;
    const std::lock_guard lock(sharing.mutex);
    sharing.frozen.store(true, std::memory_order_relaxed);
    if (sharing.clone_order == nullptr) {
        // Each list gets its exact size up front, and each line names
        // its endpoints' slots, so the fill is two appends per line in
        // the map's order: no hashing, no regrowth.
        auto order = std::make_shared<Adjacency>(adjacency_->size());
        for (std::size_t i = 0; i < order->size(); ++i) {
            (*order)[i].reserve((*adjacency_)[i].size());
        }
        for (const auto& [key, line] : topology_->line_index) {
            const TrustLineIndices& ends = topology_->line_ends[line];
            (*order)[ends.low].push_back(line);
            (*order)[ends.high].push_back(line);
        }
        sharing.clone_order = std::move(order);
    }
    return sharing.clone_order;
}

LedgerState::Owned LedgerState::own_topology() {
    if (topology_->sharing.frozen.load(std::memory_order_relaxed)) {
        topology_ = std::make_shared<Topology>(*topology_);
        adjacency_ = std::make_shared<Adjacency>(*adjacency_);
    }
    // An unfrozen topology, and the adjacency that came with it, were
    // made here or in the constructor (as non-const objects) and are
    // held by this ledger alone: a clone's adjacency always comes
    // with a frozen topology.
    return Owned{const_cast<Topology&>(*topology_),
                 const_cast<Adjacency&>(*adjacency_)};
}

std::optional<std::uint32_t> LedgerState::index_of(const AccountID& id) const noexcept {
    const auto it = topology_->account_index.find(id);
    if (it == topology_->account_index.end()) return std::nullopt;
    return it->second;
}

bool LedgerState::create_account(const AccountID& id, XrpAmount initial_balance,
                                 bool is_gateway, bool allows_rippling) {
    if (index_of(id)) return false;
    const auto index = static_cast<std::uint32_t>(accounts_.size());
    const bool ripples = is_gateway || allows_rippling;
    const Owned owned = own_topology();
    owned.topology.account_index.emplace(id, index);
    owned.topology.ripples.push_back(ripples ? 1 : 0);
    owned.adjacency.emplace_back();
    accounts_.push_back(AccountRoot{id, initial_balance, 0, is_gateway, ripples, index});
    ++topology_generation_;
    return true;
}

const AccountRoot* LedgerState::account(const AccountID& id) const noexcept {
    const auto index = index_of(id);
    return index ? &accounts_[*index] : nullptr;
}

AccountRoot* LedgerState::account(const AccountID& id) noexcept {
    const auto index = index_of(id);
    return index ? &accounts_[*index] : nullptr;
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
    const auto found = topology_->line_index.find(key);
    if (found != topology_->line_index.end()) {
        TrustLine& line = lines_[found->second];
        line.set_limit_of(from, limit);
        return line;
    }
    const auto low = index_of(key.low);
    const auto high = index_of(key.high);
    XRPL_ASSERT(low && high && *low != *high,
                "a trust line joins two distinct existing accounts");
    const Owned owned = own_topology();
    // A currency is numbered when its first line is created.
    const auto [interned, fresh] = owned.topology.currency_index.try_emplace(
        currency, static_cast<std::uint32_t>(owned.topology.currencies.size()));
    if (fresh) owned.topology.currencies.push_back(currency);
    const auto line = static_cast<std::uint32_t>(lines_.size());
    owned.topology.line_index.emplace(key, line);
    owned.topology.line_ends.push_back(TrustLineIndices{*low, *high, interned->second});
    owned.adjacency[*low].push_back(line);
    owned.adjacency[*high].push_back(line);
    const IouAmount zero;
    const bool from_is_low = from == key.low;
    lines_.emplace_back(key, from_is_low ? limit : zero, from_is_low ? zero : limit);
    ++topology_generation_;
    return lines_.back();
}

const TrustLine* LedgerState::trustline(const AccountID& a, const AccountID& b,
                                        Currency currency) const noexcept {
    const auto it = topology_->line_index.find(TrustLineKey::make(a, b, currency));
    return it == topology_->line_index.end() ? nullptr : &lines_[it->second];
}

TrustLine* LedgerState::trustline(const AccountID& a, const AccountID& b,
                                  Currency currency) noexcept {
    const auto it = topology_->line_index.find(TrustLineKey::make(a, b, currency));
    return it == topology_->line_index.end() ? nullptr : &lines_[it->second];
}

TrustLineList LedgerState::lines_of(const AccountID& account) const noexcept {
    const auto index = index_of(account);
    return index ? lines_by_index(*index) : TrustLineList{};
}

TrustLineList LedgerState::lines_by_index(std::uint32_t index) const noexcept {
    return TrustLineList((*adjacency_)[index], lines_.data());
}

std::span<const TrustLineIndices> LedgerState::line_ends() const noexcept {
    return topology_->line_ends;
}

std::span<const std::uint8_t> LedgerState::ripple_flags() const noexcept {
    return topology_->ripples;
}

std::size_t LedgerState::currency_count() const noexcept {
    return topology_->currencies.size();
}

Currency LedgerState::currency_by_index(std::uint32_t index) const {
    return topology_->currencies.at(index);
}

std::optional<std::uint32_t> LedgerState::currency_index(
    Currency currency) const noexcept {
    const auto it = topology_->currency_index.find(currency);
    if (it == topology_->currency_index.end()) return std::nullopt;
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
    auto& entries = book_mutable(BookKey{taker_pays.currency, taker_gets.currency});
    const auto pos = std::upper_bound(
        entries.begin(), entries.end(), offer,
        [](const Offer& a, const Offer& b) { return a.rate() < b.rate(); });
    entries.insert(pos, offer);
    return offer.id;
}

const std::vector<Offer>& LedgerState::book(const BookKey& key) const noexcept {
    const auto it = std::lower_bound(books_.begin(), books_.end(), key, book_below);
    return it == books_.end() || it->first != key ? kNoOffers : it->second;
}

std::vector<Offer>& LedgerState::book_mutable(const BookKey& key) {
    auto it = std::lower_bound(books_.begin(), books_.end(), key, book_below);
    if (it == books_.end() || it->first != key) {
        it = books_.insert(it, Book{key, {}});
    }
    return it->second;
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
