#include "ledger/ledger.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <mutex>
#include <unordered_map>

#include "util/contract.hpp"

namespace xrpl::ledger {

/// Dense numbering of accounts, lines and currencies: key -> index
/// maps and flat arrays by index. A topology's maps and arrays cover
/// all it numbers; a tail's maps hold only the tail's keys, while its
/// arrays are the shared ones extended by the tail's entries.
struct LedgerState::Numbering {
    std::unordered_map<AccountID, std::uint32_t> account_index;
    std::vector<std::uint8_t> ripples;  // by account index
    /// A topology's map iteration order (keys, bucket count, insertion
    /// history) is the clone order; the mapped type does not enter it.
    std::unordered_map<TrustLineKey, std::uint32_t> line_index;
    std::vector<TrustLineIndices> line_ends;  // by line index
    std::unordered_map<Currency, std::uint32_t> currency_index;
    std::vector<Currency> currencies;  // by currency index
};

/// The numbering and sharing record of a ledger. Once a clone shares
/// it, nothing changes it again.
struct LedgerState::Topology : Numbering {
    /// What clone() and shared_derived() record on a topology.
    struct Sharing {
        Sharing() = default;
        /// A copied topology starts private, with nothing derived.
        Sharing(const Sharing& /*other*/) noexcept {}

        /// Set by the first clone(); a ledger holding a frozen topology
        /// writes its topology changes to its tail. Read by the
        /// ledger's own writer, which is ordered after any clone() of
        /// that ledger.
        std::atomic<bool> frozen{false};
        std::mutex mutex;  // guards clone_order and the derived objects
        /// lines_of() of every clone of this topology: the line-key
        /// map's iteration order, derived by the first clone().
        std::shared_ptr<const Adjacency> clone_order;
        /// shared_derived()'s object for the ledger that built this
        /// topology (creation order) and for its clones (clone_order).
        std::shared_ptr<const void> creation_order_derived;
        std::shared_ptr<const void> clone_order_derived;
    };

    mutable Sharing sharing;
};

/// A ledger's topology changes since its topology froze.
struct LedgerState::Tail : Numbering {
    /// The lines_of() list of each account a tail line touches: its
    /// shared list, then its tail lines in creation order.
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> lists;
};

namespace {
const std::vector<Offer> kNoOffers;

/// A copy of `from` that keeps its capacity, so the copy's first
/// appends (a clone's new accounts and lines, a tail's first entries)
/// do not reallocate the store, which would briefly hold it twice. The
/// spare capacity is never written, so it costs address space, not
/// resident memory.
template <typename T>
std::vector<T> copy_with_capacity(const std::vector<T>& from) {
    std::vector<T> to;
    to.reserve(from.capacity());
    // Appends, not assign(): AccountRoot's creation-time fields are
    // const, so it can be copied but not assigned.
    std::ranges::copy(from, std::back_inserter(to));
    return to;
}

/// The index `key` has in the shared map, else in the tail's, if any.
template <typename Key>
std::optional<std::uint32_t> find_index(
    const std::unordered_map<Key, std::uint32_t>& shared,
    const std::unordered_map<Key, std::uint32_t>* tail, const Key& key) noexcept {
    if (const auto it = shared.find(key); it != shared.end()) return it->second;
    if (tail != nullptr) {
        if (const auto it = tail->find(key); it != tail->end()) return it->second;
    }
    return std::nullopt;
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

LedgerState::~LedgerState() = default;
LedgerState::LedgerState(LedgerState&&) noexcept = default;
LedgerState& LedgerState::operator=(LedgerState&&) noexcept = default;

LedgerState LedgerState::clone() const {
    LedgerState copy =
        tail_ ? flattened() : LedgerState(topology_, clone_adjacency());
    copy.accounts_ = copy_with_capacity(accounts_);
    copy.lines_ = copy_with_capacity(lines_);
    copy.books_ = books_;
    copy.burned_ = burned_;
    copy.next_offer_id_ = next_offer_id_;
    copy.topology_generation_ = topology_generation_;
    return copy;
}

namespace {
/// Every account's lines in the iteration order of `topology`'s line
/// map. Each list gets its exact size (`degree`) up front, and each
/// line names its endpoints' slots, so the fill is two appends per
/// line in the map's order: no hashing, no regrowth.
template <typename Topology, typename Degree>
std::shared_ptr<std::vector<std::vector<std::uint32_t>>> map_order(
    const Topology& topology, std::size_t accounts, const Degree& degree) {
    auto order = std::make_shared<std::vector<std::vector<std::uint32_t>>>(accounts);
    for (std::uint32_t i = 0; i < accounts; ++i) (*order)[i].reserve(degree(i));
    for (const auto& [key, line] : topology.line_index) {
        const TrustLineIndices& ends = topology.line_ends[line];
        (*order)[ends.low].push_back(line);
        (*order)[ends.high].push_back(line);
    }
    return order;
}
}  // namespace

std::shared_ptr<const LedgerState::Adjacency> LedgerState::clone_adjacency() const {
    Topology::Sharing& sharing = topology_->sharing;
    const std::lock_guard lock(sharing.mutex);
    sharing.frozen.store(true, std::memory_order_relaxed);
    if (sharing.clone_order == nullptr) {
        sharing.clone_order =
            map_order(*topology_, adjacency_->size(),
                      [&](std::uint32_t i) { return (*adjacency_)[i].size(); });
    }
    return sharing.clone_order;
}

LedgerState LedgerState::flattened() const {
    // The shared maps are copied whole (same bucket count and rehash
    // state) and the tail's keys inserted in creation order, so the
    // line map iterates, and the clone lists its lines, in the order
    // LedgerCloneTest pins for a clone of a modified clone.
    auto flat = std::make_shared<Topology>(*topology_);
    const std::size_t shared_accounts = topology_->ripples.size();
    const std::size_t shared_lines = topology_->line_ends.size();
    const std::size_t shared_currencies = topology_->currencies.size();
    flat->ripples = tail_->ripples;
    flat->line_ends = tail_->line_ends;
    flat->currencies = tail_->currencies;
    for (std::size_t a = shared_accounts; a < accounts_.size(); ++a) {
        flat->account_index.emplace(accounts_[a].id, static_cast<std::uint32_t>(a));
    }
    for (std::size_t l = shared_lines; l < lines_.size(); ++l) {
        flat->line_index.emplace(lines_[l].key(), static_cast<std::uint32_t>(l));
    }
    for (std::size_t c = shared_currencies; c < flat->currencies.size(); ++c) {
        flat->currency_index.emplace(flat->currencies[c],
                                     static_cast<std::uint32_t>(c));
    }
    // No other ledger sees `flat` yet: it is frozen and given its clone
    // order without the lock.
    flat->sharing.frozen.store(true, std::memory_order_relaxed);
    flat->sharing.clone_order =
        map_order(*flat, accounts_.size(),
                  [&](std::uint32_t i) { return lines_by_index(i).size(); });
    std::shared_ptr<const Adjacency> order = flat->sharing.clone_order;
    return LedgerState(std::move(flat), std::move(order));
}

std::shared_ptr<const void> LedgerState::shared_derived(
    const SharedMake& make) const {
    Topology::Sharing& sharing = topology_->sharing;
    const std::lock_guard lock(sharing.mutex);
    std::shared_ptr<const void>& slot = adjacency_ == sharing.clone_order
                                            ? sharing.clone_order_derived
                                            : sharing.creation_order_derived;
    if (slot == nullptr) {
        slot = make(TopologySize{
            static_cast<std::uint32_t>(topology_->ripples.size()),
            static_cast<std::uint32_t>(topology_->line_ends.size()),
            static_cast<std::uint32_t>(topology_->currencies.size())});
    }
    return slot;
}

LedgerState::Numbering& LedgerState::writable_numbering() {
    if (tail_ == nullptr &&
        !topology_->sharing.frozen.load(std::memory_order_relaxed)) {
        // An unfrozen topology, and the adjacency that came with it,
        // were made here or in the constructor (as non-const objects)
        // and are held by this ledger alone: a clone's adjacency always
        // comes with a frozen topology. So it changes in place, and
        // nothing but this ledger can read the derived object it drops.
        auto& topology = const_cast<Topology&>(*topology_);
        topology.sharing.creation_order_derived.reset();
        return topology;
    }
    if (tail_ == nullptr) {
        tail_ = std::make_unique<Tail>();
        tail_->ripples = copy_with_capacity(topology_->ripples);
        tail_->line_ends = copy_with_capacity(topology_->line_ends);
        tail_->currencies = topology_->currencies;
    }
    return *tail_;
}

std::vector<std::uint32_t>& LedgerState::writable_list(std::uint32_t account) {
    if (tail_ == nullptr) return const_cast<Adjacency&>(*adjacency_)[account];
    const auto [it, fresh] = tail_->lists.try_emplace(account);
    if (fresh && account < adjacency_->size()) it->second = (*adjacency_)[account];
    return it->second;
}

const LedgerState::Numbering& LedgerState::numbering() const noexcept {
    if (tail_ != nullptr) return *tail_;
    return *topology_;
}

std::optional<std::uint32_t> LedgerState::index_of(
    const AccountID& id) const noexcept {
    return find_index(topology_->account_index,
                      tail_ ? &tail_->account_index : nullptr, id);
}

std::optional<std::uint32_t> LedgerState::line_index_of(
    const TrustLineKey& key) const noexcept {
    return find_index(topology_->line_index,
                      tail_ ? &tail_->line_index : nullptr, key);
}

bool LedgerState::create_account(const AccountID& id, XrpAmount initial_balance,
                                 bool is_gateway, bool allows_rippling) {
    if (index_of(id)) return false;
    const auto index = static_cast<std::uint32_t>(accounts_.size());
    const bool ripples = is_gateway || allows_rippling;
    Numbering& numbering = writable_numbering();
    numbering.account_index.emplace(id, index);
    numbering.ripples.push_back(ripples ? 1 : 0);
    // A tail lists an account once a line touches it.
    if (tail_ == nullptr) const_cast<Adjacency&>(*adjacency_).emplace_back();
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
    if (const auto found = line_index_of(key)) {
        TrustLine& line = lines_[*found];
        line.set_limit_of(from, limit);
        return line;
    }
    const auto low = index_of(key.low);
    const auto high = index_of(key.high);
    XRPL_ASSERT(low && high && *low != *high,
                "a trust line joins two distinct existing accounts");
    // A currency is numbered when its first line is created.
    std::optional<std::uint32_t> currency_number = this->currency_index(currency);
    Numbering& numbering = writable_numbering();
    if (!currency_number) {
        currency_number = static_cast<std::uint32_t>(numbering.currencies.size());
        numbering.currency_index.emplace(currency, *currency_number);
        numbering.currencies.push_back(currency);
    }
    const auto line = static_cast<std::uint32_t>(lines_.size());
    numbering.line_index.emplace(key, line);
    numbering.line_ends.push_back(TrustLineIndices{*low, *high, *currency_number});
    writable_list(*low).push_back(line);
    writable_list(*high).push_back(line);
    const IouAmount zero;
    const bool from_is_low = from == key.low;
    lines_.emplace_back(key, from_is_low ? limit : zero, from_is_low ? zero : limit);
    ++topology_generation_;
    return lines_.back();
}

const TrustLine* LedgerState::trustline(const AccountID& a, const AccountID& b,
                                        Currency currency) const noexcept {
    const auto line = line_index_of(TrustLineKey::make(a, b, currency));
    return line ? &lines_[*line] : nullptr;
}

TrustLine* LedgerState::trustline(const AccountID& a, const AccountID& b,
                                  Currency currency) noexcept {
    const auto line = line_index_of(TrustLineKey::make(a, b, currency));
    return line ? &lines_[*line] : nullptr;
}

TrustLineList LedgerState::lines_of(const AccountID& account) const noexcept {
    const auto index = index_of(account);
    return index ? lines_by_index(*index) : TrustLineList{};
}

TrustLineList LedgerState::lines_by_index(std::uint32_t index) const noexcept {
    if (tail_ != nullptr) {
        if (const auto it = tail_->lists.find(index); it != tail_->lists.end()) {
            return TrustLineList(it->second, lines_.data());
        }
        // An account the tail created and no line touches yet.
        if (index >= adjacency_->size()) return TrustLineList({}, lines_.data());
    }
    return TrustLineList((*adjacency_)[index], lines_.data());
}

std::span<const TrustLineIndices> LedgerState::line_ends() const noexcept {
    return numbering().line_ends;
}

std::span<const std::uint8_t> LedgerState::ripple_flags() const noexcept {
    return numbering().ripples;
}

std::size_t LedgerState::currency_count() const noexcept {
    return numbering().currencies.size();
}

Currency LedgerState::currency_by_index(std::uint32_t index) const {
    return numbering().currencies.at(index);
}

std::optional<std::uint32_t> LedgerState::currency_index(
    Currency currency) const noexcept {
    return find_index(topology_->currency_index,
                      tail_ ? &tail_->currency_index : nullptr, currency);
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
