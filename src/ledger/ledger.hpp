// Ledger state: accounts, trust lines, and order books.
//
// This is the mutable "current ledger" the payment engine executes
// against. Trust lines are stored node-based so pointers handed to
// the adjacency index stay valid across insertions. The topology is
// addressed by dense index: accounts and currencies are numbered in
// creation order, every trust line records the numbers of its two
// endpoints and its currency, and the adjacency lists are a vector
// keyed by account number. So clone() and paths::GraphIndex walk it
// without hashing an AccountID or searching for a currency.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ledger/amount.hpp"
#include "ledger/trustline.hpp"
#include "ledger/types.hpp"

namespace xrpl::ledger {

/// Per-account root entry.
struct AccountRoot {
    AccountID id;
    XrpAmount balance;        // native XRP, in drops
    std::uint32_t sequence = 0;
    bool is_gateway = false;  // publicly-announced gateway flag (Fig 7 labelling)
    /// The DefaultRipple semantics of the real ledger: payments may
    /// ripple THROUGH an account (use it as an intermediate hop) only
    /// if it permits it. Gateways, Market Makers, and hub accounts
    /// enable it; ordinary users and merchants do not, so strangers
    /// cannot route value through their balances.
    bool allows_rippling = false;
    /// Dense index assigned at creation; lets graph algorithms use
    /// flat arrays instead of hash maps.
    std::uint32_t index = 0;
};

/// A currency-exchange offer: the owner sells `taker_gets` in
/// exchange for `taker_pays` (names are from the taker's viewpoint,
/// as in the real ledger).
struct Offer {
    std::uint64_t id = 0;
    AccountID owner;
    Amount taker_pays;
    Amount taker_gets;

    /// Price the taker pays per unit received; lower is better for
    /// the taker. Books are kept sorted ascending by rate.
    [[nodiscard]] double rate() const noexcept {
        const double gets = taker_gets.value.to_double();
        if (gets <= 0.0) return 0.0;
        return taker_pays.value.to_double() / gets;
    }
};

/// An order book is identified by the (pays, gets) currency pair.
struct BookKey {
    Currency pays;
    Currency gets;
    friend auto operator<=>(const BookKey&, const BookKey&) = default;
};

}  // namespace xrpl::ledger

template <>
struct std::hash<xrpl::ledger::BookKey> {
    std::size_t operator()(const xrpl::ledger::BookKey& k) const noexcept {
        std::size_t seed = std::hash<xrpl::ledger::Currency>{}(k.pays);
        seed ^= std::hash<xrpl::ledger::Currency>{}(k.gets) + 0x9e3779b97f4a7c15ULL +
                (seed << 6) + (seed >> 2);
        return seed;
    }
};

namespace xrpl::ledger {

/// The current (open) ledger state.
class LedgerState {
public:
    LedgerState() = default;

    // Not copyable (the adjacency index holds interior pointers);
    // movable is fine because unordered_map nodes do not relocate.
    // Use clone() for an explicit deep copy.
    LedgerState(const LedgerState&) = delete;
    LedgerState& operator=(const LedgerState&) = delete;
    LedgerState(LedgerState&&) = default;
    LedgerState& operator=(LedgerState&&) = default;

    /// Deep copy with a freshly rebuilt adjacency index, filled from
    /// the lines' recorded endpoint indices in the copied line map's
    /// iteration order (so a clone's lines_of() order is the map's,
    /// as it has always been, not the original's creation order).
    /// Replay experiments run against a clone so the original
    /// snapshot stays pristine.
    [[nodiscard]] LedgerState clone() const;

    // --- accounts ---------------------------------------------------

    /// Create an account with an initial XRP balance. Returns false if
    /// it already exists. Gateways allow rippling by default; pass
    /// `allows_rippling` explicitly for non-gateway liquidity nodes.
    bool create_account(const AccountID& id, XrpAmount initial_balance,
                        bool is_gateway = false, bool allows_rippling = false);

    [[nodiscard]] const AccountRoot* account(const AccountID& id) const noexcept;
    [[nodiscard]] AccountRoot* account(const AccountID& id) noexcept;
    [[nodiscard]] std::size_t account_count() const noexcept { return accounts_.size(); }

    /// The account created with dense index `index` (0-based, in
    /// creation order). Precondition: index < account_count().
    [[nodiscard]] const AccountID& account_by_index(std::uint32_t index) const {
        return index_to_account_.at(index);
    }

    /// Direct XRP transfer plus fee burn; fails on missing accounts or
    /// insufficient balance. (Fees are destroyed, not redistributed —
    /// §III-A of the paper.)
    bool xrp_payment(const AccountID& from, const AccountID& to, XrpAmount amount,
                     XrpAmount fee = XrpAmount{10});

    /// Total XRP destroyed by fees so far.
    [[nodiscard]] XrpAmount burned_fees() const noexcept { return burned_; }

    /// Burn `fee` from an account if it can afford it (the payment
    /// engine charges successful transactions through this). Returns
    /// whether the fee was collected.
    bool burn_fee(const AccountID& account, XrpAmount fee);

    // --- trust lines -------------------------------------------------

    /// `from` declares trust of `limit` towards `to` in `currency`.
    /// Creates the line if absent; updates the limit otherwise.
    /// Precondition: `from` and `to` exist and differ (a new line
    /// records both accounts' dense indices).
    TrustLine& set_trust(const AccountID& from, const AccountID& to,
                         Currency currency, IouAmount limit);

    [[nodiscard]] const TrustLine* trustline(const AccountID& a, const AccountID& b,
                                             Currency currency) const noexcept;
    [[nodiscard]] TrustLine* trustline(const AccountID& a, const AccountID& b,
                                       Currency currency) noexcept;

    /// All trust lines touching `account` (any currency), in creation
    /// order (in a clone: the order clone() documents).
    [[nodiscard]] const std::vector<TrustLine*>& lines_of(
        const AccountID& account) const noexcept;

    /// lines_of() the account with dense index `index`, without the
    /// ID lookup. Precondition: index < account_count().
    [[nodiscard]] const std::vector<TrustLine*>& lines_by_index(
        std::uint32_t index) const noexcept {
        return adjacency_[index];
    }

    [[nodiscard]] std::size_t trustline_count() const noexcept { return lines_.size(); }

    /// Currencies are numbered densely (0-based) in the order their
    /// first trust line was created; TrustLine::currency_index() is
    /// this number.
    [[nodiscard]] std::size_t currency_count() const noexcept {
        return index_to_currency_.size();
    }
    /// The currency numbered `index`. Precondition: index < currency_count().
    [[nodiscard]] Currency currency_by_index(std::uint32_t index) const {
        return index_to_currency_.at(index);
    }
    /// The number of `currency`, or nullopt if no trust line uses it.
    [[nodiscard]] std::optional<std::uint32_t> currency_index(
        Currency currency) const noexcept;

    /// Monotonic counter bumped on every TOPOLOGY change — account
    /// creation or trust-line creation. Balance and limit updates on
    /// existing lines do NOT bump it: derived adjacency structures
    /// (paths::GraphIndex) read capacities live through TrustLine
    /// pointers, so only new nodes/edges invalidate them.
    [[nodiscard]] std::uint64_t topology_generation() const noexcept {
        return topology_generation_;
    }

    /// Net IOU position of an account across all its lines, converted
    /// with per-currency rates (currency -> value of 1 unit in the
    /// reference currency). Used for Fig 7(c) balances.
    [[nodiscard]] double net_iou_balance(
        const AccountID& account,
        const std::function<double(Currency)>& rate_to_reference) const;

    /// Sum of trust limits granted TO `account` by peers (positive
    /// trust of Fig 7(b)) and declared BY `account` (negative trust).
    struct TrustSummary {
        double received = 0.0;
        double given = 0.0;
    };
    [[nodiscard]] TrustSummary trust_summary(
        const AccountID& account,
        const std::function<double(Currency)>& rate_to_reference) const;

    // --- order books --------------------------------------------------

    /// Place an offer; returns its id. The book stays sorted by rate.
    std::uint64_t place_offer(const AccountID& owner, Amount taker_pays,
                              Amount taker_gets);

    /// The (sorted, best first) book for a currency pair; empty if none.
    [[nodiscard]] const std::vector<Offer>& book(const BookKey& key) const noexcept;
    [[nodiscard]] std::vector<Offer>& book_mutable(const BookKey& key) noexcept;

    [[nodiscard]] const std::unordered_map<BookKey, std::vector<Offer>>& books()
        const noexcept {
        return books_;
    }

    [[nodiscard]] std::size_t offer_count() const noexcept;

    /// Remove every offer owned by `owner` (Market-Maker-removal replay).
    void remove_offers_of(const AccountID& owner);

    /// Remove all offers in the system.
    void clear_all_offers() noexcept { books_.clear(); }

    /// Iterate all accounts (order unspecified).
    [[nodiscard]] const std::unordered_map<AccountID, AccountRoot>& accounts()
        const noexcept {
        return accounts_;
    }

private:
    std::unordered_map<AccountID, AccountRoot> accounts_;
    std::vector<AccountID> index_to_account_;
    std::unordered_map<TrustLineKey, TrustLine> lines_;
    std::vector<std::vector<TrustLine*>> adjacency_;  // by account index
    std::vector<Currency> index_to_currency_;
    std::unordered_map<Currency, std::uint32_t> currency_to_index_;
    std::unordered_map<BookKey, std::vector<Offer>> books_;
    XrpAmount burned_;
    std::uint64_t next_offer_id_ = 1;
    std::uint64_t topology_generation_ = 0;
};

}  // namespace xrpl::ledger
