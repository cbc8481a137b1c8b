// Ledger state: accounts, trust lines, and order books.
//
// This is the mutable "current ledger" the payment engine executes
// against. It is split in two (DESIGN.md §16):
//   * per-ledger STATE, which clone() copies as flat arrays: the trust
//     lines in a vector by dense line index, the account roots
//     (balances, sequences) in a vector by dense account index, and
//     the order books;
//   * TOPOLOGY, which clones share through std::shared_ptr<const ...>:
//     the AccountID / TrustLineKey / Currency -> index maps, each
//     line's endpoint and currency indices, the accounts' rippling
//     flags, and the adjacency lists of line indices.
// A topology is frozen by the first clone that shares it. A ledger
// holding a frozen topology keeps its later accounts, lines and
// currencies in a private TAIL over it: small key maps that lookups
// consult after the shared ones, the flat arrays extended by the new
// entries, and the lists of the accounts the new lines touch. So no
// ledger ever changes what another one sees, and none copies a shared
// key map, except clone() of a ledger with a tail, which flattens
// shared part and tail into a new topology for the clone. A topology
// no clone has frozen is held by one ledger and changes in place.
//
// Order contract: lines_of() is in creation order on a ledger built
// by inserts; on a clone it is in the iteration order of the
// line-key map, an order the pinned goldens depend on (ROADMAP item
// 1). That clone-order adjacency is derived at most once per topology
// and shared by every clone of it. A tail appends: an account's
// lines_of() is its shared list followed by its tail lines in
// creation order.
//
// Shared derived data: shared_derived() keeps one object per
// (topology, lines_of() order) pair on the topology, built once under
// its lock; paths::GraphIndex keeps its CSR index there, so every
// clone of one snapshot searches one index.
//
// Pointer validity: a TrustLine* / AccountRoot* from trustline(),
// set_trust() or account(), and a TrustLineList from lines_of(), stay
// valid only until the next topology change (account or trust-line
// creation) on that ledger, which may reallocate the stores. Balance,
// limit and offer updates never invalidate them. Line and account
// indices stay valid for the ledger's lifetime: nothing renumbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ledger/amount.hpp"
#include "ledger/trustline.hpp"
#include "ledger/types.hpp"

namespace xrpl::ledger {

/// The flat fee a successful transaction burns, in drops (§III-A's
/// "small XRP fee"; fees are destroyed, never redistributed).
inline constexpr XrpAmount kBaseFee{10};

/// Per-account root entry, per-ledger state. The balance and sequence
/// change; id, flags and index are fixed when the account is created,
/// so they are const: the topology's key map and ripple_flags() (which
/// paths::GraphIndex caches per edge, for every clone) mirror them.
struct AccountRoot {
    const AccountID id;
    XrpAmount balance;        // native XRP, in drops
    std::uint32_t sequence = 0;
    /// Publicly-announced gateway flag (Fig 7 labelling).
    const bool is_gateway = false;
    /// The DefaultRipple semantics of the real ledger: payments may
    /// ripple THROUGH an account (use it as an intermediate hop) only
    /// if it permits it. Gateways, Market Makers, and hub accounts
    /// enable it; ordinary users and merchants do not, so strangers
    /// cannot route value through their balances.
    const bool allows_rippling = false;
    /// Dense index assigned at creation; lets graph algorithms use
    /// flat arrays instead of hash maps.
    const std::uint32_t index = 0;
};

/// A list of trust lines held as line indices and read as pointers
/// into one ledger's line store: what LedgerState::lines_of() returns.
/// A view, valid until the next topology change on its ledger.
class TrustLineList {
public:
    class Iterator {
    public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = const TrustLine*;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = const TrustLine*;

        Iterator() = default;
        Iterator(const std::uint32_t* position, const TrustLine* store) noexcept
            : position_(position), store_(store) {}

        [[nodiscard]] const TrustLine* operator*() const noexcept {
            return store_ + *position_;
        }
        Iterator& operator++() noexcept {
            ++position_;
            return *this;
        }
        Iterator operator++(int) noexcept {
            const Iterator before = *this;
            ++position_;
            return before;
        }
        friend bool operator==(const Iterator& a, const Iterator& b) noexcept {
            return a.position_ == b.position_;
        }

    private:
        const std::uint32_t* position_ = nullptr;
        const TrustLine* store_ = nullptr;
    };

    TrustLineList() = default;
    TrustLineList(std::span<const std::uint32_t> indices, const TrustLine* store) noexcept
        : indices_(indices), store_(store) {}

    [[nodiscard]] std::size_t size() const noexcept { return indices_.size(); }
    [[nodiscard]] bool empty() const noexcept { return indices_.empty(); }
    [[nodiscard]] const TrustLine* operator[](std::size_t i) const noexcept {
        return store_ + indices_[i];
    }
    [[nodiscard]] Iterator begin() const noexcept {
        return Iterator(indices_.data(), store_);
    }
    [[nodiscard]] Iterator end() const noexcept {
        return Iterator(indices_.data() + indices_.size(), store_);
    }
    /// The line indices themselves, in list order.
    [[nodiscard]] std::span<const std::uint32_t> indices() const noexcept {
        return indices_;
    }

private:
    std::span<const std::uint32_t> indices_;
    const TrustLine* store_ = nullptr;
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

/// The current (open) ledger state.
class LedgerState {
public:
    /// One order book: a (pays, gets) pair and its offers, best first.
    using Book = std::pair<BookKey, std::vector<Offer>>;

    LedgerState();
    ~LedgerState();

    // Not copyable: a plain copy would not say which lines_of() order
    // the copy presents. Use clone(). A moved-from ledger may only be
    // assigned to or destroyed.
    LedgerState(const LedgerState&) = delete;
    LedgerState& operator=(const LedgerState&) = delete;
    LedgerState(LedgerState&&) noexcept;
    LedgerState& operator=(LedgerState&&) noexcept;

    /// Copy of the state (lines, accounts, books: flat arrays, no key
    /// hashed) sharing this ledger's topology, which freezes it. The
    /// clone's lines_of() is in the line-key map's iteration order
    /// (see the header comment), derived once per topology. A ledger
    /// with a tail instead gives the clone a new topology: the shared
    /// key maps copied and the tail's keys inserted in creation order.
    /// Safe to call concurrently on one const ledger. Replay
    /// experiments run against a clone so the original snapshot stays
    /// pristine.
    [[nodiscard]] LedgerState clone() const;

    // --- accounts ---------------------------------------------------

    /// Create an account with an initial XRP balance. Returns false if
    /// it already exists. Gateways allow rippling by default; pass
    /// `allows_rippling` explicitly for non-gateway liquidity nodes.
    bool create_account(const AccountID& id, XrpAmount initial_balance,
                        bool is_gateway = false, bool allows_rippling = false);

    /// The account's root entry, or nullptr. Valid until the next
    /// topology change on this ledger. Through the mutable overload
    /// only the balance and the sequence are writable.
    [[nodiscard]] const AccountRoot* account(const AccountID& id) const noexcept;
    [[nodiscard]] AccountRoot* account(const AccountID& id) noexcept;
    [[nodiscard]] std::size_t account_count() const noexcept { return accounts_.size(); }

    /// The account created with dense index `index` (0-based, in
    /// creation order). Precondition: index < account_count().
    [[nodiscard]] const AccountID& account_by_index(std::uint32_t index) const {
        return accounts_.at(index).id;
    }

    /// Direct XRP transfer plus fee burn; fails on missing accounts or
    /// insufficient balance. (Fees are destroyed, not redistributed —
    /// §III-A of the paper.)
    bool xrp_payment(const AccountID& from, const AccountID& to, XrpAmount amount,
                     XrpAmount fee = kBaseFee);

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
    /// records both accounts' dense indices). The reference is valid
    /// until the next topology change.
    TrustLine& set_trust(const AccountID& from, const AccountID& to,
                         Currency currency, IouAmount limit);

    /// The line, or nullptr. Valid until the next topology change.
    [[nodiscard]] const TrustLine* trustline(const AccountID& a, const AccountID& b,
                                             Currency currency) const noexcept;
    [[nodiscard]] TrustLine* trustline(const AccountID& a, const AccountID& b,
                                       Currency currency) noexcept;

    /// All trust lines touching `account` (any currency), in creation
    /// order (in a clone: the order clone() documents, then the tail's
    /// lines in creation order). Empty for an unknown account.
    [[nodiscard]] TrustLineList lines_of(const AccountID& account) const noexcept;

    /// lines_of() the account with dense index `index`, without the
    /// ID lookup. Precondition: index < account_count().
    [[nodiscard]] TrustLineList lines_by_index(std::uint32_t index) const noexcept;

    /// Every trust line by dense line index (creation order).
    [[nodiscard]] std::span<const TrustLine> lines() const noexcept { return lines_; }
    [[nodiscard]] std::span<TrustLine> lines() noexcept { return lines_; }

    /// Each line's endpoint and currency indices, by line index.
    [[nodiscard]] std::span<const TrustLineIndices> line_ends() const noexcept;

    /// Each account's DefaultRipple flag (AccountRoot::allows_rippling,
    /// 1 or 0), by account index.
    [[nodiscard]] std::span<const std::uint8_t> ripple_flags() const noexcept;

    [[nodiscard]] std::size_t trustline_count() const noexcept { return lines_.size(); }

    /// Currencies are numbered densely (0-based) in the order their
    /// first trust line was created; TrustLineIndices::currency is
    /// this number.
    [[nodiscard]] std::size_t currency_count() const noexcept;
    /// The currency numbered `index`. Precondition: index < currency_count().
    [[nodiscard]] Currency currency_by_index(std::uint32_t index) const;
    /// The number of `currency`, or nullopt if no trust line uses it.
    [[nodiscard]] std::optional<std::uint32_t> currency_index(
        Currency currency) const noexcept;

    /// Monotonic counter bumped on every TOPOLOGY change — account
    /// creation or trust-line creation. Balance and limit updates on
    /// existing lines do NOT bump it: derived adjacency structures
    /// (paths::GraphIndex) read capacities live by line index, so only
    /// new nodes/edges invalidate them.
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
    /// The book for a currency pair, created empty if absent. Valid
    /// until the next book creation.
    [[nodiscard]] std::vector<Offer>& book_mutable(const BookKey& key);

    /// Every book, sorted by key.
    [[nodiscard]] std::span<const Book> books() const noexcept { return books_; }

    [[nodiscard]] std::size_t offer_count() const noexcept;

    /// Remove every offer owned by `owner` (Market-Maker-removal replay).
    void remove_offers_of(const AccountID& owner);

    /// Remove all offers in the system.
    void clear_all_offers() noexcept { books_.clear(); }

    /// Every account root, by dense index (creation order).
    [[nodiscard]] std::span<const AccountRoot> accounts() const noexcept {
        return accounts_;
    }

    // --- derived data shared with clones -------------------------------

    /// How many accounts, trust lines and currencies a topology numbers.
    struct TopologySize {
        std::uint32_t accounts = 0;
        std::uint32_t lines = 0;
        std::uint32_t currencies = 0;
    };
    using SharedMake =
        std::function<std::shared_ptr<const void>(TopologySize shared)>;

    /// An object derived from the topology this ledger shares, in this
    /// ledger's lines_of() order: made by `make` at most once per
    /// (topology, order) pair, under the topology's lock, and returned
    /// to every ledger holding that pair (paths::GraphIndex keeps its
    /// CSR index here). `shared` is the shared part's size: this
    /// ledger's accounts, lines and currencies below those numbers, and
    /// each account's lines_of() entries below `shared.lines`, are the
    /// pair's; the rest is this ledger's tail. `make` must not call
    /// clone() or shared_derived() on a ledger of the same topology. A
    /// topology only this ledger holds drops the object at its next
    /// topology change, since it changes in place.
    [[nodiscard]] std::shared_ptr<const void> shared_derived(
        const SharedMake& make) const;

private:
    struct Numbering;  // ledger.cpp
    struct Topology;
    struct Tail;
    /// Line indices touching each account, by account index.
    using Adjacency = std::vector<std::vector<std::uint32_t>>;

    LedgerState(std::shared_ptr<const Topology> topology,
                std::shared_ptr<const Adjacency> adjacency) noexcept;

    /// Where this ledger's next topology change goes: its tail (made
    /// on first use) once its topology is frozen, else the topology in
    /// place, which drops what shared_derived() kept for it.
    Numbering& writable_numbering();
    /// `account`'s lines_of() list, for appending a line: its tail
    /// list (starting as a copy of its shared list) once there is a
    /// tail, else its adjacency list in place.
    std::vector<std::uint32_t>& writable_list(std::uint32_t account);

    /// The numbering whose flat arrays cover every entry: the tail's
    /// if there is one, else the topology's.
    [[nodiscard]] const Numbering& numbering() const noexcept;

    /// The adjacency a clone of a tail-free ledger presents, derived on
    /// first use.
    [[nodiscard]] std::shared_ptr<const Adjacency> clone_adjacency() const;
    /// clone()'s ledger for a ledger with a tail: shared part and tail
    /// flattened into a new, frozen topology in its map order.
    [[nodiscard]] LedgerState flattened() const;

    [[nodiscard]] std::optional<std::uint32_t> index_of(
        const AccountID& id) const noexcept;
    [[nodiscard]] std::optional<std::uint32_t> line_index_of(
        const TrustLineKey& key) const noexcept;

    // Topology, shared with clones, and this ledger's tail over it.
    std::shared_ptr<const Topology> topology_;
    std::shared_ptr<const Adjacency> adjacency_;
    std::unique_ptr<Tail> tail_;
    // State, copied by clone().
    std::vector<AccountRoot> accounts_;
    std::vector<TrustLine> lines_;
    std::vector<Book> books_;  // sorted by key
    XrpAmount burned_;
    std::uint64_t next_offer_id_ = 1;
    std::uint64_t topology_generation_ = 0;
};

}  // namespace xrpl::ledger
