// The payment engine: executes payments over the trust network.
//
// Implements the three payment shapes of the paper's §III:
//   * direct XRP transfers (balance-to-balance, fee burned);
//   * same-currency IOU payments rippling along trust paths, split
//     across parallel paths when no single path has enough capacity
//     (Fig 6(b));
//   * cross-currency payments bridged by Market-Maker offers, either
//     through the direct order book or auto-bridged through XRP
//     (§III-C).
//
// One configuration: up to kMaxParallelPaths shortest trust paths per
// payment (PathFinder's default caps), order books and the XRP bridge
// always allowed, ledger::kBaseFee burned per successful transaction.
//
// Payments are all-or-nothing: every state mutation is journaled and
// rolled back if the full amount cannot be delivered. Every offer is
// crossed through cross_fill, which journals the offer as it was and
// its place in the book, so a rollback restores the book exactly.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ledger/ledger.hpp"
#include "ledger/transaction.hpp"
#include "paths/order_book.hpp"
#include "paths/path_finder.hpp"
#include "paths/trust_graph.hpp"

namespace xrpl::paths {

/// What the engine is asked to do.
struct PaymentRequest {
    ledger::AccountID sender;
    ledger::AccountID destination;
    /// Amount the destination must receive.
    ledger::Amount deliver;
    /// Currency the sender pays with (equals deliver.currency for
    /// same-currency payments).
    ledger::Currency source_currency;

    [[nodiscard]] bool cross_currency() const noexcept {
        return !(source_currency == deliver.currency);
    }
};

/// Executes payments against a LedgerState.
class PaymentEngine {
public:
    /// Cap on parallel trust paths per payment (the paper observes up
    /// to 6).
    static constexpr std::size_t kMaxParallelPaths = 6;

    explicit PaymentEngine(ledger::LedgerState& ledger)
        : ledger_(&ledger), graph_(ledger) {}

    /// Execute a payment request. On failure the ledger state is
    /// exactly as before the call (minus nothing: even the fee is only
    /// charged on success).
    ledger::TxResult execute(const PaymentRequest& request);

    /// Run a Payment, AccountCreate, TrustSet or OfferCreate
    /// transaction. A malformed one fails and leaves the ledger as it
    /// was.
    ledger::TxResult apply(const ledger::Transaction& tx);

    /// Execute a same-currency payment along caller-supplied explicit
    /// paths (the real ledger's "Paths" field), splitting the amount
    /// evenly. Used by the MTL spam campaign, whose transactions were
    /// "intentionally forced to be routed through exactly 8
    /// intermediate hops ... and exactly 6 parallel paths" (App. A/B).
    /// Each path is the full node list [sender, ..., destination].
    ledger::TxResult execute_along(
        const PaymentRequest& request,
        std::span<const std::vector<ledger::AccountID>> explicit_paths);

    /// Exclusion interface (replay experiments remove accounts here).
    [[nodiscard]] TrustGraph& graph() noexcept { return graph_; }
    [[nodiscard]] const TrustGraph& graph() const noexcept { return graph_; }

    [[nodiscard]] ledger::LedgerState& ledger() noexcept { return *ledger_; }

private:
    // --- journal -------------------------------------------------------
    /// Byte-exact snapshot of a trust line's balance taken before a
    /// hop executes (adding back the transferred amount can differ by
    /// a decimal ulp when exponents differ, so inverses don't cut it).
    struct LineTransfer {
        ledger::TrustLine* line;
        ledger::IouAmount balance_before;
    };
    struct XrpTransfer {
        ledger::AccountID from;
        ledger::AccountID to;
        ledger::XrpAmount amount;
    };
    /// An offer as it was before a fill consumed it, and its place in
    /// the book, so rollback restores the book without decimal
    /// re-rounding or reordering.
    struct OfferSnapshot {
        ledger::BookKey key;
        ConsumedOffer consumed;
    };
    struct Journal {
        std::vector<LineTransfer> lines;
        std::vector<XrpTransfer> xrp;
        std::vector<OfferSnapshot> fills;
    };
    void rollback(const Journal& journal);

    /// Move `amount` along `path`, hop i over line path.lines[i],
    /// journaling each hop. Returns false (nothing journaled from this
    /// call) on failure.
    bool send_along_path(const TrustPath& path, ledger::IouAmount amount,
                         Journal& journal);

    /// Cross one planned fill: consume it from the book and journal the
    /// offer as it was. Fails (nothing journaled) if the offer no longer
    /// has the planned liquidity.
    bool cross_fill(const ledger::BookKey& key, const Fill& fill, Journal& journal);

    /// Raw XRP move (no fee), journaled. Fails on insufficient funds.
    bool send_xrp(const ledger::AccountID& from, const ledger::AccountID& to,
                  ledger::IouAmount amount, Journal& journal);

    /// Deliver `amount` of `currency` from `from` to `to` using up to
    /// `max_paths` parallel trust paths (or a direct XRP move when
    /// `currency` is XRP). Appends used paths' intermediaries and hop
    /// counts to `result`. Returns false if the full amount cannot move.
    bool deliver_same_currency(const ledger::AccountID& from,
                               const ledger::AccountID& to,
                               ledger::IouAmount amount, ledger::Currency currency,
                               std::size_t max_paths, Journal& journal,
                               ledger::TxResult& result);

    /// Cross-currency delivery via one order book (direct) or two
    /// (XRP auto-bridge).
    bool deliver_cross_currency(const PaymentRequest& request, Journal& journal,
                                ledger::TxResult& result);

    /// Two-book XRP bridge: src_currency -> XRP -> dst_currency. Also
    /// used with src == dst, which is how same-currency payments "use
    /// one or more exchange offers to make up for the lack of direct
    /// trust" (paper §III-C).
    bool deliver_via_xrp_bridge(const ledger::AccountID& sender,
                                const ledger::AccountID& destination,
                                ledger::IouAmount target,
                                ledger::Currency src_currency,
                                ledger::Currency dst_currency, Journal& journal,
                                ledger::TxResult& result);

    ledger::LedgerState* ledger_;
    TrustGraph graph_;
    PathFinder finder_;
};

}  // namespace xrpl::paths
