#include "paths/payment_engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "util/contract.hpp"

namespace xrpl::paths {

using ledger::AccountID;
using ledger::Amount;
using ledger::BookKey;
using ledger::Currency;
using ledger::IouAmount;
using ledger::Transaction;
using ledger::TxResult;
using ledger::XrpAmount;

namespace {

/// Treat `remaining` as fully delivered when it is zero or vanishing
/// relative to the requested total (decimal arithmetic can leave
/// 1-ulp residues when path capacities had wildly different exponents).
bool effectively_zero(const IouAmount& remaining, const IouAmount& total) noexcept {
    if (remaining.is_zero() || remaining.is_negative()) return true;
    return remaining < total.abs().scaled_by(1e-12);
}

XrpAmount to_drops(const IouAmount& xrp_value) noexcept {
    // Round, don't truncate: 1e10 drops must not become 9'999'999'999.
    return XrpAmount{std::llround(xrp_value.scaled_by(1e6).to_double())};
}

}  // namespace

void PaymentEngine::rollback(const Journal& journal) {
    // Undo in strict reverse order of application.
    for (auto it = journal.fills.rbegin(); it != journal.fills.rend(); ++it) {
        restore_offer(*ledger_, it->key, it->consumed);
    }
    for (auto it = journal.xrp.rbegin(); it != journal.xrp.rend(); ++it) {
        ledger::AccountRoot* from = ledger_->account(it->from);
        ledger::AccountRoot* to = ledger_->account(it->to);
        if (from != nullptr && to != nullptr) {
            from->balance.drops += it->amount.drops;
            to->balance.drops -= it->amount.drops;
        }
    }
    for (auto it = journal.lines.rbegin(); it != journal.lines.rend(); ++it) {
        it->line->restore_balance(it->balance_before);
    }
}

bool PaymentEngine::send_along_path(const TrustPath& path, IouAmount amount,
                                    Journal& journal) {
    XRPL_ASSERT(path.lines.size() + 1 == path.nodes.size(),
                "a path names one line per hop");
    const std::size_t start = journal.lines.size();
    const std::span<ledger::TrustLine> lines = ledger_->lines();
    for (std::size_t i = 0; i < path.lines.size(); ++i) {
        ledger::TrustLine& line = lines[path.lines[i]];
        const ledger::IouAmount before = line.balance();
        if (!line.transfer_from(path.nodes[i], amount)) {
            // Undo the hops applied so far in this call.
            while (journal.lines.size() > start) {
                const LineTransfer& entry = journal.lines.back();
                entry.line->restore_balance(entry.balance_before);
                journal.lines.pop_back();
            }
            return false;
        }
        journal.lines.push_back(LineTransfer{&line, before});
    }
    return true;
}

bool PaymentEngine::cross_fill(const BookKey& key, const Fill& fill, Journal& journal) {
    std::optional<ConsumedOffer> consumed = consume_fill(*ledger_, key, fill);
    if (!consumed) return false;
    journal.fills.push_back(OfferSnapshot{key, std::move(*consumed)});
    return true;
}

bool PaymentEngine::send_xrp(const AccountID& from, const AccountID& to,
                             IouAmount amount, Journal& journal) {
    const XrpAmount drops = to_drops(amount);
    if (drops.drops <= 0) return false;
    ledger::AccountRoot* src = ledger_->account(from);
    ledger::AccountRoot* dst = ledger_->account(to);
    if (src == nullptr || dst == nullptr) return false;
    if (src->balance.drops < drops.drops) return false;
    src->balance.drops -= drops.drops;
    dst->balance.drops += drops.drops;
    journal.xrp.push_back(XrpTransfer{from, to, drops});
    return true;
}

bool PaymentEngine::deliver_same_currency(const AccountID& from, const AccountID& to,
                                          IouAmount amount, Currency currency,
                                          std::size_t max_paths, Journal& journal,
                                          TxResult& result) {
    if (from == to) return false;
    if (currency.is_xrp()) {
        if (!send_xrp(from, to, amount, journal)) return false;
        result.parallel_paths += 1;
        return true;
    }

    IouAmount remaining = amount;
    std::size_t used = 0;
    while (!effectively_zero(remaining, amount) && used < max_paths) {
        const std::optional<TrustPath> path = finder_.find(graph_, from, to, currency);
        if (!path) return false;

        const IouAmount send = path->capacity < remaining ? path->capacity : remaining;
        if (send.is_zero() || send.is_negative()) return false;
        if (!send_along_path(*path, send, journal)) return false;

        result.parallel_paths += 1;
        result.intermediate_hops = std::max(
            result.intermediate_hops,
            static_cast<std::uint32_t>(path->intermediate_hops()));
        result.intermediaries.insert(result.intermediaries.end(),
                                     path->nodes.begin() + 1, path->nodes.end() - 1);
        remaining = remaining - send;
        ++used;
    }
    return effectively_zero(remaining, amount);
}

bool PaymentEngine::deliver_cross_currency(const PaymentRequest& request,
                                           Journal& journal, TxResult& result) {
    const Currency src_currency = request.source_currency;
    const Currency dst_currency = request.deliver.currency;
    const IouAmount target = request.deliver.value;

    // --- attempt 1: the direct book src -> dst -----------------------
    const BookKey direct_key{src_currency, dst_currency};
    std::vector<Fill> plan =
        plan_fills(*ledger_, direct_key, target, graph_.exclusions());
    IouAmount planned;
    for (const Fill& fill : plan) planned = planned + fill.gets;

    if (effectively_zero(target - planned, target) && !plan.empty()) {
        for (const Fill& fill : plan) {
            TxResult leg1;
            TxResult leg2;
            if (!deliver_same_currency(request.sender, fill.owner, fill.pays,
                                       src_currency, 2, journal, leg1) ||
                !cross_fill(direct_key, fill, journal) ||
                !deliver_same_currency(fill.owner, request.destination, fill.gets,
                                       dst_currency, 2, journal, leg2)) {
                return false;
            }
            // One "parallel path" per offer crossed; its length is the
            // two trust legs plus the Market Maker itself.
            result.parallel_paths += 1;
            result.intermediate_hops = std::max(
                result.intermediate_hops,
                leg1.intermediate_hops + leg2.intermediate_hops + 1);
            result.intermediaries.insert(result.intermediaries.end(),
                                         leg1.intermediaries.begin(),
                                         leg1.intermediaries.end());
            result.intermediaries.push_back(fill.owner);
            result.intermediaries.insert(result.intermediaries.end(),
                                         leg2.intermediaries.begin(),
                                         leg2.intermediaries.end());
        }
        result.used_order_book = true;
        return true;
    }

    // --- attempt 2: the XRP auto-bridge src -> XRP -> dst -------------
    if (src_currency.is_xrp() || dst_currency.is_xrp()) {
        return false;
    }
    return deliver_via_xrp_bridge(request.sender, request.destination, target,
                                  src_currency, dst_currency, journal, result);
}

bool PaymentEngine::deliver_via_xrp_bridge(
    const AccountID& sender, const AccountID& destination, IouAmount target,
    Currency src_currency, Currency dst_currency, Journal& journal,
    TxResult& result) {
    const BookKey out_key{Currency::xrp(), dst_currency};
    std::vector<Fill> out_plan =
        plan_fills(*ledger_, out_key, target, graph_.exclusions());
    IouAmount out_planned;
    IouAmount xrp_needed;
    for (const Fill& fill : out_plan) {
        out_planned = out_planned + fill.gets;
        xrp_needed = xrp_needed + fill.pays;
    }
    if (!effectively_zero(target - out_planned, target) || out_plan.empty()) {
        return false;
    }

    const BookKey in_key{src_currency, Currency::xrp()};
    std::vector<Fill> in_plan =
        plan_fills(*ledger_, in_key, xrp_needed, graph_.exclusions());
    IouAmount in_planned;
    for (const Fill& fill : in_plan) in_planned = in_planned + fill.gets;
    if (!effectively_zero(xrp_needed - in_planned, xrp_needed) || in_plan.empty()) {
        return false;
    }

    std::uint32_t max_in_hops = 0;
    for (const Fill& fill : in_plan) {
        TxResult leg;
        if (!deliver_same_currency(sender, fill.owner, fill.pays, src_currency, 2,
                                   journal, leg)) {
            return false;
        }
        if (!cross_fill(in_key, fill, journal)) return false;
        // The maker hands the taker XRP; route it through the sender's
        // own XRP balance so every move is a plain balance transfer.
        if (!send_xrp(fill.owner, sender, fill.gets, journal)) return false;
        max_in_hops = std::max(max_in_hops, leg.intermediate_hops);
        result.intermediaries.insert(result.intermediaries.end(),
                                     leg.intermediaries.begin(),
                                     leg.intermediaries.end());
        result.intermediaries.push_back(fill.owner);
    }

    std::uint32_t max_out_hops = 0;
    for (const Fill& fill : out_plan) {
        TxResult leg;
        if (!send_xrp(sender, fill.owner, fill.pays, journal) ||
            !cross_fill(out_key, fill, journal) ||
            !deliver_same_currency(fill.owner, destination, fill.gets,
                                   dst_currency, 2, journal, leg)) {
            return false;
        }
        result.parallel_paths += 1;
        max_out_hops = std::max(max_out_hops, leg.intermediate_hops);
        result.intermediaries.push_back(fill.owner);
        result.intermediaries.insert(result.intermediaries.end(),
                                     leg.intermediaries.begin(),
                                     leg.intermediaries.end());
    }

    // Chain length: in-leg, the two makers, and the out-leg.
    result.intermediate_hops =
        std::max(result.intermediate_hops, max_in_hops + max_out_hops + 2);
    result.used_order_book = true;
    return true;
}

TxResult PaymentEngine::execute(const PaymentRequest& request) {
    // What a payment that moved nothing reports.
    const auto unsent = [&request] {
        TxResult fresh;
        fresh.cross_currency = request.cross_currency();
        return fresh;
    };
    TxResult result = unsent();

    if (graph_.is_excluded(request.sender) ||
        graph_.is_excluded(request.destination)) {
        return result;
    }
    if (request.deliver.value.is_zero() || request.deliver.value.is_negative()) {
        return result;
    }

    Journal journal;
    bool ok;
    if (!request.cross_currency()) {
        ok = deliver_same_currency(request.sender, request.destination,
                                   request.deliver.value, request.deliver.currency,
                                   kMaxParallelPaths, journal, result);
        if (!ok && !request.deliver.currency.is_xrp()) {
            // No usable trust path: same-currency payments can still
            // clear through Market-Maker offers (currency -> XRP ->
            // same currency), effectively converting one issuer's IOUs
            // into another's.
            rollback(journal);
            journal = Journal{};
            result = unsent();
            ok = deliver_via_xrp_bridge(
                request.sender, request.destination, request.deliver.value,
                request.deliver.currency, request.deliver.currency, journal,
                result);
        }
    } else {
        ok = deliver_cross_currency(request, journal, result);
    }

    if (!ok) {
        rollback(journal);
        return unsent();
    }

    result.success = true;
    result.delivered = request.deliver;

    // Burn the fee if the sender can afford it (fees are destroyed,
    // never redistributed — paper §III-A).
    ledger_->burn_fee(request.sender, ledger::kBaseFee);
    if (ledger::AccountRoot* sender = ledger_->account(request.sender)) {
        ++sender->sequence;
    }
    return result;
}

TxResult PaymentEngine::execute_along(
    const PaymentRequest& request,
    std::span<const std::vector<AccountID>> explicit_paths) {
    TxResult result;
    result.cross_currency = request.cross_currency();
    if (explicit_paths.empty() || request.cross_currency()) return result;
    if (request.deliver.value.is_zero() || request.deliver.value.is_negative()) {
        return result;
    }

    const Currency currency = request.deliver.currency;
    const IouAmount share = request.deliver.value.scaled_by(
        1.0 / static_cast<double>(explicit_paths.size()));

    // Resolve every path's lines, once each, before any value moves.
    std::vector<TrustPath> paths;
    paths.reserve(explicit_paths.size());
    for (const std::vector<AccountID>& nodes : explicit_paths) {
        if (nodes.size() < 2 || nodes.front() != request.sender ||
            nodes.back() != request.destination) {
            return result;
        }
        // Explicit paths still obey DefaultRipple: every interior node
        // must permit rippling.
        for (std::size_t i = 1; i + 1 < nodes.size(); ++i) {
            const ledger::AccountRoot* root = ledger_->account(nodes[i]);
            if (root == nullptr || !root->allows_rippling) return result;
        }
        TrustPath& path = paths.emplace_back();
        path.nodes = nodes;
        for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
            const ledger::TrustLine* line =
                ledger_->trustline(nodes[i], nodes[i + 1], currency);
            if (line == nullptr) return result;
            path.lines.push_back(
                static_cast<std::uint32_t>(line - ledger_->lines().data()));
        }
    }

    Journal journal;
    for (const TrustPath& path : paths) {
        if (!send_along_path(path, share, journal)) {
            rollback(journal);
            return result;
        }
        result.parallel_paths += 1;
        result.intermediate_hops = std::max(
            result.intermediate_hops,
            static_cast<std::uint32_t>(path.intermediate_hops()));
        result.intermediaries.insert(result.intermediaries.end(),
                                     path.nodes.begin() + 1, path.nodes.end() - 1);
    }

    result.success = true;
    result.delivered = request.deliver;
    ledger_->burn_fee(request.sender, ledger::kBaseFee);
    if (ledger::AccountRoot* sender = ledger_->account(request.sender)) {
        ++sender->sequence;
    }
    return result;
}

TxResult PaymentEngine::apply(const Transaction& tx) {
    TxResult result;
    switch (tx.type) {
        case ledger::TxType::kPayment: {
            PaymentRequest request;
            request.sender = tx.sender;
            request.destination = tx.destination;
            request.deliver = tx.amount;
            request.source_currency = tx.source_currency;
            result = tx.paths.empty() ? execute(request)
                                      : execute_along(request, tx.paths);
            break;
        }
        case ledger::TxType::kAccountCreate: {
            // Activation: fund a new account with the XRP amount. The
            // account is created only once the funding is known to
            // succeed (xrp_payment's sender checks), so a failed
            // create leaves neither an account nor a topology change.
            const XrpAmount drops = to_drops(tx.amount.value);
            const ledger::AccountRoot* sender = ledger_->account(tx.sender);
            if (sender == nullptr || drops.drops <= 0 ||
                sender->balance.drops < drops.drops + ledger::kBaseFee.drops) {
                break;
            }
            if (!ledger_->account(tx.destination)) {
                ledger_->create_account(tx.destination, XrpAmount{0});
            }
            result.success = ledger_->xrp_payment(tx.sender, tx.destination, drops);
            if (result.success) result.delivered = tx.amount;
            break;
        }
        case ledger::TxType::kTrustSet: {
            // A trust line joins two distinct existing accounts and
            // carries an IOU up to a limit that is not negative, as on
            // the real ledger: a negative limit would put the line past
            // its limit from the start, and XRP is no trust-line
            // currency.
            if (tx.sender == tx.trust_peer || !ledger_->account(tx.sender) ||
                !ledger_->account(tx.trust_peer) || tx.trust_limit.is_negative() ||
                tx.trust_currency.is_xrp()) {
                break;
            }
            ledger_->set_trust(tx.sender, tx.trust_peer, tx.trust_currency,
                               tx.trust_limit);
            result.success = true;
            break;
        }
        case ledger::TxType::kOfferCreate: {
            // An offer needs an existing owner, two positive amounts and
            // two different currencies, as on the real ledger. A
            // malformed one touches no book: an ownerless or zero-priced
            // offer would sit at the top of its book, and every payment
            // planned through it would fail.
            const auto positive = [](const Amount& amount) {
                return !amount.value.is_zero() && !amount.value.is_negative();
            };
            if (!ledger_->account(tx.sender) || !positive(tx.taker_pays) ||
                !positive(tx.taker_gets) ||
                tx.taker_pays.currency == tx.taker_gets.currency) {
                break;
            }
            ledger_->place_offer(tx.sender, tx.taker_pays, tx.taker_gets);
            result.success = true;
            break;
        }
    }
    return result;
}

}  // namespace xrpl::paths
