#include "paths/order_book.hpp"

#include <algorithm>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "util/contract.hpp"

namespace xrpl::paths {

using ledger::BookKey;
using ledger::IouAmount;
using ledger::LedgerState;
using ledger::Offer;

std::vector<Fill> plan_fills(const LedgerState& ledger, const BookKey& key,
                             IouAmount gets_target,
                             const std::unordered_set<ledger::AccountID>& excluded) {
    std::vector<Fill> plan;
    IouAmount remaining = gets_target;
    for (const Offer& offer : ledger.book(key)) {
        if (remaining.is_zero() || remaining.is_negative()) break;
        if (excluded.contains(offer.owner)) continue;

        const IouAmount take =
            offer.taker_gets.value < remaining ? offer.taker_gets.value : remaining;
        if (take.is_zero() || take.is_negative()) continue;

        Fill fill;
        fill.offer_id = offer.id;
        fill.owner = offer.owner;
        fill.gets = take;
        fill.pays = take.scaled_by(offer.rate());
        plan.push_back(fill);
        remaining = remaining - take;
    }
    return plan;
}

std::optional<ConsumedOffer> consume_fill(LedgerState& ledger, const BookKey& key,
                                          const Fill& fill) {
    auto& entries = ledger.book_mutable(key);
    const auto it = std::find_if(entries.begin(), entries.end(),
                                 [&](const Offer& o) { return o.id == fill.offer_id; });
    if (it == entries.end()) return std::nullopt;
    if (it->taker_gets.value < fill.gets) return std::nullopt;

    ConsumedOffer consumed{*it, static_cast<std::size_t>(it - entries.begin())};
    it->taker_gets.value = it->taker_gets.value - fill.gets;
    it->taker_pays.value = it->taker_pays.value - fill.pays;
    if (it->taker_gets.value.is_zero() || it->taker_gets.value.is_negative()) {
        entries.erase(it);
    }
    static obs::Counter& consumed_count = obs::counter("paths.offers_consumed");
    consumed_count.add();
    return consumed;
}

void restore_offer(LedgerState& ledger, const BookKey& key,
                   const ConsumedOffer& consumed) {
    auto& entries = ledger.book_mutable(key);
    XRPL_ASSERT(consumed.position <= entries.size(),
                "an offer is restored into the book its fill left");
    const auto at = entries.begin() + static_cast<std::ptrdiff_t>(consumed.position);
    if (at != entries.end() && at->id == consumed.before.id) {
        *at = consumed.before;  // partially consumed: still in its place
    } else {
        entries.insert(at, consumed.before);  // fully consumed: removed
    }
}

std::vector<MakerShare> maker_concentration(const LedgerState& ledger) {
    std::unordered_map<ledger::AccountID, std::size_t> counts;
    for (const auto& [key, entries] : ledger.books()) {
        for (const Offer& offer : entries) ++counts[offer.owner];
    }
    std::vector<MakerShare> out;
    out.reserve(counts.size());
    for (const auto& [maker, offers] : counts) out.push_back({maker, offers});
    std::sort(out.begin(), out.end(), [](const MakerShare& a, const MakerShare& b) {
        if (a.offers != b.offers) return a.offers > b.offers;
        return a.maker < b.maker;
    });
    return out;
}

}  // namespace xrpl::paths
