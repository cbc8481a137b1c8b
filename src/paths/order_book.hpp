// Order-book operations: planning and crossing offers.
//
// Offers live in the LedgerState, each book sorted best rate first;
// this module implements the taker side — planning fills down a book,
// consuming one offer (partially or fully) per fill, and undoing a
// consumption byte-exactly when a payment aborts. Readers that only
// look at a book use LedgerState::book(). Market Makers are simply
// the accounts that own offers (paper §III-C).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "ledger/ledger.hpp"

namespace xrpl::paths {

/// One slice taken from an offer.
struct Fill {
    std::uint64_t offer_id = 0;
    ledger::AccountID owner;          // the Market Maker
    ledger::IouAmount pays;           // what the taker pays (book's pays currency)
    ledger::IouAmount gets;           // what the taker receives (gets currency)
};

/// Plan fills to obtain `gets_target` from the book, best rate first,
/// WITHOUT mutating the book. Owners in `excluded` are skipped (the
/// Market-Maker-removal replay). The plan may cover less than the
/// target if liquidity runs out.
[[nodiscard]] std::vector<Fill> plan_fills(
    const ledger::LedgerState& ledger, const ledger::BookKey& key,
    ledger::IouAmount gets_target,
    const std::unordered_set<ledger::AccountID>& excluded = {});

/// An offer as it stood before a fill consumed it, and its position
/// in the book: what restore_offer needs to undo the fill exactly.
struct ConsumedOffer {
    ledger::Offer before;
    std::size_t position = 0;
};

/// Apply a planned fill: shrink the offer, or remove it from the book
/// if the fill takes all of it. Returns the offer as it was and where
/// it stood, or nullopt, with the book untouched, if the offer is gone
/// or no longer has the planned liquidity.
[[nodiscard]] std::optional<ConsumedOffer> consume_fill(ledger::LedgerState& ledger,
                                                        const ledger::BookKey& key,
                                                        const Fill& fill);

/// Undo a consume_fill, byte-exactly: write the offer back at its
/// position (re-inserting it there if the fill removed it). Fills must
/// be undone in reverse order, so the book is as that fill left it.
void restore_offer(ledger::LedgerState& ledger, const ledger::BookKey& key,
                   const ConsumedOffer& consumed);

/// The distinct owners (Market Makers) quoting in any book, ranked by
/// number of offers placed — the paper's "50% of offers come from 10
/// Market Makers" concentration analysis.
struct MakerShare {
    ledger::AccountID maker;
    std::size_t offers = 0;
};
[[nodiscard]] std::vector<MakerShare> maker_concentration(
    const ledger::LedgerState& ledger);

}  // namespace xrpl::paths
