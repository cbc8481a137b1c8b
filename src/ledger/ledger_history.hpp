// The closed-ledger chain ("pages" of the distributed ledger).
//
// Each consensus round seals a page: a header hashing the parent
// page, the sequence number, the close time, and the IDs of the
// transactions it contains. The paper calls these "ledger pages";
// Fig 2 counts how many of them each validator signed.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ledger/types.hpp"
#include "util/ripple_time.hpp"

namespace xrpl::ledger {

/// A sealed ledger page.
struct ClosedLedger {
    std::uint32_t sequence = 0;
    Hash256 parent_hash;
    util::RippleTime close_time;
    std::vector<Hash256> tx_ids;
    Hash256 hash;  // hash of all the above
};

/// Compute a page hash from its contents.
[[nodiscard]] Hash256 compute_page_hash(std::uint32_t sequence,
                                        const Hash256& parent_hash,
                                        util::RippleTime close_time,
                                        const std::vector<Hash256>& tx_ids);

/// The append-only chain of closed ledgers.
///
/// A page is hashed once: candidate() builds and hashes the next page,
/// and append() seals that same object, so a consensus round can sign
/// the candidate's hash and seal it without hashing it again.
class LedgerHistory {
public:
    /// The page that would seal next: the next sequence, linked to the
    /// current tip, with its hash computed. The history is unchanged.
    [[nodiscard]] ClosedLedger candidate(util::RippleTime close_time,
                                         std::vector<Hash256> tx_ids) const;

    /// Seal `page`, which must be the next page: candidate()'s output
    /// for the current tip. Throws std::invalid_argument when its
    /// sequence or parent hash does not continue the chain; with
    /// contracts on, also asserts that its hash matches its contents.
    const ClosedLedger& append(ClosedLedger page);

    /// Seal the next page with the given transactions.
    const ClosedLedger& append(util::RippleTime close_time,
                               std::vector<Hash256> tx_ids) {
        return append(candidate(close_time, std::move(tx_ids)));
    }

    [[nodiscard]] std::size_t size() const noexcept { return pages_.size(); }
    [[nodiscard]] bool empty() const noexcept { return pages_.empty(); }
    [[nodiscard]] const ClosedLedger& page(std::size_t index) const {
        return pages_.at(index);
    }
    [[nodiscard]] const ClosedLedger& last() const { return pages_.back(); }
    [[nodiscard]] const std::vector<ClosedLedger>& pages() const noexcept {
        return pages_;
    }

    /// Verify that every page's hash matches its contents and links to
    /// its parent. Returns the index of the first bad page, or size().
    [[nodiscard]] std::size_t verify_chain() const;

private:
    std::vector<ClosedLedger> pages_;
};

}  // namespace xrpl::ledger
