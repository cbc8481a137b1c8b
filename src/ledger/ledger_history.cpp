#include "ledger/ledger_history.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/contract.hpp"
#include "util/sha256.hpp"

namespace xrpl::ledger {

Hash256 compute_page_hash(std::uint32_t sequence, const Hash256& parent_hash,
                          util::RippleTime close_time,
                          const std::vector<Hash256>& tx_ids) {
    util::Sha256 hasher;
    std::array<std::uint8_t, 12> header;
    for (int i = 0; i < 4; ++i) {
        header[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(sequence >> (24 - 8 * i));
    }
    const auto t = static_cast<std::uint64_t>(close_time.seconds);
    for (int i = 0; i < 8; ++i) {
        header[static_cast<std::size_t>(4 + i)] =
            static_cast<std::uint8_t>(t >> (56 - 8 * i));
    }
    hasher.update(header);
    hasher.update(parent_hash.bytes);
    for (const Hash256& id : tx_ids) hasher.update(id.bytes);

    const util::Sha256Digest digest = hasher.finish();
    Hash256 out;
    std::copy(digest.begin(), digest.end(), out.bytes.begin());
    return out;
}

ClosedLedger LedgerHistory::candidate(util::RippleTime close_time,
                                      std::vector<Hash256> tx_ids) const {
    ClosedLedger page;
    page.sequence = static_cast<std::uint32_t>(pages_.size() + 1);
    page.parent_hash = pages_.empty() ? Hash256{} : pages_.back().hash;
    page.close_time = close_time;
    page.tx_ids = std::move(tx_ids);
    page.hash = compute_page_hash(page.sequence, page.parent_hash, page.close_time,
                                  page.tx_ids);
    return page;
}

const ClosedLedger& LedgerHistory::append(ClosedLedger page) {
    // A stale candidate (built before another page sealed) would put
    // two pages at one sequence, or fork the parent chain.
    if (page.sequence != pages_.size() + 1) {
        throw std::invalid_argument("LedgerHistory: page sequence does not follow the tip");
    }
    if (page.parent_hash != (pages_.empty() ? Hash256{} : pages_.back().hash)) {
        throw std::invalid_argument("LedgerHistory: page parent is not the tip");
    }
    XRPL_ASSERT(page.hash == compute_page_hash(page.sequence, page.parent_hash,
                                               page.close_time, page.tx_ids),
                "a sealed page's hash must cover its contents");
    pages_.push_back(std::move(page));
    return pages_.back();
}

std::size_t LedgerHistory::verify_chain() const {
    for (std::size_t i = 0; i < pages_.size(); ++i) {
        const ClosedLedger& page = pages_[i];
        const Hash256 expected_parent = i == 0 ? Hash256{} : pages_[i - 1].hash;
        if (page.parent_hash != expected_parent) return i;
        if (page.sequence != i + 1) return i;
        const Hash256 recomputed = compute_page_hash(page.sequence, page.parent_hash,
                                                     page.close_time, page.tx_ids);
        if (recomputed != page.hash) return i;
    }
    return pages_.size();
}

}  // namespace xrpl::ledger
