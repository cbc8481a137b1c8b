// A search view over the ledger's trust lines.
//
// The path finders see the network through this class: the ledger's
// CSR index (SearchIndex: the currency-partitioned GraphIndex that
// every ledger holding the searched ledger's topology in its
// lines_of() order shares, and the ledger's own tail edges), and an
// exclusion set used by the replay harness to simulate removed
// accounts (the paper's Market-Maker-removal experiment, Table II)
// without destroying ledger state.
#pragma once

#include <unordered_set>
#include <vector>

#include "ledger/ledger.hpp"
#include "paths/graph_index.hpp"

namespace xrpl::paths {

class TrustGraph {
public:
    explicit TrustGraph(const ledger::LedgerState& ledger) noexcept
        : ledger_(&ledger) {}

    /// Mark an account as removed: it will not be offered as a
    /// neighbor, endpoint checks are the caller's job.
    void exclude(const ledger::AccountID& account);
    void clear_exclusions() noexcept;
    [[nodiscard]] bool is_excluded(const ledger::AccountID& account) const {
        return excluded_.contains(account);
    }
    /// Index-space probe for the search: one bounds check + one
    /// load against the epoch-stamped exclusion array (clearing bumps
    /// the epoch instead of rewriting stamps).
    [[nodiscard]] bool is_excluded_index(std::uint32_t index) const noexcept {
        return index < excluded_stamp_.size() &&
               excluded_stamp_[index] == exclusion_epoch_;
    }
    [[nodiscard]] std::size_t exclusion_count() const noexcept {
        return excluded_.size();
    }
    [[nodiscard]] const std::unordered_set<ledger::AccountID>& exclusions()
        const noexcept {
        return excluded_;
    }

    /// The CSR index, refreshed here if the ledger topology moved since
    /// the last query (SearchIndex::ensure). Exclusions never
    /// invalidate it (they are visit-time filters), and neither do
    /// balance/limit updates. Every topology move re-stamps every
    /// exclusion, because it may have created an account that was
    /// excluded before it existed.
    [[nodiscard]] const SearchIndex& index() const {
        if (index_.ensure(*ledger_)) {
            for (const ledger::AccountID& account : excluded_) stamp(account);
        }
        return index_;
    }

    [[nodiscard]] const ledger::LedgerState& ledger() const noexcept { return *ledger_; }

private:
    /// Mark `account`'s dense index excluded in the current epoch; a
    /// no-op while the account does not exist yet.
    void stamp(const ledger::AccountID& account) const;

    const ledger::LedgerState* ledger_;
    std::unordered_set<ledger::AccountID> excluded_;
    /// excluded_stamp_[i] == exclusion_epoch_ means account index i is
    /// excluded. clear_exclusions() bumps the epoch: O(1), no rewrite.
    /// A cache of excluded_ in index space, so index() may refresh it.
    mutable std::vector<std::uint64_t> excluded_stamp_;
    std::uint64_t exclusion_epoch_ = 1;
    mutable SearchIndex index_;
};

}  // namespace xrpl::paths
