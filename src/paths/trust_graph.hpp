// A search view over the ledger's trust lines.
//
// The path finder sees the network through this class: per-account
// neighbor enumeration filtered by currency and positive capacity,
// plus an exclusion set used by the replay harness to simulate
// removed accounts (the paper's Market-Maker-removal experiment,
// Table II) without destroying ledger state.
//
// Two engines answer neighbor queries (selected by the XRPL_PATH_INDEX
// option, overridable per instance):
//  * indexed (default) — a currency-partitioned CSR GraphIndex shared
//    by every ledger that holds the searched ledger's topology in its
//    lines_of() order, plus the ledger's own tail edges (SearchIndex);
//    the BFS inner loop walks flat uint32 spans.
//  * legacy scan — the original lines_of() scan, kept as the parity
//    reference (for_each_neighbor / for_each_in_neighbor below).
// Both produce identical paths and ReplayStats; the parity suite
// (tests/integration/test_replay_parity.cpp) enforces it.
#pragma once

#include <unordered_set>
#include <vector>

#include "ledger/ledger.hpp"
#include "paths/graph_index.hpp"
#include "util/contract.hpp"
#include "util/options.hpp"

namespace xrpl::paths {

class TrustGraph {
public:
    explicit TrustGraph(const ledger::LedgerState& ledger,
                        bool use_index = util::options().path_index) noexcept
        : ledger_(&ledger), use_index_(use_index) {}

    /// Mark an account as removed: it will not be offered as a
    /// neighbor, endpoint checks are the caller's job.
    void exclude(const ledger::AccountID& account);
    void clear_exclusions() noexcept;
    [[nodiscard]] bool is_excluded(const ledger::AccountID& account) const {
        return excluded_.contains(account);
    }
    /// Index-space probe for the CSR engine: one bounds check + one
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

    /// Which engine this graph's searches use.
    [[nodiscard]] bool uses_index() const noexcept { return use_index_; }

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

    /// Invoke `fn(peer, line)` for every neighbor reachable from
    /// `from` over a `currency` trust line with positive capacity in
    /// the from->peer direction. Excluded peers are skipped. (Legacy
    /// scan enumeration — the parity reference for the CSR engine.)
    template <typename Fn>
    void for_each_neighbor(const ledger::AccountID& from, ledger::Currency currency,
                           Fn&& fn) const {
        for (const ledger::TrustLine* line : ledger_->lines_of(from)) {
            if (line->key().currency != currency) continue;
            const ledger::AccountID& peer = line->peer_of(from);
            // lines_of(a) must only return lines with `a` as one of two
            // DISTINCT endpoints; a self-loop would let the path finder
            // "ripple" value without moving it.
            XRPL_ASSERT(!(peer == from),
                        "trust lines must connect two distinct accounts");
            if (is_excluded(peer)) continue;
            const ledger::IouAmount capacity = line->capacity_from(from);
            if (capacity.is_zero() || capacity.is_negative()) continue;
            fn(peer, line);
        }
    }

    /// Degree of `from` in `currency` counting only positive-capacity,
    /// non-excluded edges. Used to pick which frontier to expand in
    /// the bidirectional search.
    [[nodiscard]] std::size_t out_degree(const ledger::AccountID& from,
                                         ledger::Currency currency) const {
        std::size_t n = 0;
        for_each_neighbor(from, currency,
                          [&](const ledger::AccountID&, const ledger::TrustLine*) { ++n; });
        return n;
    }

    /// Neighbors in the reverse direction: peers that can send TO
    /// `to` over a positive-capacity `currency` line.
    template <typename Fn>
    void for_each_in_neighbor(const ledger::AccountID& to, ledger::Currency currency,
                              Fn&& fn) const {
        for (const ledger::TrustLine* line : ledger_->lines_of(to)) {
            if (line->key().currency != currency) continue;
            const ledger::AccountID& peer = line->peer_of(to);
            if (is_excluded(peer)) continue;
            const ledger::IouAmount capacity = line->capacity_from(peer);
            if (capacity.is_zero() || capacity.is_negative()) continue;
            fn(peer, line);
        }
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
    bool use_index_;
    mutable SearchIndex index_;
};

}  // namespace xrpl::paths
