// Account clustering — the companion attack the paper cites.
//
// Moreno-Sanchez et al. [10] "cluster different, apparently
// non-correlated, Ripple accounts that are actually owned by the same
// entity". This module provides the machinery: a union-find over
// accounts, evidence feeders (activation/funding edges — the account
// that sent a wallet its first XRP — and explicit links), and a
// cluster-aware IG so the fingerprint study can be run at the ENTITY
// level rather than the address level. §V-B's wallet-rotation
// discussion is exactly the case where the two differ.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/deanonymizer.hpp"
#include "core/features.hpp"
#include "ledger/payment_columns.hpp"
#include "ledger/transaction.hpp"

namespace xrpl::core {

/// Union-find over account ids (path compression + union by size).
class AccountClusters {
public:
    /// Record evidence that `a` and `b` belong to the same entity.
    void link(const ledger::AccountID& a, const ledger::AccountID& b);

    /// Canonical representative of `account`'s cluster (the account
    /// itself when nothing links it).
    [[nodiscard]] ledger::AccountID representative(
        const ledger::AccountID& account) const;

    [[nodiscard]] bool same_cluster(const ledger::AccountID& a,
                                    const ledger::AccountID& b) const {
        return representative(a) == representative(b);
    }

    /// Number of accounts that appear in any link.
    [[nodiscard]] std::size_t tracked_accounts() const noexcept {
        return parent_.size();
    }

    /// Distinct clusters among the tracked accounts.
    [[nodiscard]] std::size_t cluster_count() const;

    /// All clusters of size >= min_size, each as its member list.
    [[nodiscard]] std::vector<std::vector<ledger::AccountID>> clusters(
        std::size_t min_size = 2) const;

private:
    ledger::AccountID find(const ledger::AccountID& account) const;

    // Mutable for path compression in const lookups.
    mutable std::unordered_map<ledger::AccountID, ledger::AccountID> parent_;
    std::unordered_map<ledger::AccountID, std::size_t> size_;
};

/// An activation edge: `funder` sent `account` its first XRP
/// (§App-D: the two mystery nodes were both "activated" by ~akhavr —
/// exactly the evidence this heuristic consumes).
struct ActivationEdge {
    ledger::AccountID funder;
    ledger::AccountID account;
};

/// Cluster accounts sharing an activator: every activated account is
/// linked to its funder's cluster.
[[nodiscard]] AccountClusters cluster_by_activation(
    std::span<const ActivationEdge> edges);

/// The IG computed at entity level: a fingerprint identifies when all
/// of its payments come from ONE cluster. With the identity map this
/// equals Deanonymizer::information_gain.
[[nodiscard]] IgResult clustered_information_gain(
    ledger::PaymentView view, const ResolutionConfig& config,
    const AccountClusters& clusters);

}  // namespace xrpl::core
