// Trust-network statistics (the appendix's ecosystem framing:
// "As of August 2015, Ripple counted more than 165K users, +55K of
// which were actively participating").
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "ledger/ledger.hpp"
#include "ledger/payment_columns.hpp"

namespace xrpl::analytics {

struct NetworkStats {
    std::uint64_t accounts = 0;
    /// Accounts that sent at least one payment in the history.
    std::uint64_t active_senders = 0;
    /// Accounts that sent or received at least one payment.
    std::uint64_t active_participants = 0;
    std::uint64_t trust_lines = 0;
    std::uint64_t live_offers = 0;
    /// Trust-line degree distribution: degree -> number of accounts.
    std::map<std::uint32_t, std::uint64_t> degree_histogram;
    double mean_degree = 0.0;
    std::uint32_t max_degree = 0;
};

/// Distinct-sender/participant counts come from flag vectors over the
/// interner (no AccountID hashing).
[[nodiscard]] NetworkStats compute_network_stats(
    const ledger::LedgerState& ledger, ledger::PaymentView view);

/// Gini coefficient of a non-negative weight vector (0 = egalitarian,
/// ->1 = fully concentrated). Used for the intermediary-concentration
/// claim behind Fig 7(a).
[[nodiscard]] double gini(std::vector<double> weights);

}  // namespace xrpl::analytics
