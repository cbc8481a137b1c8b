#include "core/deanonymizer.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "core/fingerprint_groups.hpp"
#include "util/contract.hpp"

namespace xrpl::core {

IgResult Deanonymizer::information_gain(const ResolutionConfig& config) const {
    return ig_of(anonymity_profile(view_, sender_ids(view_), config));
}

std::vector<ledger::AccountID> Deanonymizer::attack(
    const ledger::TxRecord& observation, const ResolutionConfig& config) const {
    const std::uint64_t fp = fingerprint(observation, config);
    const std::vector<std::uint64_t> fingerprints = fingerprint_column(view_, config);
    const std::span<const std::uint32_t> senders = sender_ids(view_);
    const ledger::AccountInterner& accounts = view_.columns().accounts;
    std::vector<ledger::AccountID> candidates;
    std::unordered_set<std::uint32_t> seen;
    for (std::size_t i = 0; i < fingerprints.size(); ++i) {
        if (fingerprints[i] != fp) continue;
        if (seen.insert(senders[i]).second) {
            candidates.push_back(accounts.at(senders[i]));
        }
    }
    return candidates;
}

std::vector<ledger::TxRecord> Deanonymizer::history_of(
    const ledger::AccountID& account) const {
    std::vector<ledger::TxRecord> history;
    const ledger::PaymentColumns& columns = view_.columns();
    const std::optional<std::uint32_t> id = columns.accounts.find(account);
    if (!id) return history;
    const std::span<const std::uint32_t> senders = sender_ids(view_);
    for (std::size_t i = 0; i < senders.size(); ++i) {
        if (senders[i] == *id) history.push_back(columns.row(view_.offset() + i));
    }
    return history;
}

AttackIndex::AttackIndex(const ledger::PaymentColumns& payments,
                         ResolutionConfig config)
    : AttackIndex(payments.view(), config) {}

AttackIndex::AttackIndex(ledger::PaymentView view, ResolutionConfig config)
    : view_(view), config_(config) {
    // Keyed by row index: each group's rows come out ascending.
    std::vector<std::uint32_t> row_ids(view.size());
    std::iota(row_ids.begin(), row_ids.end(), std::uint32_t{0});
    const std::vector<KeyedFingerprint> sorted =
        sorted_by_fingerprint(view, row_ids, config_);
    fingerprints_.reserve(sorted.size());
    rows_.reserve(sorted.size());
    for (const KeyedFingerprint& entry : sorted) {
        fingerprints_.push_back(entry.fingerprint);
        rows_.push_back(entry.key);
    }
#if XRPL_CONTRACTS_ENABLED
    // The rows are a permutation of the view: every payment indexed
    // exactly once. O(n) sweep, so contract builds only.
    std::vector<bool> seen(view.size(), false);
    for (const std::uint32_t row : rows_) {
        XRPL_INVARIANT(row < seen.size() && !seen[row],
                       "attack-index rows must be a permutation of the view");
        seen[row] = true;
    }
    XRPL_INVARIANT(rows_.size() == seen.size(),
                   "attack-index rows must be a permutation of the view");
#endif
}

std::span<const std::uint32_t> AttackIndex::matches(
    const ledger::TxRecord& observation) const {
    const auto [first, last] =
        std::equal_range(fingerprints_.begin(), fingerprints_.end(),
                         fingerprint(observation, config_));
    return std::span<const std::uint32_t>(rows_).subspan(
        static_cast<std::size_t>(first - fingerprints_.begin()),
        static_cast<std::size_t>(last - first));
}

std::size_t AttackIndex::bucket_count() const noexcept {
    // One bucket per run of equal fingerprints.
    std::size_t runs = 0;
    for (std::size_t i = 0; i < fingerprints_.size(); ++i) {
        if (i == 0 || fingerprints_[i] != fingerprints_[i - 1]) ++runs;
    }
    return runs;
}

std::vector<ledger::AccountID> AttackIndex::candidate_senders(
    const ledger::TxRecord& observation) const {
    const ledger::PaymentColumns& columns = view_.columns();
    std::vector<ledger::AccountID> senders;
    for (const std::uint32_t i : matches(observation)) {
        const ledger::AccountID& sender =
            columns.accounts.at(columns.sender_id[view_.offset() + i]);
        if (std::find(senders.begin(), senders.end(), sender) == senders.end()) {
            senders.push_back(sender);
        }
    }
    return senders;
}

}  // namespace xrpl::core
