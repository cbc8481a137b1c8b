// The de-anonymizer — §V's attack, as a reusable component.
//
// Given the public payment history (a PaymentColumns store, or a
// PaymentView window of one) it answers two questions:
//
//  * information_gain(config): what fraction of all payments have a
//    fingerprint shared by exactly one sender? This is the IG metric
//    of Fig 3 — the probability that observing a random payment at
//    the configured resolution pins down its sender.
//
//  * attack(observation, config): the latte scenario. Alice saw an
//    (approximate) amount, time, currency, destination; the attack
//    returns every candidate sender, and history_of() then dumps the
//    victim's entire financial life.
//
// Scans compute fingerprints in one batched column pass and compare
// interned u32 sender ids instead of 20-byte accounts. Observations
// and history_of()'s result are TxRecords: the attacker's view of a
// payment is one row, not a store.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/features.hpp"
#include "core/fingerprint.hpp"
#include "ledger/payment_columns.hpp"
#include "ledger/transaction.hpp"

namespace xrpl::core {

/// Result of running the IG computation for one configuration.
struct IgResult {
    std::uint64_t total_payments = 0;
    std::uint64_t uniquely_identified = 0;

    [[nodiscard]] double information_gain() const noexcept {
        return total_payments == 0
                   ? 0.0
                   : static_cast<double>(uniquely_identified) /
                         static_cast<double>(total_payments);
    }
};

class Deanonymizer {
public:
    /// The store is referenced, not copied: it must outlive the
    /// Deanonymizer (hence no temporaries).
    explicit Deanonymizer(const ledger::PaymentColumns& payments) noexcept
        : view_(payments.view()) {}
    explicit Deanonymizer(ledger::PaymentColumns&&) = delete;
    explicit Deanonymizer(ledger::PaymentView view) noexcept : view_(view) {}

    /// Fig 3's IG for one resolution configuration: one fingerprint
    /// pass and a sort (core/fingerprint_groups), O(n log n) time.
    [[nodiscard]] IgResult information_gain(const ResolutionConfig& config) const;

    /// All candidate senders matching an observed payment at the given
    /// resolution (deduplicated, in first-seen order). The observation
    /// is expressed as a TxRecord whose sender field is ignored.
    [[nodiscard]] std::vector<ledger::AccountID> attack(
        const ledger::TxRecord& observation, const ResolutionConfig& config) const;

    /// Every payment sent by `account` — the victim's "entire
    /// financial life" once the attack singled them out.
    [[nodiscard]] std::vector<ledger::TxRecord> history_of(
        const ledger::AccountID& account) const;

    [[nodiscard]] std::size_t record_count() const noexcept {
        return view_.size();
    }

private:
    ledger::PaymentView view_;
};

/// Precomputed fingerprint index for repeated attack queries at one
/// fixed resolution: the payments sorted by fingerprint, so a query is
/// a binary search instead of a scan.
class AttackIndex {
public:
    /// Like Deanonymizer, the index keeps a view into the store.
    AttackIndex(const ledger::PaymentColumns& payments, ResolutionConfig config);
    AttackIndex(ledger::PaymentColumns&&, ResolutionConfig) = delete;
    AttackIndex(ledger::PaymentView view, ResolutionConfig config);

    /// View-relative indices of all payments matching the
    /// observation's fingerprint, ascending. The span points into the
    /// index.
    [[nodiscard]] std::span<const std::uint32_t> matches(
        const ledger::TxRecord& observation) const;

    /// Distinct senders among the matches.
    [[nodiscard]] std::vector<ledger::AccountID> candidate_senders(
        const ledger::TxRecord& observation) const;

    [[nodiscard]] const ResolutionConfig& config() const noexcept { return config_; }
    /// Distinct fingerprints in the view.
    [[nodiscard]] std::size_t bucket_count() const noexcept;

private:
    ledger::PaymentView view_;
    ResolutionConfig config_;
    std::vector<std::uint64_t> fingerprints_;  // ascending
    std::vector<std::uint32_t> rows_;          // rows_[i] has fingerprints_[i]
};

}  // namespace xrpl::core
