// Transaction fingerprints.
//
// A fingerprint is the hash of the feature subset an attacker knows,
// each feature coarsened to its configured resolution. Two payments
// with equal fingerprints are indistinguishable to that attacker;
// the sender is "uniquely identified" when every payment sharing a
// fingerprint has the same sender (§V-B).
//
// Every field mixes under its own 64-bit domain tag (amount, time,
// currency, destination all distinct), so fingerprints built from
// different feature subsets — e.g. ⟨A,−,−,−⟩ vs ⟨−,T,−,−⟩ — can never
// collide structurally, only through (negligible) hash accident.
//
// Two evaluation paths produce bit-identical fingerprints:
//  * fingerprint(record, config): one row — the attacker's
//    observation, which is never part of a store.
//  * fingerprint_column(view, config): the history in one pass over
//    the columnar store, with per-column precomputation — each
//    distinct account is folded to its hash word once, each currency
//    resolves its code word and Table I rounding unit once, and the
//    per-row loop touches only dense columns.
#pragma once

#include <cstdint>
#include <vector>

#include "core/features.hpp"
#include "ledger/payment_columns.hpp"
#include "ledger/transaction.hpp"

namespace xrpl::core {

/// 64-bit mixing hash (xxhash-style avalanche); collision probability
/// over a few million fingerprints is negligible (~1e-7).
class FingerprintHasher {
public:
    void mix(std::uint64_t value) noexcept;
    [[nodiscard]] std::uint64_t digest() const noexcept { return state_; }

private:
    std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
};

/// Fingerprint of `record` under `config`. The sender field is never
/// part of the fingerprint — it is what the attacker wants to learn.
[[nodiscard]] std::uint64_t fingerprint(const ledger::TxRecord& record,
                                        const ResolutionConfig& config) noexcept;

/// Fingerprints of every payment in `view`, in row order. Bit-identical
/// to calling fingerprint() on each reconstructed row, but computed
/// column-wise with interner-table precomputation, chunk-parallel on
/// the shared pool (each chunk writes its own disjoint output slots,
/// so the result is thread-count independent by construction).
[[nodiscard]] std::vector<std::uint64_t> fingerprint_column(
    const ledger::PaymentView& view, const ResolutionConfig& config);

}  // namespace xrpl::core
