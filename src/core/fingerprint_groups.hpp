// Payments grouped by fingerprint — the one grouping behind Fig 3's
// IG, the anonymity-set profile and the attack index.
//
// Payments with equal fingerprints are indistinguishable to the
// attacker, so each fingerprint's payments form one group. The
// grouping is a bucketed sort on the shared pool: row i's fingerprint
// (fingerprint_column writes one slot per row) is paired with a
// caller key, the pairs are scattered into 1,024 buckets by their top
// 10 fingerprint bits, and each bucket is sorted under the pairs'
// total order. Equal fingerprints share their top bits, so no group
// spans two buckets, and the buckets ascend, so the result is the
// array one whole-array sort gives: every run of equal fingerprints is
// one group with its keys ascending. The chunks, the sort tasks' bucket
// ranges and the walk's slices are fixed by the row count and
// constants, never by the thread count.
//
// The keys are owner ids for the IG variants and the anonymity
// profile — the sender for Fig 3, the sender's cluster for
// entity-level IG and the rotation linkage attack — and row indices
// for the attack index.
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <vector>

#include "core/anonymity.hpp"
#include "core/deanonymizer.hpp"
#include "core/features.hpp"
#include "ledger/payment_columns.hpp"

namespace xrpl::core {

/// One row's fingerprint and its caller key, ordered by fingerprint,
/// then key.
struct KeyedFingerprint {
    std::uint64_t fingerprint = 0;
    std::uint32_t key = 0;

    friend auto operator<=>(const KeyedFingerprint&,
                            const KeyedFingerprint&) = default;
};

/// The sender column under `view`, view-relative: the owner column of
/// the plain (address-level) IG.
[[nodiscard]] std::span<const std::uint32_t> sender_ids(
    ledger::PaymentView view) noexcept;

/// Row i's fingerprint under `config` paired with keys[i] (one key per
/// row of the view), sorted: each run of equal fingerprints is one
/// group.
[[nodiscard]] std::vector<KeyedFingerprint> sorted_by_fingerprint(
    ledger::PaymentView view, std::span<const std::uint32_t> keys,
    const ResolutionConfig& config);

/// Anonymity sets with row i attributed to owners[i]: each group
/// counts its distinct owners as the set size of all of its payments.
[[nodiscard]] AnonymityProfile anonymity_profile(
    ledger::PaymentView view, std::span<const std::uint32_t> owners,
    const ResolutionConfig& config);

/// Fig 3's IG read off a profile: the uniquely identified payments are
/// those with anonymity set 1.
[[nodiscard]] IgResult ig_of(const AnonymityProfile& profile);

}  // namespace xrpl::core
