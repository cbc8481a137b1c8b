// Chunk-local information-gain accumulation — the map/reduce halves
// every IG in the tree scans through: Deanonymizer::information_gain
// and run_ig_study (owner = sender), the wallet-rotation linkage
// attack (owner = the wallet's real owner) and the entity-level
// clustered IG (owner = the sender's cluster).
//
// A partial buckets one chunk's payments by fingerprint, remembering
// per bucket the first owner seen, the number of rows, and whether a
// second distinct owner ever shared the fingerprint. The merge is
// associative over ADJACENT chunks (the earlier chunk's representative
// owner survives), so folding partials in chunk order —
// exec::map_reduce's contract — reproduces the serial left-to-right
// scan exactly, for every thread count.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>

#include "core/deanonymizer.hpp"
#include "core/fingerprint.hpp"
#include "ledger/payment_columns.hpp"

namespace xrpl::core {

/// Fingerprint buckets of one chunk (or of a prefix of merged chunks).
struct IgPartial {
    struct Bucket {
        std::uint32_t owner = 0;    // first owner id seen
        std::uint64_t rows = 0;     // payments sharing the fingerprint
        bool multi = false;         // a second distinct owner appeared
    };
    std::unordered_map<std::uint64_t, Bucket> buckets;
    std::uint64_t total_rows = 0;
};

/// The sender column under `view`, view-relative: the owner column of
/// the plain (address-level) IG.
[[nodiscard]] std::span<const std::uint32_t> sender_ids(
    ledger::PaymentView view) noexcept;

/// Bucket rows [begin, end) of `view` (view-relative indices) under
/// `plan`, attributing row i to owners[i] (view-relative, one entry
/// per row of the view). Read-only on its inputs: chunk tasks run it
/// concurrently.
[[nodiscard]] IgPartial ig_map_chunk(ledger::PaymentView view,
                                     std::span<const std::uint32_t> owners,
                                     const FingerprintPlan& plan,
                                     std::size_t begin, std::size_t end);

/// Ordered associative merge: fold `part` (the LATER chunk) into
/// `acc`. Buckets in both keep acc's representative owner and turn
/// multi when the representatives differ.
void ig_reduce(IgPartial& acc, IgPartial&& part);

/// The Fig 3 counts from fully merged buckets: every payment in a
/// single-owner bucket is uniquely identified.
[[nodiscard]] IgResult ig_finalize(const IgPartial& merged);

/// The whole scan for one configuration: chunk-parallel map on the
/// shared pool, then the ordered reduce. A fingerprint identifies when
/// all of its payments share one owner.
[[nodiscard]] IgResult ig_scan(ledger::PaymentView view,
                               std::span<const std::uint32_t> owners,
                               const ResolutionConfig& config);

}  // namespace xrpl::core
