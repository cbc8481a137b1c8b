#include "core/fingerprint_groups.hpp"

#include <algorithm>

#include "core/fingerprint.hpp"
#include "exec/parallel.hpp"
#include "util/contract.hpp"

namespace xrpl::core {

namespace {

// Buckets are the top fingerprint bits. Equal fingerprints share
// them, so no group spans two buckets, and fingerprints are avalanche
// hashes, so the buckets fill evenly unless one fingerprint is common.
constexpr unsigned kBucketBits = 10;
constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
// Buckets per sort task: 64 tasks, a partition fixed by the constants.
constexpr std::size_t kBucketsPerSortTask = 16;

std::size_t bucket_of(std::uint64_t fingerprint) noexcept {
    return static_cast<std::size_t>(fingerprint >> (64 - kBucketBits));
}

}  // namespace

std::span<const std::uint32_t> sender_ids(ledger::PaymentView view) noexcept {
    return std::span<const std::uint32_t>(view.columns().sender_id)
        .subspan(view.offset(), view.size());
}

std::vector<KeyedFingerprint> sorted_by_fingerprint(
    ledger::PaymentView view, std::span<const std::uint32_t> keys,
    const ResolutionConfig& config) {
    XRPL_ASSERT(keys.size() == view.size(),
                "the key column must cover every row of the view");
    const std::vector<std::uint64_t> fingerprints = fingerprint_column(view, config);
    const std::size_t n = fingerprints.size();
    constexpr std::size_t grain = exec::kDefaultChunkRows;
    const std::size_t chunks = exec::chunk_count_for(n, grain);

    // starts[c * kBuckets + b]: chunk c's row count in bucket b, then,
    // after the prefix sum, the slot where chunk c's first row of
    // bucket b goes.
    std::vector<std::size_t> starts(chunks * kBuckets, 0);
    exec::parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
        std::size_t* counts = starts.data() + begin / grain * kBuckets;
        for (std::size_t i = begin; i < end; ++i) ++counts[bucket_of(fingerprints[i])];
    });
    // Prefix sums in (bucket, chunk) order: bucket b follows every
    // lower bucket, and within it chunk c's rows follow chunk c-1's.
    std::vector<std::size_t> bucket_begin(kBuckets + 1);
    std::size_t slot = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        bucket_begin[b] = slot;
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::size_t count = starts[c * kBuckets + b];
            starts[c * kBuckets + b] = slot;
            slot += count;
        }
    }
    bucket_begin[kBuckets] = slot;

    std::vector<KeyedFingerprint> sorted(n);
    exec::parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
        const std::size_t c = begin / grain;
        std::vector<std::size_t> cursor(starts.data() + c * kBuckets,
                                        starts.data() + (c + 1) * kBuckets);
        for (std::size_t i = begin; i < end; ++i) {
            sorted[cursor[bucket_of(fingerprints[i])]++] = {fingerprints[i], keys[i]};
        }
        // Each cursor ends where the next writer of its bucket starts:
        // chunk c+1, or bucket b+1 after the last chunk.
        for (std::size_t b = 0; b < kBuckets; ++b) {
            XRPL_INVARIANT(cursor[b] == (c + 1 < chunks
                                             ? starts[(c + 1) * kBuckets + b]
                                             : bucket_begin[b + 1]),
                           "bucket cursors must end at the next writer's start");
        }
    });

    // A total order: equal pairs are identical, so the unstable sort's
    // tie handling cannot show, and since buckets ascend and no group
    // spans two, the sorted buckets are the whole array sorted.
    exec::parallel_for(kBuckets, kBucketsPerSortTask,
                       [&](std::size_t first, std::size_t last) {
                           for (std::size_t b = first; b < last; ++b) {
                               std::sort(sorted.data() + bucket_begin[b],
                                         sorted.data() + bucket_begin[b + 1]);
                           }
                       });
#if XRPL_CONTRACTS_ENABLED
    // O(n) sweep, so contract builds only.
    XRPL_INVARIANT(std::is_sorted(sorted.begin(), sorted.end()),
                   "the bucketed sort must order the whole array");
#endif
    return sorted;
}

AnonymityProfile anonymity_profile(ledger::PaymentView view,
                                   std::span<const std::uint32_t> owners,
                                   const ResolutionConfig& config) {
    const std::vector<KeyedFingerprint> sorted =
        sorted_by_fingerprint(view, owners, config);
    constexpr std::size_t grain = exec::kDefaultChunkRows;
    // Fixed slices of the sorted array, each cut advanced to the next
    // run start, so every group is walked whole by exactly one slice.
    const auto run_start = [&](std::size_t cut) {
        if (cut == 0 || cut >= sorted.size()) return std::min(cut, sorted.size());
        const std::uint64_t previous = sorted[cut - 1].fingerprint;
        const KeyedFingerprint* next = std::partition_point(
            sorted.data() + cut, sorted.data() + sorted.size(),
            [previous](const KeyedFingerprint& entry) {
                return entry.fingerprint == previous;
            });
        return static_cast<std::size_t>(next - sorted.data());
    };
    return exec::map_reduce<AnonymityProfile>(
        sorted.size(), grain,
        [&](std::size_t slice_begin, std::size_t slice_end) {
            AnonymityProfile partial;
            std::size_t begin = run_start(slice_begin);
            const std::size_t last = run_start(slice_end);
            while (begin < last) {
                // Owners ascend within a group, so each change of owner
                // between neighbours is one more distinct owner.
                std::uint32_t distinct_owners = 1;
                std::size_t end = begin + 1;
                for (; end < sorted.size() &&
                       sorted[end].fingerprint == sorted[begin].fingerprint;
                     ++end) {
                    if (sorted[end].key != sorted[end - 1].key) ++distinct_owners;
                }
                partial.add(distinct_owners, end - begin);
                begin = end;
            }
            return partial;
        },
        [](AnonymityProfile& profile, AnonymityProfile&& partial) {
            for (const auto& [set_size, payments] : partial.histogram()) {
                profile.add(set_size, payments);
            }
        });
}

IgResult ig_of(const AnonymityProfile& profile) {
    IgResult result;
    result.total_payments = profile.total_payments();
    const auto singles = profile.histogram().find(1);
    if (singles != profile.histogram().end()) {
        result.uniquely_identified = singles->second;
    }
    // IG is a probability (Fig 3 plots it in [0, 1]).
    XRPL_INVARIANT(result.uniquely_identified <= result.total_payments,
                   "IG numerator must be a subset of the payment count");
    return result;
}

}  // namespace xrpl::core
