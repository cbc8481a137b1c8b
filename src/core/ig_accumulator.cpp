#include "core/ig_accumulator.hpp"

#include <vector>

#include "exec/chunked_view.hpp"
#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "util/contract.hpp"

namespace xrpl::core {

std::span<const std::uint32_t> sender_ids(ledger::PaymentView view) noexcept {
    return std::span<const std::uint32_t>(view.columns().sender_id)
        .subspan(view.offset(), view.size());
}

IgPartial ig_map_chunk(ledger::PaymentView view,
                       std::span<const std::uint32_t> owners,
                       const FingerprintPlan& plan, std::size_t begin,
                       std::size_t end) {
    const std::size_t offset = view.offset();
    const std::size_t n = end - begin;

    std::vector<std::uint64_t> fingerprints(n);
    plan.rows(offset + begin, offset + end, fingerprints.data());

    static obs::Counter& chunks = obs::counter("core.ig.chunks");
    static obs::Counter& rows = obs::counter("core.ig.rows");
    chunks.add();
    rows.add(n);

    IgPartial partial;
    partial.total_rows = n;
    partial.buckets.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t owner = owners[begin + i];
        auto [it, inserted] = partial.buckets.try_emplace(
            fingerprints[i], IgPartial::Bucket{owner, 1, false});
        if (!inserted) {
            ++it->second.rows;
            if (it->second.owner != owner) it->second.multi = true;
        }
    }
    return partial;
}

void ig_reduce(IgPartial& acc, IgPartial&& part) {
    static obs::Counter& merges = obs::counter("core.ig.merges");
    merges.add();
    if (acc.buckets.empty()) {
        acc.total_rows += part.total_rows;
        acc.buckets = std::move(part.buckets);
        return;
    }
    acc.total_rows += part.total_rows;
    for (auto& [fp, bucket] : part.buckets) {
        auto [it, inserted] = acc.buckets.try_emplace(fp, bucket);
        if (!inserted) {
            it->second.rows += bucket.rows;
            if (bucket.multi || it->second.owner != bucket.owner) {
                it->second.multi = true;
            }
        }
    }
}

IgResult ig_finalize(const IgPartial& merged) {
    IgResult result;
    result.total_payments = merged.total_rows;
    for (const auto& [fp, bucket] : merged.buckets) {
        if (!bucket.multi) result.uniquely_identified += bucket.rows;
    }
    // IG is a probability (Fig 3 plots it in [0, 1]): the uniquely
    // identified payments are a subset of all payments, and there are
    // at most as many fingerprint buckets as payments.
    XRPL_INVARIANT(result.uniquely_identified <= result.total_payments,
                   "IG numerator must be a subset of the payment count");
    XRPL_INVARIANT(merged.buckets.size() <= result.total_payments,
                   "fingerprint buckets cannot outnumber payments");
    return result;
}

IgResult ig_scan(ledger::PaymentView view, std::span<const std::uint32_t> owners,
                 const ResolutionConfig& config) {
    XRPL_ASSERT(owners.size() == view.size(),
                "the owner column must cover every row of the view");
    const FingerprintPlan plan(view.columns(), config);
    const exec::ChunkedView chunks(view);
    const IgPartial merged = exec::map_reduce<IgPartial>(
        chunks.chunk_count(),
        [&](std::size_t c) {
            const exec::ChunkedView::Bounds b = chunks.bounds(c);
            return ig_map_chunk(view, owners, plan, b.begin, b.end);
        },
        [](IgPartial& acc, IgPartial&& part) {
            ig_reduce(acc, std::move(part));
        });
    return ig_finalize(merged);
}

}  // namespace xrpl::core
