#include "analytics/network_stats.hpp"

#include <algorithm>

#include "exec/parallel.hpp"
#include "obs/metrics.hpp"

namespace xrpl::analytics {

namespace {

/// The stats read off the ledger rather than the payment history.
void fill_ledger_stats(NetworkStats& stats, const ledger::LedgerState& ledger) {
    stats.accounts = ledger.account_count();
    stats.trust_lines = ledger.trustline_count();
    stats.live_offers = ledger.offer_count();

    std::uint64_t degree_total = 0;
    for (std::uint32_t i = 0; i < ledger.account_count(); ++i) {
        const ledger::AccountID& id = ledger.account_by_index(i);
        const auto degree =
            static_cast<std::uint32_t>(ledger.lines_of(id).size());
        ++stats.degree_histogram[degree];
        degree_total += degree;
        stats.max_degree = std::max(stats.max_degree, degree);
    }
    stats.mean_degree = stats.accounts == 0
                            ? 0.0
                            : static_cast<double>(degree_total) /
                                  static_cast<double>(stats.accounts);
}

/// Sorted, deduplicated interned-account ids seen by one chunk (or a
/// merged prefix of chunks).
struct ActivityPartial {
    std::vector<std::uint32_t> sent;
    std::vector<std::uint32_t> touched;
};

std::vector<std::uint32_t> sorted_union(const std::vector<std::uint32_t>& a,
                                        const std::vector<std::uint32_t>& b) {
    std::vector<std::uint32_t> out;
    out.reserve(a.size() + b.size());
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(out));
    return out;
}

void sort_unique(std::vector<std::uint32_t>& ids) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

}  // namespace

NetworkStats compute_network_stats(const ledger::LedgerState& ledger,
                                   ledger::PaymentView view) {
    static obs::Counter& scans = obs::counter("analytics.scans");
    scans.add();
    NetworkStats stats;
    fill_ledger_stats(stats, ledger);

    // Distinct senders / participants as sorted interned-id sets:
    // each chunk collects and dedups its own ids, merges are sorted
    // set unions — associative, and memory-bounded by the chunk, not
    // the account dictionary.
    const ledger::PaymentColumns& columns = view.columns();
    const std::size_t offset = view.offset();
    const ActivityPartial merged = exec::map_reduce<ActivityPartial>(
        view.size(), exec::kDefaultChunkRows,
        [&](std::size_t begin, std::size_t end) {
            ActivityPartial local;
            local.sent.reserve(end - begin);
            local.touched.reserve(2 * (end - begin));
            for (std::size_t r = begin; r < end; ++r) {
                local.sent.push_back(columns.sender_id[offset + r]);
                local.touched.push_back(columns.sender_id[offset + r]);
                local.touched.push_back(columns.dest_id[offset + r]);
            }
            sort_unique(local.sent);
            sort_unique(local.touched);
            return local;
        },
        [](ActivityPartial& acc, ActivityPartial&& part) {
            acc.sent = sorted_union(acc.sent, part.sent);
            acc.touched = sorted_union(acc.touched, part.touched);
        });
    stats.active_senders = merged.sent.size();
    stats.active_participants = merged.touched.size();
    return stats;
}

double gini(std::vector<double> weights) {
    std::erase_if(weights, [](double w) { return w < 0.0; });
    if (weights.size() < 2) return 0.0;
    std::sort(weights.begin(), weights.end());
    double cumulative = 0.0;
    double weighted_rank_sum = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        cumulative += weights[i];
        weighted_rank_sum += static_cast<double>(i + 1) * weights[i];
    }
    if (cumulative <= 0.0) return 0.0;
    const auto n = static_cast<double>(weights.size());
    return (2.0 * weighted_rank_sum) / (n * cumulative) - (n + 1.0) / n;
}

}  // namespace xrpl::analytics
