#include "analytics/currency_stats.hpp"

#include <algorithm>

#include "exec/parallel.hpp"
#include "obs/metrics.hpp"

namespace xrpl::analytics {

std::unordered_map<ledger::Currency, std::uint64_t> count_currencies(
    ledger::PaymentView view) {
    static obs::Counter& scans = obs::counter("analytics.scans");
    scans.add();
    const ledger::PaymentColumns& columns = view.columns();
    const std::size_t offset = view.offset();

    // Partial = counts by interned currency id. The currency dictionary
    // is small (u16 ids), so dense per-chunk vectors beat hash maps.
    using Partial = std::vector<std::uint64_t>;
    const Partial merged = exec::map_reduce<Partial>(
        view.size(), exec::kDefaultChunkRows,
        [&](std::size_t begin, std::size_t end) {
            Partial local(columns.currencies.size(), 0);
            for (std::size_t r = begin; r < end; ++r) {
                ++local[columns.currency_id[offset + r]];
            }
            return local;
        },
        [](Partial& acc, Partial&& part) {
            for (std::size_t i = 0; i < part.size(); ++i) acc[i] += part[i];
        });

    std::unordered_map<ledger::Currency, std::uint64_t> counts;
    counts.reserve(merged.size());
    for (std::size_t c = 0; c < merged.size(); ++c) {
        if (merged[c] != 0) {
            counts.emplace(columns.currencies.at(static_cast<std::uint16_t>(c)),
                           merged[c]);
        }
    }
    return counts;
}

std::vector<CurrencyCount> rank_currencies(ledger::PaymentView view) {
    return rank_currencies(count_currencies(view));
}

std::vector<CurrencyCount> rank_currencies(
    const std::unordered_map<ledger::Currency, std::uint64_t>& counts) {
    std::uint64_t total = 0;
    for (const auto& [currency, payments] : counts) total += payments;

    std::vector<CurrencyCount> out;
    out.reserve(counts.size());
    for (const auto& [currency, payments] : counts) {
        CurrencyCount row;
        row.currency = currency;
        row.payments = payments;
        row.share = total == 0 ? 0.0
                               : static_cast<double>(payments) /
                                     static_cast<double>(total);
        out.push_back(row);
    }
    std::sort(out.begin(), out.end(),
              [](const CurrencyCount& a, const CurrencyCount& b) {
                  if (a.payments != b.payments) return a.payments > b.payments;
                  return a.currency < b.currency;
              });
    return out;
}

}  // namespace xrpl::analytics
