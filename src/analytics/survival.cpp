#include "analytics/survival.hpp"

#include <algorithm>
#include <cmath>

#include "exec/parallel.hpp"
#include "ledger/amount.hpp"
#include "obs/metrics.hpp"

namespace xrpl::analytics {

namespace {

float amount_at(const ledger::PaymentColumns& columns, std::size_t row) noexcept {
    return static_cast<float>(ledger::IouAmount::from_mantissa_exponent(
                                  columns.amount_mantissa[row],
                                  columns.amount_exponent[row])
                                  .to_double());
}

}  // namespace

std::vector<float> amount_samples(ledger::PaymentView view) {
    static obs::Counter& scans = obs::counter("analytics.scans");
    scans.add();
    const ledger::PaymentColumns& columns = view.columns();
    const std::size_t offset = view.offset();
    std::vector<float> samples(view.size());
    exec::parallel_for(view.size(), exec::kDefaultChunkRows,
                       [&](std::size_t begin, std::size_t end) {
                           for (std::size_t r = begin; r < end; ++r) {
                               samples[r] = amount_at(columns, offset + r);
                           }
                       });
    return samples;
}

std::vector<float> amount_samples(ledger::PaymentView view,
                                  const ledger::Currency& currency) {
    const ledger::PaymentColumns& columns = view.columns();
    const std::optional<std::uint16_t> id = columns.currencies.find(currency);
    if (!id) return {};

    const std::size_t offset = view.offset();
    return exec::map_reduce<std::vector<float>>(
        view.size(), exec::kDefaultChunkRows,
        [&](std::size_t begin, std::size_t end) {
            std::vector<float> local;
            for (std::size_t r = begin; r < end; ++r) {
                if (columns.currency_id[offset + r] == *id) {
                    local.push_back(amount_at(columns, offset + r));
                }
            }
            return local;
        },
        [](std::vector<float>& acc, std::vector<float>&& part) {
            acc.insert(acc.end(), part.begin(), part.end());
        });
}

SurvivalFunction survival_of(ledger::PaymentView view,
                             const ledger::Currency& currency) {
    const std::vector<float> samples = amount_samples(view, currency);
    return SurvivalFunction(samples);
}

SurvivalFunction::SurvivalFunction(std::span<const float> samples)
    : sorted_(samples.begin(), samples.end()) {
    std::sort(sorted_.begin(), sorted_.end());
}

double SurvivalFunction::survival(double value) const noexcept {
    if (sorted_.empty()) return 0.0;
    const auto it = std::upper_bound(sorted_.begin(), sorted_.end(),
                                     static_cast<float>(value));
    const auto above = static_cast<std::size_t>(sorted_.end() - it);
    return static_cast<double>(above) / static_cast<double>(sorted_.size());
}

double SurvivalFunction::median() const noexcept { return quantile(0.5); }

double SurvivalFunction::quantile(double q) const noexcept {
    if (sorted_.empty()) return 0.0;
    const double clamped = std::clamp(q, 0.0, 1.0);
    const auto index = static_cast<std::size_t>(
        clamped * static_cast<double>(sorted_.size() - 1));
    return sorted_[index];
}

std::vector<SurvivalFunction::Point> SurvivalFunction::curve(
    double log10_min, double log10_max, int per_decade) const {
    std::vector<Point> points;
    if (per_decade <= 0 || log10_max < log10_min) return points;
    const double step = 1.0 / per_decade;
    for (double e = log10_min; e <= log10_max + 1e-9; e += step) {
        const double amount = std::pow(10.0, e);
        points.push_back(Point{amount, survival(amount)});
    }
    return points;
}

}  // namespace xrpl::analytics
