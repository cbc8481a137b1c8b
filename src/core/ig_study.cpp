#include "core/ig_study.hpp"

#include "core/ig_accumulator.hpp"
#include "exec/chunked_view.hpp"
#include "exec/thread_pool.hpp"
#include "obs/phase.hpp"
#include "util/contract.hpp"

namespace xrpl::core {

std::vector<ResolutionConfig> fig3_configurations() {
    using A = AmountResolution;
    using T = util::TimeResolution;
    const std::optional<A> no_amount;
    const std::optional<T> no_time;

    return {
        {A::kMax, T::kSeconds, true, true},    // <Am; Tsc; C; D>
        {A::kMax, T::kSeconds, false, true},   // <Am; Tsc; -; D>
        {A::kMax, T::kSeconds, true, false},   // <Am; Tsc; C; ->
        {no_amount, T::kSeconds, true, true},  // <-;  Tsc; C; D>
        {A::kHigh, T::kMinutes, true, true},   // <Ah; Tmn; C; D>
        {A::kAverage, T::kHours, true, true},  // <Aa; Thr; C; D>
        {A::kLow, T::kDays, true, true},       // <Al; Tdy; C; D>
        {A::kMax, no_time, true, true},        // <Am; -;   C; D>
        {A::kMax, no_time, false, false},      // <Am; -;   -; ->
        {A::kLow, T::kDays, false, false},     // <Al; Tdy; -; ->
    };
}

PaperReference fig3_paper_reference(std::size_t index) noexcept {
    // Exact values quoted in §V-B; approximate ones read off Fig 3.
    switch (index) {
        case 0: return {0.9983, true};   // "more than 99.83%"
        case 1: return {0.9983, true};   // "still ... 99.83%"
        case 2: return {0.9378, true};   // "decreases to 93.78%"
        case 3: return {0.8986, true};   // "drops to 89.86%"
        case 4: return {0.97, false};    // read off the figure
        case 5: return {0.88, false};    // read off the figure
        case 6: return {0.52, false};    // "slightly more than 50%"
        case 7: return {0.4884, true};   // "48.84%, less than a coin toss"
        case 8: return {0.30, false};    // read off the figure
        case 9: return {0.0128, true};   // "drops down to 1.28%"
        default: return {std::nullopt, false};
    }
}

std::vector<IgStudyRow> run_ig_study(const ledger::PaymentColumns& payments) {
    return run_ig_study(payments.view());
}

std::vector<IgStudyRow> run_ig_study(ledger::PaymentView view) {
    const obs::Phase phase("core.ig_study");
    // The whole study is one flat (configuration x chunk) task grid:
    // chunks parallelize within a configuration, configurations
    // parallelize against each other, and the pool load-balances
    // across both dimensions at once — no per-config barrier. The
    // per-config fingerprint plans are built up front (cheap: one
    // pass over the two dictionary tables each) and shared read-only
    // by every chunk task of that configuration.
    const std::vector<ResolutionConfig> configs = fig3_configurations();
    const exec::ChunkedView chunks(view);
    const std::size_t k = chunks.chunk_count();
    const std::span<const std::uint32_t> senders = sender_ids(view);

    std::vector<FingerprintPlan> plans;
    plans.reserve(configs.size());
    for (const ResolutionConfig& config : configs) {
        plans.emplace_back(view.columns(), config);
    }

    std::vector<std::vector<IgPartial>> partials(configs.size());
    for (std::vector<IgPartial>& per_config : partials) per_config.resize(k);
    exec::ThreadPool::shared().run(configs.size() * k, [&](std::size_t t) {
        const std::size_t config = t / k;
        const std::size_t chunk = t % k;
        const exec::ChunkedView::Bounds b = chunks.bounds(chunk);
        partials[config][chunk] =
            ig_map_chunk(view, senders, plans[config], b.begin, b.end);
    });

    // Per-configuration ordered folds, themselves parallel across
    // configurations (each fold is independent, and within one
    // configuration partials merge strictly in chunk order).
    std::vector<IgStudyRow> rows(configs.size());
    exec::ThreadPool::shared().run(configs.size(), [&](std::size_t config) {
        IgPartial merged;
        std::size_t folded = 0;
        for (std::size_t c = 0; c < k; ++c) {
            XRPL_INVARIANT(folded == c, "partials must merge in chunk order");
            ig_reduce(merged, std::move(partials[config][c]));
            ++folded;
        }
        rows[config].result = ig_finalize(merged);
    });
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const PaperReference reference = fig3_paper_reference(i);
        rows[i].config = configs[i];
        rows[i].paper_value = reference.value;
        rows[i].paper_value_exact = reference.exact;
    }
    return rows;
}

}  // namespace xrpl::core
