#include "core/ig_study.hpp"

#include "core/fingerprint_groups.hpp"
#include "exec/thread_pool.hpp"
#include "obs/phase.hpp"

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
    // One pool task per configuration, each writing its own row. The
    // fingerprint pass inside a task fans out again over the same
    // pool: a nested run() drains its own batch.
    const std::vector<ResolutionConfig> configs = fig3_configurations();
    const std::span<const std::uint32_t> senders = sender_ids(view);
    std::vector<IgStudyRow> rows(configs.size());
    exec::ThreadPool::shared().run(configs.size(), [&](std::size_t i) {
        rows[i].result = ig_of(anonymity_profile(view, senders, configs[i]));
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
