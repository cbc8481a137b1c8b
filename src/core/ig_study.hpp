// The Fig 3 study: IG across the paper's ten feature/resolution
// configurations, with the paper's reported values alongside for
// comparison.
#pragma once

#include <optional>
#include <vector>

#include "core/deanonymizer.hpp"
#include "core/features.hpp"

namespace xrpl::core {

/// One Fig 3 bar.
struct IgStudyRow {
    ResolutionConfig config;
    IgResult result;
    /// The value the paper reports (exact where stated in the text,
    /// read off the figure otherwise); nullopt when the bar has no
    /// quotable value.
    std::optional<double> paper_value;
    bool paper_value_exact = false;
};

/// The ten configurations of Fig 3, top to bottom.
[[nodiscard]] std::vector<ResolutionConfig> fig3_configurations();

/// Paper-reported IG for configuration `index` (same order), if any.
struct PaperReference {
    std::optional<double> value;
    bool exact = false;
};
[[nodiscard]] PaperReference fig3_paper_reference(std::size_t index) noexcept;

/// Run the whole study over a payment history: one batched
/// fingerprint pass per configuration, all ten configurations on the
/// shared pool at once.
[[nodiscard]] std::vector<IgStudyRow> run_ig_study(
    const ledger::PaymentColumns& payments);
[[nodiscard]] std::vector<IgStudyRow> run_ig_study(ledger::PaymentView view);

}  // namespace xrpl::core
