// The benchmark's workloads. Each builds its inputs from the seed
// (set-up), then runs measured passes — closed loop, one caller — and
// checks every pass's outputs. main.cpp owns the loop and the clocks;
// a workload owns what a pass does and which numbers it reports.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

/// Input sizes. `full` is what the benchmark measures; `tiny` exists
/// for the smoke test of the benchmark itself.
enum class Size : std::uint8_t { kFull, kTiny };

struct PassOutcome {
    /// Duration of the measured work (checks excluded).
    double seconds = 0.0;
    /// Per-phase durations inside the pass (e.g. "replay", "node").
    std::map<std::string, double> phase_seconds;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    /// Deterministic work counts of this pass; every pass of a run must
    /// produce the same ones.
    std::map<std::string, std::uint64_t> counts;
};

class Workload {
public:
    virtual ~Workload() = default;

    /// How many times set-up runs per invocation (setup_s is the median).
    [[nodiscard]] virtual int setup_repetitions() const = 0;
    /// Build the inputs from the seed; the last call's inputs are kept.
    virtual void setup(Tracer& tracer) = 0;
    /// One measured pass over the inputs, outputs checked.
    virtual PassOutcome pass(Tracer& tracer) = 0;

    /// Headline rates with the workload's own names, from untraced passes.
    virtual void report_rates(const std::vector<PassOutcome>& passes,
                              Report& report) const = 0;
    /// Per-layer metrics from the traced set-ups and passes.
    virtual void report_layers(const Tracer& tracer,
                               const std::vector<std::uint64_t>& setup_traces,
                               const std::vector<std::uint64_t>& pass_traces,
                               Report& report) const = 0;
    /// Called once after set-up, untimed: derives the reference values
    /// the passes are checked against and records input sizes, dataset
    /// identity and other provenance.
    virtual void report_inputs(Report& report) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_deanon(std::uint64_t seed, Size size);
[[nodiscard]] std::unique_ptr<Workload> make_payments(std::uint64_t seed, Size size);
[[nodiscard]] std::unique_ptr<Workload> make_consensus(std::uint64_t seed, Size size);

}  // namespace perfbench
