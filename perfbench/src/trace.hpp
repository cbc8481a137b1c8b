// Benchmark-side tracing.
//
// A Span wraps one call into the program's public API, made from the
// benchmark's own code: name, start, end, parent span, and the id of
// the pass or phase it belongs to. At the same two boundaries the
// tracer reads the program's existing obs counters and histogram sums
// and keeps what moved, so work counts sit next to the time they took.
// Spans stay in memory and are written out once, at exit.
//
// Scopes always time themselves (the untraced run needs the pass and
// phase durations too); only a recording tracer keeps spans and reads
// the obs probes, so untraced runs pay two clock reads per scope.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
    std::string name;             // "<layer>.<call>", e.g. "core.run_ig_study"
    std::uint64_t trace_id = 0;   // shared by the spans of one pass or phase
    std::int64_t parent = -1;     // index into Tracer::spans(); -1 = top level
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    /// obs counters / histogram sums that moved inside the span.
    std::vector<std::pair<std::string, std::uint64_t>> deltas;

    [[nodiscard]] double seconds() const noexcept {
        return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
    [[nodiscard]] std::string_view layer() const noexcept;
};

class Tracer {
public:
    /// Recording also switches the program's obs gate, so counters
    /// run exactly while spans are kept.
    void set_recording(bool on);
    [[nodiscard]] bool recording() const noexcept { return recording_; }

    /// Start a new pass or phase; scopes opened from now on carry its id.
    std::uint64_t next_trace() noexcept { return ++trace_id_; }

    class Scope {
    public:
        Scope(Tracer& tracer, std::string_view name);
        ~Scope() { close(); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        /// End the scope now (idempotent); returns its duration.
        double close();

    private:
        Tracer* tracer_;
        std::int64_t index_ = -1;  // span slot when recording
        std::uint64_t start_ns_;
        std::uint64_t end_ns_ = 0;
        std::vector<std::uint64_t> probes_at_open_;
    };

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

    /// Σ durations of spans called `name` in `trace`.
    [[nodiscard]] double seconds_of(std::uint64_t trace, std::string_view name) const;
    /// Median over `traces` of seconds_of(trace, name).
    [[nodiscard]] double median_seconds(const std::vector<std::uint64_t>& traces,
                                        std::string_view name) const;
    /// Σ of `metric`'s movement inside spans called `name` in `trace`.
    [[nodiscard]] std::uint64_t delta_of(std::uint64_t trace, std::string_view name,
                                         std::string_view metric) const;
    /// Self time per layer in `trace`: each span minus the part of it
    /// its child spans cover.
    [[nodiscard]] std::map<std::string, double> self_seconds(std::uint64_t trace) const;
    /// Σ durations of the top-level spans of `trace`.
    [[nodiscard]] double top_level_seconds(std::uint64_t trace) const;

    [[nodiscard]] std::string to_json() const;

private:
    bool recording_ = false;
    std::uint64_t trace_id_ = 0;
    std::vector<Span> spans_;
    std::vector<std::int64_t> open_;  // stack of open span indices
};

/// Wall-clock now, from the program's one sanctioned clock.
[[nodiscard]] std::uint64_t now_ns();

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// Value at quantile q in [0, 1] (nearest rank; 0 when empty).
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace perfbench
