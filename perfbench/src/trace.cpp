#include "trace.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "report.hpp"

namespace perfbench {

namespace {

// The program's obs metrics read at every span boundary: the work
// counters of each layer the benchmark calls, and the time histograms
// whose sums give busy time (exec.chunk_ns) and index build time.
constexpr std::string_view kCounters[] = {
    "analytics.scans",       "consensus.pages.main", "consensus.pages.testnet",
    "consensus.rounds",      "consensus.rounds_failed", "consensus.validations",
    "core.fingerprint.rows", "core.ig.rows",         "datagen.pages",
    "datagen.payments",      "datagen.slices",       "exec.batches",
    "exec.tasks",            "paths.index.builds",   "paths.index.hits",
    "paths.index.rebuilds",  "paths.nodes_expanded", "paths.offers_consumed",
    "snap.decode.bytes",     "snap.decode.rows",     "snap.encode.bytes",
    "snap.encode.chunks",
};
constexpr std::string_view kHistograms[] = {
    "datagen.slice_ns", "exec.chunk_ns", "paths.index.build_ns",
    "snap.decode_ns",   "snap.encode_ns",
};
constexpr std::size_t kProbeCount =
    std::size(kCounters) + std::size(kHistograms);

std::string probe_name(std::size_t i) {
    if (i < std::size(kCounters)) return std::string(kCounters[i]);
    return std::string(kHistograms[i - std::size(kCounters)]) + ".sum";
}

std::vector<std::uint64_t> read_probes() {
    std::vector<std::uint64_t> values;
    values.reserve(kProbeCount);
    for (const std::string_view name : kCounters) {
        values.push_back(xrpl::obs::counter(name).value());
    }
    for (const std::string_view name : kHistograms) {
        values.push_back(xrpl::obs::histogram(name).sum());
    }
    return values;
}

}  // namespace

std::uint64_t now_ns() { return xrpl::obs::Stopwatch::now_ns(); }

std::string_view Span::layer() const noexcept {
    const std::string_view full = name;
    return full.substr(0, full.find('.'));
}

void Tracer::set_recording(bool on) {
    recording_ = on;
    xrpl::obs::set_enabled(on);
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name)
    : tracer_(&tracer) {
    if (tracer.recording_) {
        Span span;
        span.name = std::string(name);
        span.trace_id = tracer.trace_id_;
        span.parent = tracer.open_.empty() ? -1 : tracer.open_.back();
        index_ = static_cast<std::int64_t>(tracer.spans_.size());
        tracer.spans_.push_back(std::move(span));
        tracer.open_.push_back(index_);
        probes_at_open_ = read_probes();
    }
    start_ns_ = now_ns();
}

double Tracer::Scope::close() {
    if (end_ns_ == 0) {
        end_ns_ = now_ns();
        if (index_ >= 0) {
            const std::vector<std::uint64_t> probes = read_probes();
            Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
            span.start_ns = start_ns_;
            span.end_ns = end_ns_;
            for (std::size_t i = 0; i < kProbeCount; ++i) {
                if (probes[i] != probes_at_open_[i]) {
                    span.deltas.emplace_back(probe_name(i),
                                             probes[i] - probes_at_open_[i]);
                }
            }
            tracer_->open_.pop_back();
        }
    }
    return static_cast<double>(end_ns_ - start_ns_) * 1e-9;
}

double Tracer::seconds_of(std::uint64_t trace, std::string_view name) const {
    double total = 0.0;
    for (const Span& span : spans_) {
        if (span.trace_id == trace && span.name == name) total += span.seconds();
    }
    return total;
}

double Tracer::median_seconds(const std::vector<std::uint64_t>& traces,
                              std::string_view name) const {
    std::vector<double> values;
    for (const std::uint64_t trace : traces) values.push_back(seconds_of(trace, name));
    return median(std::move(values));
}

std::uint64_t Tracer::delta_of(std::uint64_t trace, std::string_view name,
                               std::string_view metric) const {
    std::uint64_t total = 0;
    for (const Span& span : spans_) {
        if (span.trace_id != trace || span.name != name) continue;
        for (const auto& [probe, delta] : span.deltas) {
            if (probe == metric) total += delta;
        }
    }
    return total;
}

std::map<std::string, double> Tracer::self_seconds(std::uint64_t trace) const {
    std::map<std::string, double> self;
    std::vector<double> child_seconds(spans_.size(), 0.0);
    for (const Span& span : spans_) {
        if (span.trace_id == trace && span.parent >= 0) {
            child_seconds[static_cast<std::size_t>(span.parent)] += span.seconds();
        }
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        if (span.trace_id != trace) continue;
        // Children run on the calling thread inside their parent, one
        // after another, so the part they cover is their summed length.
        self[std::string(span.layer())] += span.seconds() - child_seconds[i];
    }
    return self;
}

double Tracer::top_level_seconds(std::uint64_t trace) const {
    double total = 0.0;
    for (const Span& span : spans_) {
        if (span.trace_id == trace && span.parent < 0) total += span.seconds();
    }
    return total;
}

std::string Tracer::to_json() const {
    std::string out = "{\"spans\": [";
    const char* sep = "\n  ";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        out += sep;
        sep = ",\n  ";
        out += "{\"id\": " + std::to_string(i) +
               ", \"name\": " + json_quote(span.name) +
               ", \"trace\": " + std::to_string(span.trace_id) +
               ", \"parent\": " + std::to_string(span.parent) +
               ", \"start_ns\": " + std::to_string(span.start_ns) +
               ", \"end_ns\": " + std::to_string(span.end_ns) + ", \"deltas\": {";
        const char* dsep = "";
        for (const auto& [probe, delta] : span.deltas) {
            out += dsep + json_quote(probe) + ": " + std::to_string(delta);
            dsep = ", ";
        }
        out += "}}";
    }
    out += "\n]}\n";
    return out;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    if (q == 0.5 && values.size() % 2 == 0) {
        const std::size_t hi = values.size() / 2;
        return 0.5 * (values[hi - 1] + values[hi]);
    }
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        static_cast<std::size_t>(std::max(1.0, rank)) - 1;
    return values[std::min(index, values.size() - 1)];
}

}  // namespace perfbench
