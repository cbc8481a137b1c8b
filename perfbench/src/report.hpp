// What one benchmark invocation measured, as one JSON object that
// perfbench/run.py checks and reduces to the result line.
//
// Three kinds of numbers are kept apart on purpose:
//  * metrics   — timings and rates (vary run to run);
//  * counters  — deterministic work counts (rows, nodes expanded,
//                rounds, bytes, sealed txs): equal counters between two
//                runs of one commit at one seed mean equal work;
//  * provenance — what produced the numbers (seed, options, build).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] std::string json_quote(std::string_view text);
/// Shortest round-trip rendering; non-finite values become 0.
[[nodiscard]] std::string json_number(double value);

class Report {
public:
    void metric(const std::string& name, double value, const std::string& unit) {
        metrics_[name] = {value, unit};
    }
    void counter(const std::string& name, std::uint64_t value) {
        counters_[name] = value;
    }
    void provenance(const std::string& name, const std::string& text) {
        provenance_[name] = json_quote(text);
    }
    void provenance(const std::string& name, std::uint64_t value) {
        provenance_[name] = std::to_string(value);
    }
    void self_seconds(const std::string& layer, double seconds) {
        self_seconds_[layer] = seconds;
    }
    /// A deterministic count that differed between two passes of this run.
    void mismatch(const std::string& what) { mismatches_.push_back(what); }
    /// One measured pass: its duration and its phases' (JSON object).
    void pass(double seconds, bool traced, const std::map<std::string, double>& phases);
    void operations(std::uint64_t attempted, std::uint64_t failed) {
        attempted_ += attempted;
        failed_ += failed;
    }

    [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
    [[nodiscard]] std::string to_json() const;

private:
    std::map<std::string, std::pair<double, std::string>> metrics_;
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, std::string> provenance_;  // name -> JSON value
    std::map<std::string, double> self_seconds_;
    std::vector<std::string> mismatches_;
    std::vector<std::string> passes_;  // JSON objects
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

}  // namespace perfbench
