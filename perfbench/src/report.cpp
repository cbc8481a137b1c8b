#include "report.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::string json_quote(std::string_view text) {
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
    return out;
}

std::string json_number(double value) {
    if (!std::isfinite(value)) return "0";
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
    (void)ec;
    return std::string(buf, end);
}

void Report::pass(double seconds, bool traced,
                  const std::map<std::string, double>& phases) {
    std::string entry = "{\"seconds\": " + json_number(seconds) +
                        ", \"traced\": " + (traced ? "true" : "false") + ", \"phases\": {";
    const char* sep = "";
    for (const auto& [name, phase_seconds] : phases) {
        entry += sep + json_quote(name) + ": " + json_number(phase_seconds);
        sep = ", ";
    }
    passes_.push_back(entry + "}}");
}

std::string Report::to_json() const {
    std::string out = "{\n  \"attempted\": " + std::to_string(attempted_) +
                      ",\n  \"failed\": " + std::to_string(failed_) +
                      ",\n  \"metrics\": {";
    const char* sep = "\n    ";
    for (const auto& [name, metric] : metrics_) {
        out += sep + json_quote(name) + ": {\"value\": " +
               json_number(metric.first) + ", \"unit\": " +
               json_quote(metric.second) + "}";
        sep = ",\n    ";
    }
    out += "\n  },\n  \"counters\": {";
    sep = "\n    ";
    for (const auto& [name, value] : counters_) {
        out += sep + json_quote(name) + ": " + std::to_string(value);
        sep = ",\n    ";
    }
    out += "\n  },\n  \"self_seconds\": {";
    sep = "\n    ";
    for (const auto& [layer, seconds] : self_seconds_) {
        out += sep + json_quote(layer) + ": " + json_number(seconds);
        sep = ",\n    ";
    }
    out += "\n  },\n  \"provenance\": {";
    sep = "\n    ";
    for (const auto& [name, value] : provenance_) {
        out += sep + json_quote(name) + ": " + value;
        sep = ",\n    ";
    }
    out += "\n  },\n  \"passes\": [";
    sep = "\n    ";
    for (const std::string& entry : passes_) {
        out += sep + entry;
        sep = ",\n    ";
    }
    out += "\n  ],\n  \"counter_mismatches\": [";
    sep = "";
    for (const std::string& what : mismatches_) {
        out += sep + json_quote(what);
        sep = ", ";
    }
    out += "]\n}\n";
    return out;
}

}  // namespace perfbench
