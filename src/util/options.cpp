#include "util/options.hpp"

#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string_view>
#include <thread>

#include "util/env.hpp"

namespace xrpl::util {

namespace {

constexpr OptionInfo kOptionTable[] = {
    {"XRPL_THREADS", "u64", "all hardware threads",
     "total parallelism of the shared pool (`src/exec/`); accelerates the "
     "analytics scans and sharded history generation; results are "
     "byte-identical for every value, `1` is genuinely serial"},
    {"XRPL_OBS", "flag", "0 (benches: 1)",
     "metrics + phase tracing (`src/obs/`); analytical outputs are "
     "byte-identical on or off; the bench harness enables it unless "
     "explicitly set to 0"},
    {"XRPL_BENCH_PAYMENTS", "u64", "250000",
     "synthetic history size shared by the figure benches (paper: 23 M)"},
    {"XRPL_BENCH_CONSENSUS_SCALE", "u64", "10",
     "percent of the full 252 K-round fortnight per Fig 2 period"},
    {"XRPL_BENCH_REPLAY_PAYMENTS", "u64", "40000",
     "Table II replay stream size (paper: 1.7 M)"},
    {"XRPL_BENCH_DATAGEN_PAYMENTS", "u64", "100000",
     "history size for the `ext_datagen_scaling` thread sweep"},
    {"XRPL_BENCH_JSON_DIR", "string", ".",
     "directory the bench harness writes `BENCH_<name>.json` into"},
    {"XRPL_DATASET_DIR", "string", "(unset: caching off)",
     "root of the content-addressed `.xcol` dataset cache (`src/snap/`); "
     "when set, generated histories are saved once and re-runs load the "
     "snapshot instead of regenerating (bit-identical either way)"},
};

std::size_t default_threads() {
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : hardware;
}

/// Warn on stderr about every XRPL_* environment variable that
/// kOptionTable does not list, so a misspelt or retired knob is
/// reported instead of silently doing nothing.
void warn_unknown_variables() {
    for (char** entry = environ; *entry != nullptr; ++entry) {
        const std::string_view variable(*entry);
        if (!variable.starts_with("XRPL_")) continue;
        const std::string_view name = variable.substr(0, variable.find('='));
        const bool listed =
            std::any_of(std::begin(kOptionTable), std::end(kOptionTable),
                        [&](const OptionInfo& row) { return name == row.name; });
        if (!listed) {
            std::cerr << "warning: ignoring unknown " << name
                      << " (not an option; a bench binary's --options lists "
                         "them)\n";
        }
    }
}

}  // namespace

Options Options::from_env() {
    Options opts;
    opts.threads = static_cast<std::size_t>(
        env_u64("XRPL_THREADS", default_threads()));
    opts.obs = env_flag("XRPL_OBS", false);
    opts.obs_explicit = env_present("XRPL_OBS");
    opts.bench_payments = env_u64("XRPL_BENCH_PAYMENTS", opts.bench_payments);
    opts.bench_consensus_scale =
        env_u64("XRPL_BENCH_CONSENSUS_SCALE", opts.bench_consensus_scale);
    opts.bench_replay_payments =
        env_u64("XRPL_BENCH_REPLAY_PAYMENTS", opts.bench_replay_payments);
    opts.bench_datagen_payments =
        env_u64("XRPL_BENCH_DATAGEN_PAYMENTS", opts.bench_datagen_payments);
    opts.bench_json_dir = env_string("XRPL_BENCH_JSON_DIR", opts.bench_json_dir);
    opts.dataset_dir = env_string("XRPL_DATASET_DIR", opts.dataset_dir);
    warn_unknown_variables();
    return opts;
}

const Options& options() {
    static const Options parsed = Options::from_env();
    return parsed;
}

std::span<const OptionInfo> option_table() noexcept { return kOptionTable; }

std::string options_markdown() {
    std::ostringstream os;
    os << "| variable | type | default | meaning |\n|---|---|---|---|\n";
    for (const OptionInfo& row : option_table()) {
        os << "| `" << row.name << "` | " << row.type << " | " << row.fallback
           << " | " << row.description << " |\n";
    }
    return os.str();
}

}  // namespace xrpl::util
