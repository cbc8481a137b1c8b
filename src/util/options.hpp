// The typed options registry — the ONE place XRPL_* environment knobs
// are read.
//
// Call sites never touch env_u64/getenv directly (the `no-adhoc-env`
// lint rule bans it outside src/util): they read a typed field off
// `util::options()`, which parses the whole environment once per
// process, so each malformed or unknown variable is warned about
// once. Every knob is declared exactly once in the kOptionTable
// below, so the README's option table, the strict parsers, and the
// struct fields cannot drift apart.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace xrpl::util {

struct Options {
    /// XRPL_THREADS — total parallelism of the shared exec pool
    /// (caller + workers). Default: hardware_concurrency(), min 1.
    std::size_t threads = 1;

    /// XRPL_OBS — metric/phase recording on (1) or off (0). The bench
    /// harness force-enables recording when the variable is absent;
    /// everything else defaults to off.
    bool obs = false;
    /// Whether XRPL_OBS was present in the environment at all.
    bool obs_explicit = false;

    /// XRPL_BENCH_PAYMENTS — shared bench history size.
    std::uint64_t bench_payments = 250'000;
    /// XRPL_BENCH_CONSENSUS_SCALE — percent of the full two-week
    /// capture per Fig 2 period.
    std::uint64_t bench_consensus_scale = 10;
    /// XRPL_BENCH_REPLAY_PAYMENTS — Table II replay stream size.
    std::uint64_t bench_replay_payments = 40'000;
    /// XRPL_BENCH_DATAGEN_PAYMENTS — ext_datagen_scaling history size.
    std::uint64_t bench_datagen_payments = 100'000;
    /// XRPL_BENCH_JSON_DIR — directory the harness writes
    /// BENCH_<name>.json into.
    std::string bench_json_dir = ".";

    /// XRPL_DATASET_DIR — root of the content-addressed XCOL dataset
    /// cache (src/snap/). Empty (the default) disables caching:
    /// histories are regenerated every run and no disk is touched.
    std::string dataset_dir;

    /// Not an option: path searches always walk the CSR index. The
    /// constant exists only because perfbench's provenance line
    /// records it (as XRPL_PATH_INDEX).
    static constexpr bool path_index = true;

    /// Parse the environment now (strict; malformed values warn and
    /// fall back; an XRPL_* variable kOptionTable does not list warns
    /// too). Pure read — no caching.
    [[nodiscard]] static Options from_env();
};

/// The process-wide options, parsed once on first use. Benches, tools,
/// and library code (the shared pool's width) read this; from_env()
/// is for tests that vary the environment.
[[nodiscard]] const Options& options();

/// One row per knob — the machine-readable registry behind the README
/// table and the tests that keep it complete.
struct OptionInfo {
    const char* name;         // environment variable
    const char* type;         // "u64" | "flag" | "string"
    const char* fallback;     // human-readable default
    const char* description;  // one line
};

[[nodiscard]] std::span<const OptionInfo> option_table() noexcept;

/// The option table as a GitHub-markdown table (the README's
/// "Environment knobs" section is generated from this — see
/// `<bench binary> --options`).
[[nodiscard]] std::string options_markdown();

}  // namespace xrpl::util
