// xrpl_perfbench — one workload of the repository benchmark.
//
//   xrpl_perfbench --workload deanon|payments|consensus --seed N
//                  --seconds S --trace 0|1 [--size full|tiny]
//                  --report PATH [--spans PATH]
//
// Builds the workload's inputs from the seed (set-up, repeated; its
// median is setup_s), then runs measured passes in a closed loop with
// one caller until S seconds have passed. Every pass checks its
// outputs; a failed check counts against the pass's operations.
//
// --trace 0: spans and the program's obs metrics stay off; the report
//   carries the end-to-end metrics.
// --trace 1: set-up runs traced, and measured passes alternate untraced
//   and traced, so the per-layer numbers come from traced passes and
//   obs.trace_overhead compares the two kinds head to head. The spans
//   are written to --spans at exit.
//
// perfbench/run.py builds this binary and turns the report into the
// benchmark's result line.
#include <sys/resource.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "exec/thread_pool.hpp"
#include "obs/stopwatch.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "util/file_io.hpp"
#include "util/options.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    Size size = Size::kFull;
    std::string report_path;
    std::string spans_path;
};

[[noreturn]] void usage(const std::string& problem) {
    std::cerr << "xrpl_perfbench: " << problem
              << "\nusage: xrpl_perfbench --workload deanon|payments|consensus"
                 " --seed N --seconds S --trace 0|1 [--size full|tiny]"
                 " --report PATH [--spans PATH]\n";
    std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
    if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
        usage(flag + " needs a whole number, got '" + text + "'");
    }
    return std::stoull(text);
}

Args parse_args(int argc, char** argv) {
    Args args;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = parse_u64(flag, value);
            have_seed = true;
        } else if (flag == "--seconds") {
            args.seconds = static_cast<double>(parse_u64(flag, value));
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--size") {
            if (value != "full" && value != "tiny") usage("--size takes full or tiny");
            args.size = value == "tiny" ? Size::kTiny : Size::kFull;
        } else if (flag == "--report") {
            args.report_path = value;
        } else if (flag == "--spans") {
            args.spans_path = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_seed) usage("--seed is required");
    if (args.seconds <= 0.0) usage("--seconds must be at least 1");
    if (args.report_path.empty()) usage("--report is required");
    return args;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
    if (args.workload == "deanon") return make_deanon(args.seed, args.size);
    if (args.workload == "payments") return make_payments(args.seed, args.size);
    if (args.workload == "consensus") return make_consensus(args.seed, args.size);
    usage("unknown workload '" + args.workload + "'");
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double rate(const PassOutcome& pass) {
    return static_cast<double>(pass.ops) / pass.seconds;
}

/// Flags every pass whose deterministic counts differ from `reference`.
void compare_counts(const PassOutcome& reference, const std::vector<PassOutcome>& passes,
                    const char* kind, Report& report) {
    for (std::size_t i = 0; i < passes.size(); ++i) {
        if (passes[i].counts != reference.counts) {
            report.mismatch(std::string(kind) + " pass " + std::to_string(i));
        }
    }
}

void record_provenance(const Args& args, Report& report) {
    const xrpl::util::Options& options = xrpl::util::options();
    report.provenance("workload", args.workload);
    report.provenance("seed", args.seed);
    report.provenance("seconds", static_cast<std::uint64_t>(args.seconds));
    report.provenance("trace", args.trace ? 1U : 0U);
    report.provenance("size", args.size == Size::kTiny ? "tiny" : "full");
    report.provenance("XRPL_THREADS", options.threads);
    report.provenance("XRPL_OBS", options.obs ? 1U : 0U);
    report.provenance("XRPL_PATH_INDEX", options.path_index ? 1U : 0U);
    report.provenance("pool_width", xrpl::exec::ThreadPool::shared().parallelism());
    report.provenance("nproc", std::thread::hardware_concurrency());
    report.provenance("build_type", PERFBENCH_BUILD_TYPE);
    report.provenance("compiler", __VERSION__);
}

int run(const Args& args) {
    std::unique_ptr<Workload> workload = make_workload(args);
    Report report;
    Tracer tracer;
    record_provenance(args, report);

    // --- set-up ---------------------------------------------------------
    tracer.set_recording(args.trace);
    std::vector<double> setup_seconds;
    std::vector<std::uint64_t> setup_traces;
    for (int i = 0; i < workload->setup_repetitions(); ++i) {
        setup_traces.push_back(tracer.next_trace());
        const xrpl::obs::Stopwatch watch;
        workload->setup(tracer);
        setup_seconds.push_back(watch.elapsed_seconds());
    }
    workload->report_inputs(report);

    // --- measured passes ------------------------------------------------
    std::vector<PassOutcome> untraced;
    std::vector<PassOutcome> traced;
    std::vector<std::uint64_t> pass_traces;
    double traced_wall = 0.0;
    const xrpl::obs::Stopwatch clock;
    do {
        const bool record = args.trace && untraced.size() > traced.size();
        tracer.set_recording(record);
        const std::uint64_t trace = tracer.next_trace();
        const xrpl::obs::Stopwatch watch;
        PassOutcome outcome = workload->pass(tracer);
        report.operations(outcome.ops, outcome.failed);
        report.pass(outcome.seconds, record, outcome.phase_seconds);
        if (record) {
            traced_wall += watch.elapsed_seconds();
            pass_traces.push_back(trace);
            traced.push_back(std::move(outcome));
        } else {
            untraced.push_back(std::move(outcome));
        }
    } while (clock.elapsed_seconds() < args.seconds ||
             (args.trace && traced.empty()));
    tracer.set_recording(false);

    compare_counts(untraced.front(), untraced, "untraced", report);
    compare_counts(untraced.front(), traced, "traced", report);
    for (const auto& [name, value] : untraced.front().counts) {
        report.counter(name, value);
    }

    std::vector<double> rates;
    for (const PassOutcome& pass : untraced) rates.push_back(rate(pass));
    report.metric("setup_s", median(setup_seconds), "s");
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    report.metric("ops_per_s", median(rates), "1/s");
    workload->report_rates(untraced, report);

    if (args.trace) {
        std::vector<double> traced_rates;
        double top_level = 0.0;
        for (const PassOutcome& pass : traced) traced_rates.push_back(rate(pass));
        for (const std::uint64_t trace : pass_traces) {
            top_level += tracer.top_level_seconds(trace);
        }
        report.metric("obs.trace_overhead",
                      median(rates) / median(traced_rates) - 1.0, "ratio");
        report.metric("obs.span_coverage", top_level / traced_wall, "ratio");
        workload->report_layers(tracer, setup_traces, pass_traces, report);

        std::map<std::string, std::vector<double>> self;
        for (const std::uint64_t trace : pass_traces) {
            for (const auto& [layer, seconds] : tracer.self_seconds(trace)) {
                self[layer].push_back(seconds);
            }
        }
        for (auto& [layer, values] : self) {
            report.self_seconds(layer, median(std::move(values)));
        }
        if (!args.spans_path.empty() &&
            !xrpl::util::write_text_file(args.spans_path, tracer.to_json())) {
            std::cerr << "xrpl_perfbench: cannot write " << args.spans_path << "\n";
            return 1;
        }
    }

    if (!xrpl::util::write_text_file(args.report_path, report.to_json())) {
        std::cerr << "xrpl_perfbench: cannot write " << args.report_path << "\n";
        return 1;
    }
    std::cout << args.workload << ": " << untraced.size() << " untraced and "
              << traced.size() << " traced passes, " << report.attempted()
              << " operations, " << report.failed() << " failed\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    return run(parse_args(argc, argv));
}
