// Workload `consensus`: the validation captures of §IV (Fig 2).
//
// A measured pass runs the three capture periods (December 2015, July
// 2016, November 2016) in order through ConsensusSimulation::run with a
// ValidationMonitor attached, each period on its own stream derived
// from the seed. Only rounds run: quorum, validator signing, page
// hashing in ledger_history, and the monitor; no payment runs, so this
// is the one workload where `consensus` dominates. Set-up builds one
// pristine simulation per period (validator keys derived, configs from
// the seed), and every pass runs fresh copies of them.
//
// One round is one operation. A period's rounds fail when its main
// chain does not verify to its tip (every page from the first bad one
// on), when two main pages share a sequence, or when a testnet page is
// on the main chain.
#include <iostream>
#include <unordered_set>

#include "consensus/monitor.hpp"
#include "consensus/period_config.hpp"
#include "consensus/rpca.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace xrpl;

// Share of the full 252 K-round fortnight each period simulates.
double scale_for(Size size) { return size == Size::kTiny ? 0.002 : 0.05; }

struct PeriodRun {
    std::unique_ptr<consensus::ConsensusSimulation> sim;
    consensus::ConsensusStats stats;
    std::uint64_t validations = 0;
    std::uint64_t valid_pages = 0;  // Σ the monitor's per-validator valid pages
};

/// Rounds of `run` that fail the chain checks.
std::uint64_t failed_rounds(const PeriodRun& run) {
    const ledger::LedgerHistory& main = run.sim->main_chain();
    std::uint64_t failed = main.size() - main.verify_chain();
    std::unordered_set<ledger::Hash256> testnet;
    for (const ledger::ClosedLedger& page : run.sim->testnet_chain().pages()) {
        testnet.insert(page.hash);
    }
    std::unordered_set<std::uint32_t> sequences;
    for (const ledger::ClosedLedger& page : main.pages()) {
        if (!sequences.insert(page.sequence).second) ++failed;
        if (testnet.contains(page.hash)) ++failed;
    }
    return failed;
}

class Consensus final : public Workload {
public:
    Consensus(std::uint64_t seed, Size size) : seed_(seed), scale_(scale_for(size)) {}

    // Set-up takes about half a millisecond; many repetitions steady
    // its median.
    int setup_repetitions() const override { return 101; }

    void setup(Tracer& tracer) override {
        const util::RngStream root(seed_);
        prototypes_.clear();
        std::size_t index = 0;
        for (consensus::PeriodSpec& period : consensus::all_periods()) {
            const Tracer::Scope scope(tracer, "consensus.ConsensusSimulation");
            prototypes_.emplace_back(std::move(period.validators),
                                     consensus::two_week_config(
                                         scale_, root.derive("period", index++)));
        }
    }

    PassOutcome pass(Tracer& tracer) override {
        PassOutcome outcome;
        std::vector<PeriodRun> runs;
        std::uint64_t monitor_ns = 0;
        {
            Tracer::Scope pass_scope(tracer, "bench.pass");
            for (const consensus::ConsensusSimulation& prototype : prototypes_) {
                runs.push_back(run_period(tracer, prototype, monitor_ns));
            }
            outcome.seconds = pass_scope.close();
        }
        if (tracer.recording()) monitor_seconds_.push_back(static_cast<double>(monitor_ns) * 1e-9);

        const Tracer::Scope check(tracer, "bench.check");
        std::uint64_t main_pages = 0;
        std::uint64_t validations = 0;
        std::uint64_t valid_pages = 0;
        for (const PeriodRun& run : runs) {
            outcome.ops += run.stats.rounds;
            outcome.failed += failed_rounds(run);
            main_pages += run.stats.main_pages_closed;
            validations += run.validations;
            valid_pages += run.valid_pages;
        }
        if (outcome.failed != 0) {
            std::cerr << "consensus: " << outcome.failed << " rounds failed the chain checks\n";
        }
        outcome.counts["consensus.rounds"] = outcome.ops;
        outcome.counts["consensus.main_pages"] = main_pages;
        outcome.counts["consensus.validations"] = validations;
        outcome.counts["consensus.monitor_valid_pages"] = valid_pages;
        last_counts_ = outcome.counts;
        return outcome;
    }

    void report_rates(const std::vector<PassOutcome>& passes,
                      Report& report) const override {
        std::vector<double> rates;
        for (const PassOutcome& pass : passes) {
            rates.push_back(static_cast<double>(pass.ops) / pass.seconds);
        }
        report.metric("consensus_rounds_per_s", median(rates), "rounds/s");
    }

    void report_layers(const Tracer& tracer, const std::vector<std::uint64_t>&,
                       const std::vector<std::uint64_t>& passes,
                       Report& report) const override {
        const double rounds = static_cast<double>(last_counts_.at("consensus.rounds"));
        report.metric("consensus.run_s", tracer.median_seconds(passes, "consensus.run"), "s");
        report.metric("consensus.monitor_s", median(monitor_seconds_), "s");
        report.metric("consensus.rounds", rounds, "count");
        report.metric("consensus.validations_per_round",
                      static_cast<double>(last_counts_.at("consensus.validations")) / rounds,
                      "ratio");
        report.metric("consensus.close_ratio",
                      static_cast<double>(last_counts_.at("consensus.main_pages")) / rounds,
                      "ratio");
    }

    void report_inputs(Report& report) override {
        std::uint64_t rounds = 0;
        std::uint64_t validators = 0;
        for (const consensus::ConsensusSimulation& prototype : prototypes_) {
            rounds += prototype.config().rounds;
            validators += prototype.validators().size();
        }
        report.provenance("rounds_per_pass", rounds);
        report.provenance("validators", validators);
        report.provenance("scale_permille", static_cast<std::uint64_t>(scale_ * 1000.0));
    }

private:
    PeriodRun run_period(Tracer& tracer, const consensus::ConsensusSimulation& prototype,
                         std::uint64_t& monitor_ns) {
        PeriodRun run;
        run.sim = std::make_unique<consensus::ConsensusSimulation>(prototype);
        consensus::ValidationStream stream;
        consensus::ValidationMonitor monitor(run.sim->validators());
        if (tracer.recording()) {
            // The monitor's share of a round, timed per event.
            stream.subscribe_validations([&](const consensus::ValidationMessage& message) {
                const std::uint64_t start = now_ns();
                monitor.on_validation(message);
                monitor_ns += now_ns() - start;
            });
            stream.subscribe_pages([&](const consensus::PageClosed& event) {
                const std::uint64_t start = now_ns();
                monitor.on_page(event);
                monitor_ns += now_ns() - start;
            });
        } else {
            monitor.attach(stream);
        }
        {
            const Tracer::Scope scope(tracer, "consensus.run");
            run.stats = run.sim->run(stream);
        }
        run.validations = stream.validations_published();
        for (const consensus::ValidatorReport& report : monitor.report()) {
            run.valid_pages += report.valid_pages;
        }
        return run;
    }

    std::uint64_t seed_;
    double scale_;
    std::vector<consensus::ConsensusSimulation> prototypes_;  // never run
    std::vector<double> monitor_seconds_;
    std::map<std::string, std::uint64_t> last_counts_;
};

}  // namespace

std::unique_ptr<Workload> make_consensus(std::uint64_t seed, Size size) {
    return std::make_unique<Consensus>(seed, size);
}

}  // namespace perfbench
