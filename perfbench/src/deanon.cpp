// Workload `deanon`: the de-anonymization study a researcher re-runs
// once a dataset exists (§V, Fig 3-5).
//
// Set-up is the cold write path — generate the history from the seed
// and encode it to XCOL in memory, with no dataset cache, so setup_s
// always pays generation. A measured pass decodes the snapshot, runs
// the Fig 3 IG study, the anonymity sets for the same ten
// configurations, and the Fig 4/5 and network scans. Only column scans
// (snap, core, analytics, exec) run in a pass; paths and consensus do
// none, which makes this the no-change check for changes to them.
//
// One pass is one operation. It fails when decode returns a LoadError,
// when the decoded store's columns_fingerprint differs from the
// generated history's, or when its result digest differs from the
// run's first pass.
#include <bit>
#include <iostream>

#include "analytics/currency_stats.hpp"
#include "analytics/network_stats.hpp"
#include "analytics/survival.hpp"
#include "analytics/top_users.hpp"
#include "core/anonymity.hpp"
#include "core/ig_study.hpp"
#include "datagen/dataset.hpp"
#include "datagen/history.hpp"
#include "datagen/spam.hpp"
#include "exec/thread_pool.hpp"
#include "snap/xcol.hpp"
#include "util/sha256.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace xrpl;

// Fig 5's featured currencies.
constexpr const char* kSurvivalCurrencies[] = {"BTC", "CCK", "CNY", "EUR",
                                               "MTL", "USD", "XRP"};

datagen::GeneratorConfig history_config(std::uint64_t seed, Size size) {
    // The figure benches' default history (1/90 of the paper's 23 M
    // payments, every rate preserved), seeded by the benchmark.
    datagen::GeneratorConfig config;
    config.seed = seed;
    config.num_users = 8'000;
    config.num_gateways = 40;
    config.num_market_makers = 120;
    config.num_merchants = 500;
    config.num_hubs = 20;
    config.target_payments = 250'000;
    if (size == Size::kTiny) {
        config.num_users = 1'000;
        config.num_market_makers = 20;
        config.num_merchants = 60;
        config.target_payments = 6'000;
        config.payments_per_slice = 2'000;
    }
    return config;
}

void absorb(util::Sha256& hash, std::uint64_t value) {
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
    hash.update(std::span<const std::uint8_t>(bytes, 8));
}

void absorb(util::Sha256& hash, double value) {
    absorb(hash, std::bit_cast<std::uint64_t>(value));
}

// Everything one pass computes; digested after the timed part.
struct PassResults {
    snap::LoadResult loaded;
    std::vector<core::IgStudyRow> ig;
    std::vector<core::AnonymityProfile> anonymity;
    std::vector<analytics::CurrencyCount> ranked;
    std::size_t global_samples = 0;
    std::vector<analytics::SurvivalFunction> survival;
    std::unordered_map<ledger::AccountID, std::uint64_t> senders;
    analytics::NetworkStats network;
    datagen::SpamBreakdown spam;
};

std::string digest(const PassResults& results) {
    util::Sha256 hash;
    for (const core::IgStudyRow& row : results.ig) {
        absorb(hash, row.result.total_payments);
        absorb(hash, row.result.uniquely_identified);
    }
    for (const core::AnonymityProfile& profile : results.anonymity) {
        absorb(hash, static_cast<std::uint64_t>(profile.histogram().size()));
        for (const auto& [set_size, payments] : profile.histogram()) {
            absorb(hash, std::uint64_t{set_size});
            absorb(hash, payments);
        }
    }
    for (const analytics::CurrencyCount& row : results.ranked) {
        hash.update(row.currency.to_string());
        absorb(hash, row.payments);
    }
    absorb(hash, static_cast<std::uint64_t>(results.global_samples));
    for (const analytics::SurvivalFunction& curve : results.survival) {
        absorb(hash, static_cast<std::uint64_t>(curve.sample_count()));
        absorb(hash, curve.median());
        absorb(hash, curve.quantile(0.9));
    }
    std::uint64_t sent = 0;
    std::uint64_t busiest = 0;
    for (const auto& [account, count] : results.senders) {
        sent += count;
        busiest = std::max(busiest, count);
    }
    absorb(hash, static_cast<std::uint64_t>(results.senders.size()));
    absorb(hash, sent);
    absorb(hash, busiest);
    const analytics::NetworkStats& net = results.network;
    for (const std::uint64_t v : {net.accounts, net.active_senders,
                                  net.active_participants, net.trust_lines,
                                  net.live_offers, std::uint64_t{net.max_degree}}) {
        absorb(hash, v);
    }
    for (const auto& [degree, accounts] : net.degree_histogram) {
        absorb(hash, std::uint64_t{degree});
        absorb(hash, accounts);
    }
    const datagen::SpamBreakdown& spam = results.spam;
    for (const std::uint64_t v :
         {spam.organic, spam.mtl, spam.cck, spam.account_zero, spam.gambling}) {
        absorb(hash, v);
    }
    return util::to_hex(hash.finish());
}

class Deanon final : public Workload {
public:
    Deanon(std::uint64_t seed, Size size) : config_(history_config(seed, size)) {}

    int setup_repetitions() const override { return 3; }

    void setup(Tracer& tracer) override {
        history_.reset();  // the previous set-up's inputs go first
        bytes_.clear();
        bytes_.shrink_to_fit();
        {
            const Tracer::Scope scope(tracer, "datagen.generate_history");
            history_ = std::make_unique<datagen::GeneratedHistory>(
                datagen::generate_history(config_));
        }
        const Tracer::Scope scope(tracer, "snap.encode_columns");
        bytes_ = snap::encode_columns(history_->payments);
    }

    PassOutcome pass(Tracer& tracer) override {
        PassOutcome outcome;
        outcome.ops = 1;
        PassResults results;
        {
            Tracer::Scope pass_scope(tracer, "bench.pass");
            {
                const Tracer::Scope scope(tracer, "snap.decode_columns");
                results.loaded = snap::decode_columns(bytes_);
            }
            if (results.loaded.ok()) run_study(tracer, results);
            outcome.seconds = pass_scope.close();
        }

        const Tracer::Scope check(tracer, "bench.check");
        if (!results.loaded.ok()) {
            std::cerr << "deanon: decode failed: "
                      << snap::load_error_name(*results.loaded.error) << " ("
                      << results.loaded.detail << ")\n";
            outcome.failed = 1;
            return outcome;
        }
        const std::string fingerprint =
            ledger::columns_fingerprint(results.loaded.columns);
        const std::string result_digest = digest(results);
        if (first_digest_.empty()) first_digest_ = result_digest;
        if (fingerprint != fingerprint_) {
            std::cerr << "deanon: decoded fingerprint " << fingerprint
                      << " != generated " << fingerprint_ << "\n";
            outcome.failed = 1;
        } else if (result_digest != first_digest_) {
            std::cerr << "deanon: result digest " << result_digest
                      << " != first pass " << first_digest_ << "\n";
            outcome.failed = 1;
        }
        std::uint64_t unique = 0;
        for (const core::IgStudyRow& row : results.ig) {
            unique += row.result.uniquely_identified;
        }
        outcome.counts["deanon.rows"] = results.loaded.columns.size();
        outcome.counts["deanon.ig_unique_total"] = unique;
        outcome.counts["deanon.active_senders"] = results.senders.size();
        outcome.counts["deanon.currencies"] = results.ranked.size();
        outcome.counts["snap.xcol_bytes"] = bytes_.size();
        return outcome;
    }

    void report_rates(const std::vector<PassOutcome>& passes,
                      Report& report) const override {
        std::vector<double> rates;
        for (const PassOutcome& pass : passes) {
            rates.push_back(static_cast<double>(history_->payments.size()) /
                            pass.seconds);
        }
        report.metric("analysis_payments_per_s", median(rates), "payments/s");
        report.provenance("result_digest", first_digest_);
    }

    void report_layers(const Tracer& tracer,
                       const std::vector<std::uint64_t>& setups,
                       const std::vector<std::uint64_t>& passes,
                       Report& report) const override {
        const double width = static_cast<double>(
            exec::ThreadPool::shared().parallelism());
        const double rows = static_cast<double>(history_->payments.size());
        const std::uint64_t first_setup = setups.front();
        const std::uint64_t first_pass = passes.front();

        report.metric("datagen.generate_s",
                      tracer.median_seconds(setups, "datagen.generate_history"), "s");
        report.metric("datagen.payments",
                      static_cast<double>(tracer.delta_of(
                          first_setup, "datagen.generate_history", "datagen.payments")),
                      "count");
        report.metric("snap.encode_s",
                      tracer.median_seconds(setups, "snap.encode_columns"), "s");
        report.metric("snap.bytes_per_payment",
                      static_cast<double>(bytes_.size()) / rows, "B");
        report.metric("snap.decode_s",
                      tracer.median_seconds(passes, "snap.decode_columns"), "s");
        report.metric("core.ig_study_s",
                      tracer.median_seconds(passes, "core.run_ig_study"), "s");
        report.metric("core.anonymity_s",
                      tracer.median_seconds(passes, "core.analyze_anonymity"), "s");
        report.metric("core.fingerprint_rows",
                      static_cast<double>(tracer.delta_of(first_pass, "bench.pass",
                                                          "core.fingerprint.rows")),
                      "count");

        std::vector<double> scan_s;
        std::vector<double> busy_s;
        std::vector<double> utilisation;
        for (const std::uint64_t trace : passes) {
            double scans = 0.0;
            for (const char* name :
                 {"analytics.rank_currencies", "analytics.amount_samples",
                  "analytics.survival_of", "analytics.sender_activity",
                  "analytics.compute_network_stats", "datagen.spam_breakdown"}) {
                scans += tracer.seconds_of(trace, name);
            }
            scan_s.push_back(scans);
            const double busy =
                static_cast<double>(tracer.delta_of(trace, "bench.pass",
                                                    "exec.chunk_ns.sum")) * 1e-9;
            busy_s.push_back(busy);
            utilisation.push_back(busy /
                                  (tracer.seconds_of(trace, "bench.pass") * width));
        }
        report.metric("analytics.scan_s", median(scan_s), "s");
        report.metric("analytics.scans",
                      static_cast<double>(tracer.delta_of(first_pass, "bench.pass",
                                                          "analytics.scans")),
                      "count");
        report.metric("exec.tasks",
                      static_cast<double>(
                          tracer.delta_of(first_pass, "bench.pass", "exec.tasks")),
                      "count");
        report.metric("exec.busy_s", median(busy_s), "s");
        report.metric("exec.utilisation", median(utilisation), "ratio");

        std::vector<double> setup_busy;
        std::vector<double> setup_utilisation;
        for (const std::uint64_t trace : setups) {
            const double busy =
                static_cast<double>(tracer.delta_of(trace, "datagen.generate_history",
                                                    "exec.chunk_ns.sum")) * 1e-9;
            setup_busy.push_back(busy);
            setup_utilisation.push_back(
                busy / (tracer.seconds_of(trace, "datagen.generate_history") * width));
        }
        report.metric("exec.setup_busy_s", median(setup_busy), "s");
        report.metric("exec.setup_utilisation", median(setup_utilisation), "ratio");

        // The index work of one set-up: one CSR build per generation slice.
        report.metric("paths.index.builds",
                      static_cast<double>(tracer.delta_of(
                          first_setup, "datagen.generate_history", "paths.index.builds")),
                      "count");
        report.metric("paths.index.rebuilds",
                      static_cast<double>(tracer.delta_of(
                          first_setup, "datagen.generate_history", "paths.index.rebuilds")),
                      "count");
        std::vector<double> build_s;
        for (const std::uint64_t trace : setups) {
            build_s.push_back(static_cast<double>(tracer.delta_of(
                                  trace, "datagen.generate_history",
                                  "paths.index.build_ns.sum")) * 1e-9);
        }
        report.metric("paths.index.build_s", median(build_s), "s");
    }

    void report_inputs(Report& report) override {
        fingerprint_ = ledger::columns_fingerprint(history_->payments);
        report.provenance("dataset_key", datagen::dataset_key(config_));
        report.provenance("columns_fingerprint", fingerprint_);
        report.provenance("history_payments", history_->payments.size());
        report.provenance("history_accounts", history_->payments.accounts.size());
    }

private:
    void run_study(Tracer& tracer, PassResults& results) const {
        const ledger::PaymentColumns& columns = results.loaded.columns;
        const ledger::PaymentView view = columns.view();
        {
            const Tracer::Scope scope(tracer, "core.run_ig_study");
            results.ig = core::run_ig_study(columns);
        }
        for (const core::ResolutionConfig& config : core::fig3_configurations()) {
            const Tracer::Scope scope(tracer, "core.analyze_anonymity");
            results.anonymity.push_back(core::analyze_anonymity(view, config));
        }
        {
            const Tracer::Scope scope(tracer, "analytics.rank_currencies");
            results.ranked = analytics::rank_currencies(view);
        }
        {
            const Tracer::Scope scope(tracer, "analytics.amount_samples");
            results.global_samples = analytics::amount_samples(view).size();
        }
        for (const char* code : kSurvivalCurrencies) {
            const Tracer::Scope scope(tracer, "analytics.survival_of");
            results.survival.push_back(analytics::survival_of(view, datagen::cur(code)));
        }
        {
            const Tracer::Scope scope(tracer, "analytics.sender_activity");
            results.senders = analytics::sender_activity(view);
        }
        {
            const Tracer::Scope scope(tracer, "analytics.compute_network_stats");
            results.network = analytics::compute_network_stats(history_->ledger, view);
        }
        const Tracer::Scope scope(tracer, "datagen.spam_breakdown");
        results.spam = datagen::spam_breakdown(view, history_->population);
    }

    datagen::GeneratorConfig config_;
    std::unique_ptr<datagen::GeneratedHistory> history_;
    std::vector<std::uint8_t> bytes_;
    std::string fingerprint_;
    std::string first_digest_;
};

}  // namespace

std::unique_ptr<Workload> make_deanon(std::uint64_t seed, Size size) {
    return std::make_unique<Deanon>(seed, size);
}

}  // namespace perfbench
