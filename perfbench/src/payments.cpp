// Workload `payments`: every way a payment moves through `paths`.
//
// Set-up builds a 20 K-user population, seeds the Market Makers' books
// (two XRP-bridge quotes per currency a maker holds), derives a
// delivered Table II stream (68.7 % cross-currency) and the node's
// transaction list. A measured pass has three phases, each on a fresh
// clone of the snapshot:
//   replay    — paths::replay with the makers present;
//   makerless — paths::replay_without, every maker and offer removed;
//   node      — a node::Node with the December 2015 validator set
//               sealing the paper's transaction mix, one page's worth
//               submitted per round until the queue drains.
// Replay never changes the topology, so the CSR index is built once
// per clone and always hit; the node's account and trust-line
// creations invalidate it — the writes-beside-reads case for `paths`.
//
// One payment or node transaction is one operation. It fails when a
// baseline-replay payment is not delivered (the stream delivers by
// construction), when a maker-free cross-currency payment delivers
// (Table II: none can), when a node submission is refused or never
// sealed, or — for all of the node's transactions — when the node's
// chain does not verify to its tip.
#include <algorithm>
#include <iostream>

#include "consensus/period_config.hpp"
#include "datagen/config.hpp"
#include "datagen/history.hpp"
#include "node/node.hpp"
#include "obs/stopwatch.hpp"
#include "paths/replay.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace xrpl;

struct Sizes {
    std::size_t users = 20'000;
    std::size_t stream = 10'000;   // delivered replay payments
    std::size_t node_pages = 100;  // node transactions = pages × page size
};

Sizes sizes_for(Size size) {
    if (size == Size::kTiny) return Sizes{1'500, 400, 20};
    return Sizes{};
}

// The paper's transaction mix: 23 M payments, 90 M OfferCreates and
// 165 K new accounts, each of which costs an AccountCreate plus one
// TrustSet.
constexpr double kMixPayments = 23.0;
constexpr double kMixOffers = 90.0;
constexpr double kMixNewAccounts = 0.165;

datagen::GeneratorConfig population_config(std::uint64_t seed, const Sizes& sizes) {
    // Sized the way ext_replay_scaling sizes its population.
    datagen::GeneratorConfig config;
    config.seed = seed;
    config.num_users = sizes.users;
    config.num_gateways = 40;
    config.num_market_makers = std::clamp<std::size_t>(sizes.users / 100, 40, 400);
    config.num_merchants = std::clamp<std::size_t>(sizes.users / 16, 100, 8'000);
    config.num_hubs = 20;
    return config;
}

std::vector<ledger::Currency> currencies_of(const ledger::LedgerState& state,
                                            const ledger::AccountID& account) {
    std::vector<ledger::Currency> currencies;
    for (const ledger::TrustLine* line : state.lines_of(account)) {
        const ledger::Currency c = line->key().currency;
        if (std::find(currencies.begin(), currencies.end(), c) == currencies.end()) {
            currencies.push_back(c);
        }
    }
    return currencies;
}

double xrp_per_unit(ledger::Currency c) {
    return datagen::usd_value(c) / datagen::usd_value(ledger::Currency::xrp());
}

// Population snapshots carry no offers; quote both directions of the
// XRP bridge for every currency each maker holds, fair-rate sized.
void seed_offer_books(ledger::LedgerState& state, const datagen::Population& population,
                      util::Rng& rng) {
    for (const ledger::AccountID& maker : population.market_makers) {
        for (const ledger::Currency c : currencies_of(state, maker)) {
            const double depth = (5e5 / datagen::usd_value(c)) * rng.lognormal(0.0, 0.4);
            state.place_offer(maker, ledger::Amount::iou(c, depth),
                              ledger::Amount::xrp(depth * xrp_per_unit(c) *
                                                  rng.uniform(1.002, 1.02)));
            state.place_offer(maker, ledger::Amount::xrp(depth * xrp_per_unit(c)),
                              ledger::Amount::iou(c, depth / rng.uniform(1.002, 1.02)));
        }
    }
}

// The node's submission list: the paper's mix over `count` slots.
// Payments come from the delivered stream; OfferCreates are maker
// quotes; each new account is an AccountCreate from a maker followed
// by the new account's TrustSet towards a gateway.
std::vector<ledger::Transaction> node_transactions(
    const ledger::LedgerState& state, const datagen::Population& population,
    const std::vector<paths::PaymentRequest>& stream, std::size_t count,
    std::uint64_t seed, util::Rng& rng) {
    const double total = kMixPayments + kMixOffers + 2.0 * kMixNewAccounts;
    const auto scaled = [&](double share) {
        return static_cast<std::size_t>(static_cast<double>(count) * share / total + 0.5);
    };
    const std::size_t new_accounts = std::max<std::size_t>(1, scaled(kMixNewAccounts));
    const std::size_t payments = scaled(kMixPayments);
    const std::size_t offers = count - payments - 2 * new_accounts;

    // Payments and offers are shuffled; new accounts sit at evenly
    // spaced slots, so every one of them is followed by payments and
    // costs exactly one index rebuild, whatever the seed.
    enum class Kind : std::uint8_t { kPayment, kOffer, kNewAccount };
    std::vector<Kind> kinds;
    kinds.insert(kinds.end(), payments, Kind::kPayment);
    kinds.insert(kinds.end(), offers, Kind::kOffer);
    for (std::size_t i = kinds.size(); i > 1; --i) {
        std::swap(kinds[i - 1], kinds[static_cast<std::size_t>(rng.uniform_u64(0, i - 1))]);
    }
    const std::size_t spacing = kinds.size() / new_accounts;
    for (std::size_t a = 0; a < new_accounts; ++a) {
        const auto slot = static_cast<std::ptrdiff_t>(a * (spacing + 1) + spacing / 2);
        kinds.insert(kinds.begin() + slot, Kind::kNewAccount);
    }

    // Makers quote the currencies they hold; any maker can fund.
    std::vector<std::size_t> quoting;
    std::vector<std::vector<ledger::Currency>> maker_currencies;
    for (const ledger::AccountID& maker : population.market_makers) {
        if (!currencies_of(state, maker).empty()) quoting.push_back(maker_currencies.size());
        maker_currencies.push_back(currencies_of(state, maker));
    }
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng.uniform_u64(0, n - 1));
    };
    std::unordered_map<ledger::AccountID, std::uint32_t> sequence;
    std::vector<ledger::Transaction> txs;
    txs.reserve(count);
    std::size_t next_payment = 0;
    std::size_t next_account = 0;
    for (const Kind kind : kinds) {
        ledger::Transaction tx;
        if (kind == Kind::kPayment) {
            const paths::PaymentRequest& request = stream[next_payment++ % stream.size()];
            tx.type = ledger::TxType::kPayment;
            tx.sender = request.sender;
            tx.destination = request.destination;
            tx.amount = request.deliver;
            tx.source_currency = request.source_currency;
        } else if (kind == Kind::kOffer) {
            const std::size_t m = quoting[pick(quoting.size())];
            const std::vector<ledger::Currency>& held = maker_currencies[m];
            const ledger::Currency c = held[pick(held.size())];
            const double depth = (2e4 / datagen::usd_value(c)) * rng.lognormal(0.0, 0.4);
            tx.type = ledger::TxType::kOfferCreate;
            tx.sender = population.market_makers[m];
            if (rng.bernoulli(0.5)) {
                tx.taker_gets = ledger::Amount::iou(c, depth);
                tx.taker_pays = ledger::Amount::xrp(depth * xrp_per_unit(c) *
                                                    rng.uniform(1.002, 1.02));
            } else {
                tx.taker_gets = ledger::Amount::xrp(depth * xrp_per_unit(c));
                tx.taker_pays = ledger::Amount::iou(c, depth / rng.uniform(1.002, 1.02));
            }
        } else {
            // A new account, funded by a maker, then its trust line.
            const ledger::AccountID fresh = ledger::AccountID::from_seed(
                "perfbench:account:" + std::to_string(seed) + ":" +
                std::to_string(next_account++));
            tx.type = ledger::TxType::kAccountCreate;
            tx.sender = population.market_makers[pick(population.market_makers.size())];
            tx.destination = fresh;
            tx.amount = ledger::Amount::xrp(250.0);
            tx.source_currency = ledger::Currency::xrp();
            tx.sequence = ++sequence[tx.sender];
            txs.push_back(tx);

            const std::size_t g = pick(population.gateways.size());
            const std::vector<ledger::Currency>& issued = population.gateway_currencies[g];
            tx = ledger::Transaction{};
            tx.type = ledger::TxType::kTrustSet;
            tx.sender = fresh;
            tx.trust_peer = population.gateways[g];
            tx.trust_currency =
                issued.empty() ? ledger::Currency::from_code("USD") : issued.front();
            tx.trust_limit = ledger::IouAmount::from_int(1'000);
        }
        tx.sequence = ++sequence[tx.sender];
        txs.push_back(tx);
    }
    return txs;
}

class Payments final : public Workload {
public:
    Payments(std::uint64_t seed, Size size)
        : seed_(seed), sizes_(sizes_for(size)), config_(population_config(seed, sizes_)) {}

    int setup_repetitions() const override { return 3; }

    void setup(Tracer& tracer) override {
        snapshot_.reset();
        stream_.clear();
        node_txs_.clear();
        const util::RngStream root(seed_);
        {
            const Tracer::Scope scope(tracer, "datagen.generate_population_only");
            snapshot_ = std::make_unique<datagen::PopulationSnapshot>(
                datagen::generate_population_only(config_));
        }
        {
            const Tracer::Scope scope(tracer, "ledger.place_offer");
            util::Rng rng = root.derive("offers").rng();
            seed_offer_books(snapshot_->ledger, snapshot_->population, rng);
        }
        {
            const Tracer::Scope scope(tracer, "datagen.make_delivered_replay_workload");
            util::Rng rng = root.derive("replay").rng();
            stream_ = datagen::make_delivered_replay_workload(
                snapshot_->population, snapshot_->ledger, sizes_.stream, 0.687, rng);
        }
        util::Rng rng = root.derive("node-mix").rng();
        node_txs_ = node_transactions(snapshot_->ledger, snapshot_->population, stream_,
                                      sizes_.node_pages * kPageSize, seed_, rng);
    }

    PassOutcome pass(Tracer& tracer) override {
        PassOutcome outcome;
        paths::ReplayStats baseline;
        paths::ReplayStats makerless;
        NodeResult node;
        {
            Tracer::Scope pass_scope(tracer, "bench.pass");
            baseline = replay_phase(tracer, outcome, false);
            makerless = replay_phase(tracer, outcome, true);
            node = node_phase(tracer, outcome);
            outcome.seconds = pass_scope.close();
        }

        const Tracer::Scope check(tracer, "bench.check");
        const std::uint64_t undelivered = baseline.submitted() - baseline.delivered();
        const std::uint64_t queued = node_txs_.size() - node.refused;
        const std::uint64_t unsealed = queued - std::min(queued, node.sealed);
        const std::uint64_t node_failed =
            node.chain_ok ? node.refused + unsealed : node_txs_.size();
        outcome.ops = baseline.submitted() + makerless.submitted() + node_txs_.size();
        outcome.failed = undelivered + makerless.cross_delivered + node_failed;
        if (outcome.failed != 0) {
            std::cerr << "payments: " << undelivered << " undelivered, "
                      << makerless.cross_delivered << " maker-free cross deliveries, "
                      << node.refused << " refused, " << unsealed << " unsealed, chain "
                      << (node.chain_ok ? "verifies" : "BROKEN") << "\n";
        }
        outcome.counts["payments.stream"] = stream_.size();
        outcome.counts["paths.replay.delivered"] = baseline.delivered();
        outcome.counts["paths.makerless.delivered"] = makerless.delivered();
        outcome.counts["paths.makerless.cross_delivered"] = makerless.cross_delivered;
        outcome.counts["node.txs"] = node_txs_.size();
        outcome.counts["node.sealed"] = node.sealed;
        outcome.counts["node.sealed_failed"] = node.sealed_failed;
        outcome.counts["node.rounds"] = node.rounds;
        outcome.counts["node.retried"] = node.retried;
        outcome.counts["node.refused"] = node.refused;
        outcome.counts["node.pages"] = node.pages;
        last_counts_ = outcome.counts;
        return outcome;
    }

    void report_rates(const std::vector<PassOutcome>& passes,
                      Report& report) const override {
        const auto phase_rate = [&](const char* phase, std::size_t ops) {
            std::vector<double> rates;
            for (const PassOutcome& pass : passes) {
                rates.push_back(static_cast<double>(ops) / pass.phase_seconds.at(phase));
            }
            return median(rates);
        };
        report.metric("replay_payments_per_s", phase_rate("replay", stream_.size()),
                      "payments/s");
        report.metric("makerless_payments_per_s", phase_rate("makerless", stream_.size()),
                      "payments/s");
        report.metric("node_txs_per_s", phase_rate("node", node_txs_.size()), "txs/s");
    }

    void report_layers(const Tracer& tracer,
                       const std::vector<std::uint64_t>& setups,
                       const std::vector<std::uint64_t>& passes,
                       Report& report) const override {
        const std::uint64_t first = passes.front();
        const auto count = [&](const char* span, const char* metric) {
            return static_cast<double>(tracer.delta_of(first, span, metric));
        };
        const double stream = static_cast<double>(stream_.size());

        report.metric("datagen.population_s",
                      tracer.median_seconds(setups, "datagen.generate_population_only"),
                      "s");
        report.metric("datagen.replay_stream_s",
                      tracer.median_seconds(setups, "datagen.make_delivered_replay_workload"),
                      "s");
        report.metric("ledger.clone_s", tracer.median_seconds(passes, "ledger.clone"), "s");
        report.metric("ledger.accounts",
                      static_cast<double>(snapshot_->ledger.account_count()), "count");
        report.metric("ledger.trust_lines",
                      static_cast<double>(snapshot_->ledger.trustline_count()), "count");
        report.metric("ledger.offers",
                      static_cast<double>(snapshot_->ledger.offer_count()), "count");

        for (const auto& [phase, span, delivered_key] :
             {std::tuple{"replay", "paths.replay", "paths.replay.delivered"},
              std::tuple{"makerless", "paths.replay_without",
                         "paths.makerless.delivered"}}) {
            const std::string prefix = std::string("paths.") + phase;
            const double expanded = count(span, "paths.nodes_expanded");
            report.metric(prefix + "_s", tracer.median_seconds(passes, span), "s");
            report.metric(prefix + ".nodes_expanded", expanded, "count");
            report.metric(prefix + ".nodes_per_payment", expanded / stream, "ratio");
            report.metric(prefix + ".offers_consumed", count(span, "paths.offers_consumed"),
                          "count");
            report.metric(prefix + ".delivered_ratio",
                          static_cast<double>(last_counts_.at(delivered_key)) / stream,
                          "ratio");
        }

        // Index work over the whole pass; the node phase's account and
        // trust-line creations are what force rebuilds.
        report.metric("paths.index.builds", count("bench.pass", "paths.index.builds"),
                      "count");
        report.metric("paths.index.rebuilds", count("bench.pass", "paths.index.rebuilds"),
                      "count");
        std::vector<double> build_s;
        std::vector<double> round_ms;
        for (const std::uint64_t trace : passes) {
            build_s.push_back(static_cast<double>(tracer.delta_of(
                                  trace, "bench.pass", "paths.index.build_ns.sum")) * 1e-9);
        }
        for (const Span& span : tracer.spans()) {
            if (span.name == "node.run_round" &&
                std::find(passes.begin(), passes.end(), span.trace_id) != passes.end()) {
                round_ms.push_back(span.seconds() * 1e3);
            }
        }
        report.metric("paths.index.build_s", median(build_s), "s");

        report.metric("node.submit_s", tracer.median_seconds(passes, "node.submit"), "s");
        report.metric("node.round_s", tracer.median_seconds(passes, "node.run_round"), "s");
        report.metric("node.round_ms_p50", quantile(round_ms, 0.5), "ms");
        report.metric("node.round_ms_p99", quantile(round_ms, 0.99), "ms");
        report.metric("node.rounds", static_cast<double>(last_counts_.at("node.rounds")),
                      "count");
        report.metric("node.retried", static_cast<double>(last_counts_.at("node.retried")),
                      "count");
        report.metric("node.refused", static_cast<double>(last_counts_.at("node.refused")),
                      "count");
    }

    void report_inputs(Report& report) override {
        report.provenance("accounts", snapshot_->ledger.account_count());
        report.provenance("trust_lines", snapshot_->ledger.trustline_count());
        report.provenance("offers", snapshot_->ledger.offer_count());
        report.provenance("stream_payments", stream_.size());
        report.provenance("node_txs", node_txs_.size());
        std::uint64_t cross = 0;
        for (const paths::PaymentRequest& request : stream_) {
            cross += request.cross_currency() ? 1 : 0;
        }
        report.counter("payments.stream_cross", cross);
    }

private:
    // Transactions per sealed page (the node's default page size).
    static constexpr std::size_t kPageSize = 20;

    struct NodeResult {
        std::uint64_t sealed = 0;
        std::uint64_t sealed_failed = 0;
        std::uint64_t refused = 0;
        std::uint64_t retried = 0;
        std::uint64_t rounds = 0;
        std::uint64_t pages = 0;
        bool chain_ok = false;
    };

    paths::ReplayStats replay_phase(Tracer& tracer, PassOutcome& outcome,
                                    bool without_makers) {
        const obs::Stopwatch watch;
        paths::ReplayStats stats;
        {
            ledger::LedgerState world = clone(tracer);
            if (without_makers) {
                const Tracer::Scope scope(tracer, "paths.replay_without");
                paths::PaymentEngine engine(world);
                stats = paths::replay_without(engine, stream_,
                                              snapshot_->population.market_makers, true);
            } else {
                const Tracer::Scope scope(tracer, "paths.replay");
                paths::PaymentEngine engine(world);
                stats = paths::replay(engine, stream_);
            }
        }
        outcome.phase_seconds[without_makers ? "makerless" : "replay"] =
            watch.elapsed_seconds();
        return stats;
    }

    NodeResult node_phase(Tracer& tracer, PassOutcome& outcome) {
        const obs::Stopwatch watch;
        NodeResult result;
        {
            ledger::LedgerState world = clone(tracer);
            node::NodeConfig config;
            config.max_txs_per_page = kPageSize;
            config.consensus.seed = util::RngStream(seed_).derive("node-consensus").key();
            config.consensus.start_time = util::from_calendar(2015, 12, 1);
            node::Node node(world, consensus::december_2015().validators, config);

            std::size_t next = 0;
            // A stalled consensus must not spin forever: past this many
            // rounds, whatever is left counts as never sealed.
            const std::size_t max_rounds = 4 * (node_txs_.size() / kPageSize + 1) + 100;
            while ((next < node_txs_.size() || !node.queue().empty()) &&
                   result.rounds < max_rounds) {
                {
                    const Tracer::Scope scope(tracer, "node.submit");
                    for (std::size_t i = 0; i < kPageSize && next < node_txs_.size();
                         ++i, ++next) {
                        if (node.submit(node_txs_[next]) !=
                            node::TransactionQueue::SubmitResult::kQueued) {
                            ++result.refused;
                        }
                    }
                }
                node::RoundReport report;
                {
                    const Tracer::Scope scope(tracer, "node.run_round");
                    report = node.run_round();
                }
                ++result.rounds;
                result.retried += report.retried;
                for (const node::AppliedTx& applied : report.applied) {
                    ++result.sealed;
                    result.sealed_failed += applied.success ? 0 : 1;
                }
            }
            result.pages = node.chain().size();
            result.chain_ok = node.chain().verify_chain() == node.chain().size();
        }
        outcome.phase_seconds["node"] = watch.elapsed_seconds();
        return result;
    }

    ledger::LedgerState clone(Tracer& tracer) const {
        const Tracer::Scope scope(tracer, "ledger.clone");
        return snapshot_->ledger.clone();
    }

    std::uint64_t seed_;
    Sizes sizes_;
    datagen::GeneratorConfig config_;
    std::unique_ptr<datagen::PopulationSnapshot> snapshot_;
    std::vector<paths::PaymentRequest> stream_;
    std::vector<ledger::Transaction> node_txs_;
    std::map<std::string, std::uint64_t> last_counts_;
};

}  // namespace

std::unique_ptr<Workload> make_payments(std::uint64_t seed, Size size) {
    return std::make_unique<Payments>(seed, size);
}

}  // namespace perfbench
