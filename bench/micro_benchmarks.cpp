// Engineering micro-benchmarks (google-benchmark): throughput of the
// primitives every experiment leans on, plus ablations called out in
// DESIGN.md §6 (decimal IouAmount vs double, indexed vs scanning
// attack, quorum sensitivity).
#include <benchmark/benchmark.h>

#include <vector>

#include "consensus/period_config.hpp"
#include "consensus/rpca.hpp"
#include "core/deanonymizer.hpp"
#include "core/ig_study.hpp"
#include "datagen/history.hpp"
#include "exec/thread_pool.hpp"
#include "ledger/amount.hpp"
#include "ledger/payment_columns.hpp"
#include "node/node.hpp"
#include "paths/graph_index.hpp"
#include "paths/path_finder.hpp"
#include "paths/payment_engine.hpp"
#include "paths/widest_path.hpp"
#include "util/base58.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace {

using namespace xrpl;

// One-shot SHA-256 at the sizes the program hashes: 21 B (a divergent
// validation), 44 B (an empty main page), 76 B (a testnet page), 1 KiB,
// and 1 MiB (about an XCOL seal). The context line `sha256_kernel`
// names the compression kernel this process picked.
void BM_Sha256(benchmark::State& state) {
    const std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xab);
    for (auto _ : state) {
        benchmark::DoNotOptimize(util::sha256(data));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(21)->Arg(44)->Arg(76)->Arg(1 << 10)->Arg(1 << 20);

void BM_Base58CheckEncode(benchmark::State& state) {
    std::vector<std::uint8_t> payload(20, 0x42);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            util::base58check_encode(util::kTokenAccountId, payload));
    }
}
BENCHMARK(BM_Base58CheckEncode);

void BM_IouAmountAdd(benchmark::State& state) {
    const ledger::IouAmount a = ledger::IouAmount::from_double(123.456);
    const ledger::IouAmount b = ledger::IouAmount::from_double(0.000789);
    for (auto _ : state) {
        benchmark::DoNotOptimize(a + b);
    }
}
BENCHMARK(BM_IouAmountAdd);

void BM_IouAmountRound(benchmark::State& state) {
    const ledger::IouAmount v = ledger::IouAmount::from_double(123456.789);
    for (auto _ : state) {
        benchmark::DoNotOptimize(v.round_to_power_of_ten(2));
    }
}
BENCHMARK(BM_IouAmountRound);

// Ablation: exact decimal arithmetic vs naive double (what precision
// costs in speed).
void BM_Ablation_DoubleAdd(benchmark::State& state) {
    double a = 123.456;
    const double b = 0.000789;
    for (auto _ : state) {
        benchmark::DoNotOptimize(a += b);
    }
}
BENCHMARK(BM_Ablation_DoubleAdd);

ledger::PaymentColumns make_payments(std::size_t n) {
    util::Rng rng = util::RngStream(7).derive("records").rng();
    ledger::PaymentColumns payments;
    payments.reserve(n);
    std::int64_t now = 0;
    for (std::size_t i = 0; i < n; ++i) {
        now += static_cast<std::int64_t>(rng.uniform_u64(0, 9));
        ledger::TxRecord r;
        r.sender = ledger::AccountID::from_seed(
            "u" + std::to_string(rng.uniform_u64(0, 999)));
        r.destination = ledger::AccountID::from_seed(
            "m" + std::to_string(rng.uniform_u64(0, 99)));
        r.currency = ledger::Currency::from_code(rng.bernoulli(0.5) ? "USD" : "BTC");
        r.amount = ledger::IouAmount::from_double(rng.lognormal(3.0, 2.0));
        r.time = util::RippleTime{now};
        payments.push_back(r);
    }
    return payments;
}

void BM_Fingerprint(benchmark::State& state) {
    const ledger::TxRecord record = make_payments(1).row(0);
    const core::ResolutionConfig config = core::full_resolution();
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::fingerprint(record, config));
    }
}
BENCHMARK(BM_Fingerprint);

// IG over the SoA layout: one batched fingerprint pass with
// per-account and per-currency precomputation.
void BM_InformationGainColumnar(benchmark::State& state) {
    const ledger::PaymentColumns columns =
        make_payments(static_cast<std::size_t>(state.range(0)));
    const core::Deanonymizer deanonymizer(columns);
    const core::ResolutionConfig config = core::full_resolution();
    for (auto _ : state) {
        benchmark::DoNotOptimize(deanonymizer.information_gain(config));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_InformationGainColumnar)->Arg(10'000)->Arg(100'000)->Arg(250'000);

// Thread-count sweep for the chunked scans: 1 / 2 / 4 / the shared
// pool's width (XRPL_THREADS, default all hardware threads; skipped
// when 4 or fewer). The Arg is the pool width; results must be
// identical across the sweep — only the time may move.
void ThreadSweepArgs(benchmark::internal::Benchmark* b) {
    b->Arg(1)->Arg(2)->Arg(4);
    const auto hardware = static_cast<std::int64_t>(util::options().threads);
    if (hardware > 4) b->Arg(hardware);
}

void BM_InformationGainColumnarThreads(benchmark::State& state) {
    const ledger::PaymentColumns columns = make_payments(250'000);
    const core::Deanonymizer deanonymizer(columns);
    const core::ResolutionConfig config = core::full_resolution();
    exec::ScopedParallelism pool(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(deanonymizer.information_gain(config));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            250'000);
}
BENCHMARK(BM_InformationGainColumnarThreads)->Apply(ThreadSweepArgs);

// The full ten-configuration Fig 3 study: one pool task per
// configuration, each fanning its fingerprint pass out over the chunks.
void BM_IgStudyThreads(benchmark::State& state) {
    const ledger::PaymentColumns columns = make_payments(250'000);
    exec::ScopedParallelism pool(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::run_ig_study(columns.view()));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            250'000 * 10);
}
BENCHMARK(BM_IgStudyThreads)->Apply(ThreadSweepArgs);

// Ablation: one indexed attack vs scanning the whole history.
void BM_AttackIndexed(benchmark::State& state) {
    const ledger::PaymentColumns columns = make_payments(100'000);
    const ledger::TxRecord observation = columns.row(12'345);
    const core::AttackIndex index(columns, core::full_resolution());
    for (auto _ : state) {
        benchmark::DoNotOptimize(index.candidate_senders(observation));
    }
}
BENCHMARK(BM_AttackIndexed);

void BM_AttackScan(benchmark::State& state) {
    const ledger::PaymentColumns columns = make_payments(100'000);
    const ledger::TxRecord observation = columns.row(12'345);
    const core::Deanonymizer deanonymizer(columns);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            deanonymizer.attack(observation, core::full_resolution()));
    }
}
BENCHMARK(BM_AttackScan);

struct PathWorld {
    ledger::LedgerState state;
    ledger::AccountID user, merchant;

    PathWorld() {
        util::Rng rng = util::RngStream(11).derive("path-world").rng();
        std::vector<ledger::AccountID> gateways;
        for (int g = 0; g < 20; ++g) {
            const auto id = ledger::AccountID::from_seed("g" + std::to_string(g));
            state.create_account(id, ledger::XrpAmount::from_xrp(1e6), true);
            gateways.push_back(id);
        }
        const ledger::Currency usd = ledger::Currency::from_code("USD");
        for (int u = 0; u < 2'000; ++u) {
            const auto id = ledger::AccountID::from_seed("u" + std::to_string(u));
            state.create_account(id, ledger::XrpAmount::from_xrp(100.0));
            for (int k = 0; k < 3; ++k) {
                const auto& gw = gateways[rng.uniform_u64(0, gateways.size() - 1)];
                ledger::TrustLine& line = state.set_trust(
                    id, gw, usd, ledger::IouAmount::from_double(1e6));
                (void)line.transfer_from(gw,
                                         ledger::IouAmount::from_double(1'000.0));
            }
        }
        user = ledger::AccountID::from_seed("u0");
        merchant = ledger::AccountID::from_seed("u1999");
    }
};

void BM_PathFinder(benchmark::State& state) {
    static PathWorld world;
    paths::TrustGraph graph(world.state);
    paths::PathFinder finder;
    const ledger::Currency usd = ledger::Currency::from_code("USD");
    for (auto _ : state) {
        benchmark::DoNotOptimize(finder.find(graph, world.user, world.merchant, usd));
    }
}
BENCHMARK(BM_PathFinder);

// Ablation: widest-path Dijkstra vs BFS on the same dense topology.
void BM_PathFinder_Widest(benchmark::State& state) {
    static PathWorld world;
    paths::TrustGraph graph(world.state);
    paths::WidestPathFinder finder;
    const ledger::Currency usd = ledger::Currency::from_code("USD");
    for (auto _ : state) {
        benchmark::DoNotOptimize(finder.find(graph, world.user, world.merchant, usd));
    }
}
BENCHMARK(BM_PathFinder_Widest);

// The payments workload's population (20 K users at seed 20130101:
// 21,619 accounts, 122,622 trust lines), built once.
const datagen::PopulationSnapshot& payments_population() {
    static const datagen::PopulationSnapshot snapshot = [] {
        datagen::GeneratorConfig config;
        config.seed = 20130101;
        config.num_users = 20'000;
        config.num_gateways = 40;
        config.num_market_makers = 200;
        config.num_merchants = 1'250;
        config.num_hubs = 20;
        return datagen::generate_population_only(config);
    }();
    return snapshot;
}

// One LedgerState::clone() of that population and its release: the
// per-clone cost every replay and node phase pays.
void BM_LedgerClone(benchmark::State& state) {
    const ledger::LedgerState& original = payments_population().ledger;
    for (auto _ : state) {
        const ledger::LedgerState copy = original.clone();
        benchmark::DoNotOptimize(copy.trustline_count());
    }
}
BENCHMARK(BM_LedgerClone)->Unit(benchmark::kMillisecond);

// One CSR index build over a clone of that population (the payments
// workload builds on clones).
void BM_GraphIndexBuild(benchmark::State& state) {
    const ledger::LedgerState copy = payments_population().ledger.clone();
    paths::GraphIndex index;
    for (auto _ : state) {
        index.build(copy);
        benchmark::DoNotOptimize(index.edge_count());
    }
}
BENCHMARK(BM_GraphIndexBuild)->Unit(benchmark::kMillisecond);

// One clone of that population, its first topology change (an
// AccountCreate and a TrustSet through PaymentEngine::apply), one path
// search and the clone's release: what the payments node phase pays
// for its first new account. A warm-up search first gives the
// population's clones their index, as the workload's set-up does.
void BM_CloneFirstTopologyChange(benchmark::State& state) {
    const datagen::PopulationSnapshot& snapshot = payments_population();
    const datagen::Population& population = snapshot.population;
    ledger::Transaction create;
    create.type = ledger::TxType::kAccountCreate;
    create.sender = population.market_makers.front();
    create.destination = ledger::AccountID::from_seed("bm:clone-first-change");
    create.amount = ledger::Amount::xrp(250.0);
    create.source_currency = ledger::Currency::xrp();
    ledger::Transaction trust;
    trust.type = ledger::TxType::kTrustSet;
    trust.sender = create.destination;
    trust.trust_peer = population.gateways.front();
    trust.trust_currency = population.gateway_currencies.front().front();
    trust.trust_limit = ledger::IouAmount::from_int(1'000);
    const ledger::AccountID& from = population.users.front();
    const ledger::AccountID& to = population.merchants.front();
    const ledger::Currency currency =
        snapshot.ledger.lines_of(from)[0]->key().currency;
    paths::PathFinder finder;
    {
        const ledger::LedgerState warm = snapshot.ledger.clone();
        const paths::TrustGraph graph(warm);
        benchmark::DoNotOptimize(finder.find(graph, from, to, currency));
    }
    for (auto _ : state) {
        ledger::LedgerState copy = snapshot.ledger.clone();
        paths::PaymentEngine engine(copy);
        if (!engine.apply(create).success || !engine.apply(trust).success) {
            state.SkipWithError("topology change failed");
            break;
        }
        benchmark::DoNotOptimize(finder.find(engine.graph(), from, to, currency));
    }
}
BENCHMARK(BM_CloneFirstTopologyChange)->Unit(benchmark::kMillisecond);

// End-to-end node throughput: submit -> consensus -> sealed -> applied.
void BM_NodeRound(benchmark::State& state) {
    ledger::LedgerState world;
    const auto alice = ledger::AccountID::from_seed("bm:alice");
    const auto bob = ledger::AccountID::from_seed("bm:bob");
    world.create_account(alice, ledger::XrpAmount::from_xrp(1e9));
    world.create_account(bob, ledger::XrpAmount::from_xrp(1e9));
    std::vector<consensus::ValidatorSpec> validators;
    for (int i = 0; i < 5; ++i) {
        consensus::ValidatorSpec v;
        v.label = "v" + std::to_string(i);
        v.behavior = consensus::ValidatorBehavior::kCore;
        v.availability = 1.0;
        v.on_unl = true;
        validators.push_back(v);
    }
    node::NodeConfig config;
    config.consensus.seed = 1;
    config.max_txs_per_page = 20;
    node::Node node(world, validators, config);

    std::uint32_t sequence = 1;
    std::int64_t txs = 0;
    for (auto _ : state) {
        state.PauseTiming();
        for (int i = 0; i < 20; ++i) {
            ledger::Transaction tx;
            tx.type = ledger::TxType::kPayment;
            tx.sender = alice;
            tx.sequence = sequence++;
            tx.destination = bob;
            tx.amount = ledger::Amount::xrp(1.0);
            tx.source_currency = ledger::Currency::xrp();
            node.submit(tx);
        }
        state.ResumeTiming();
        benchmark::DoNotOptimize(node.run_round());
        txs += 20;
    }
    state.SetItemsProcessed(txs);
}
BENCHMARK(BM_NodeRound);

void BM_ConsensusRound(benchmark::State& state) {
    const consensus::PeriodSpec period = consensus::december_2015();
    for (auto _ : state) {
        state.PauseTiming();
        consensus::ConsensusConfig config;
        config.rounds = 1'000;
        config.seed = 3;
        consensus::ConsensusSimulation sim(period.validators, config);
        consensus::ValidationStream stream;
        state.ResumeTiming();
        benchmark::DoNotOptimize(sim.run(stream));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1'000);
}
BENCHMARK(BM_ConsensusRound)->Unit(benchmark::kMillisecond);

// Ablation: the pre-2015 50% quorum closes rounds a weakened UNL
// cannot close at 80% (robustness/fork-risk trade-off the paper's
// references [7,8] drove).
void BM_Ablation_Quorum(benchmark::State& state) {
    const double quorum = static_cast<double>(state.range(0)) / 100.0;
    std::uint64_t closed = 0;
    std::uint64_t rounds = 0;
    for (auto _ : state) {
        consensus::ConsensusConfig config;
        config.rounds = 2'000;
        config.seed = 5;
        config.quorum = quorum;
        std::vector<consensus::ValidatorSpec> validators;
        for (int i = 0; i < 5; ++i) {
            consensus::ValidatorSpec v;
            v.label = "v" + std::to_string(i);
            v.behavior = consensus::ValidatorBehavior::kCore;
            v.availability = 0.7;  // a struggling UNL
            v.on_unl = true;
            validators.push_back(v);
        }
        consensus::ConsensusSimulation sim(validators, config);
        consensus::ValidationStream stream;
        const consensus::ConsensusStats stats = sim.run(stream);
        closed += stats.main_pages_closed;
        rounds += stats.rounds;
    }
    state.counters["close_rate"] =
        rounds == 0 ? 0.0 : static_cast<double>(closed) / static_cast<double>(rounds);
}
BENCHMARK(BM_Ablation_Quorum)->Arg(50)->Arg(80)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::AddCustomContext("sha256_kernel", util::sha256_kernel_name());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
