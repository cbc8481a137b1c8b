// Golden values of the trust-path search on a generated history big
// enough to exercise gateways, hubs, makers, and spam chains: the
// paths BFS and widest-path search find for sampled (user, merchant)
// pairs, ties included, the paths.nodes_expanded totals of the Table II
// replays, and the Table II numbers themselves, all at a fixed
// seed/config, so a behaviour change in the finders, the CSR index
// (whose per-node order follows lines_of()) or the generator shows up
// as a concrete diff, not a silent drift.
//
// Runs in tier-1 at XRPL_THREADS=1 and 8 (tools/tier1.sh): nothing
// here may depend on pool width.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "datagen/history.hpp"
#include "obs/metrics.hpp"
#include "paths/replay.hpp"
#include "paths/widest_path.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace xrpl {
namespace {

using paths::PaymentEngine;
using paths::ReplayStats;

/// Small but structured: all account classes present, enough payments
/// for the delivered-workload filter to bite. Fixed seed — the golden
/// expectations below are functions of exactly this config.
datagen::GeneratorConfig parity_config() {
    datagen::GeneratorConfig config;
    config.seed = 20150207;  // the paper's snapshot date, Feb 7 2015
    config.num_users = 500;
    config.num_gateways = 12;
    config.num_market_makers = 20;
    config.num_merchants = 60;
    config.num_hubs = 6;
    config.target_payments = 15'000;
    return config;
}

class ReplayParityTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        history_ = new datagen::GeneratedHistory(
            datagen::generate_history(parity_config()));
        util::Rng rng = util::RngStream(parity_config().seed).derive("replay").rng();
        workload_ = new std::vector<paths::PaymentRequest>(
            datagen::make_delivered_replay_workload(
                history_->population, history_->ledger, 1'500, 0.687, rng));
    }
    static void TearDownTestSuite() {
        delete history_;
        history_ = nullptr;
        delete workload_;
        workload_ = nullptr;
    }

    /// Replay the shared workload through a fresh engine over a fresh
    /// clone, measuring the BFS node-visit total alongside the stats.
    struct MeasuredReplay {
        ReplayStats stats;
        std::uint64_t nodes_expanded = 0;
    };
    static MeasuredReplay run_replay(bool remove_makers) {
        const bool was_enabled = obs::enabled();
        obs::set_enabled(true);
        obs::Counter& expanded = obs::counter("paths.nodes_expanded");
        const std::uint64_t before = expanded.value();

        ledger::LedgerState world = history_->ledger.clone();
        PaymentEngine engine(world);
        MeasuredReplay result;
        if (remove_makers) {
            result.stats = paths::replay_without(
                engine, *workload_, history_->population.market_makers, true);
        } else {
            result.stats = paths::replay(engine, *workload_);
        }
        result.nodes_expanded = expanded.value() - before;
        obs::set_enabled(was_enabled);
        return result;
    }

    static datagen::GeneratedHistory* history_;
    static std::vector<paths::PaymentRequest>* workload_;
};

datagen::GeneratedHistory* ReplayParityTest::history_ = nullptr;
std::vector<paths::PaymentRequest>* ReplayParityTest::workload_ = nullptr;

TEST_F(ReplayParityTest, SampledPairPathsArePinned) {
    // BFS and widest-path search for every (user, merchant) pairing
    // sampled across the population, in the merchant's home currency.
    // The digest covers each pair's two answers in order: absence, or
    // every node, line and the capacity of the path found, so a change
    // in tie-breaking moves it.
    const datagen::Population& pop = history_->population;
    const paths::TrustGraph graph(history_->ledger);
    paths::PathFinder shortest;
    paths::WidestPathFinder widest;

    util::Sha256 hasher;
    const auto put_path = [&](const std::optional<paths::TrustPath>& path) {
        if (!path) {
            hasher.update("-;");
            return;
        }
        for (const ledger::AccountID& node : path->nodes) hasher.update(node.bytes);
        for (const std::uint32_t line : path->lines) {
            hasher.update(std::to_string(line) + ",");
        }
        hasher.update(std::to_string(path->capacity.mantissa()) + "e" +
                      std::to_string(path->capacity.exponent()) + ";");
    };

    std::size_t compared = 0;
    std::size_t shortest_found = 0;
    std::size_t widest_found = 0;
    std::size_t shortest_hops = 0;
    std::size_t widest_hops = 0;
    for (std::size_t u = 0; u < pop.users.size(); u += 17) {
        for (std::size_t m = 0; m < pop.merchants.size(); m += 7) {
            const ledger::AccountID& from = pop.users[u];
            const ledger::AccountID& to = pop.merchants[m];
            const ledger::Currency currency = pop.merchant_profiles[m].home;
            const auto a = shortest.find(graph, from, to, currency);
            const auto w = widest.find(graph, from, to, currency);
            put_path(a);
            put_path(w);
            ++compared;
            if (a) {
                ++shortest_found;
                shortest_hops += a->intermediate_hops();
            }
            if (w) {
                ++widest_found;
                widest_hops += w->intermediate_hops();
            }
        }
    }
    EXPECT_EQ(compared, 270u);
    EXPECT_EQ(shortest_found, 23u);
    EXPECT_EQ(widest_found, 23u);
    EXPECT_EQ(shortest_hops, 35u);
    EXPECT_EQ(widest_hops, 57u);
    EXPECT_EQ(util::hex_encode(hasher.finish()),
              "9b0c27d7df4ae3e2619578328e7b86188fd61261e804cfa24640f8268e4472cd");
}

// The two replay tests below keep the names of the cross-engine checks
// they replaced: each pins the node-visit total that the CSR index and
// the retired per-visit lines_of() scan engine both produced, so the
// searches' frontiers stay fixed, not just their end results.
TEST_F(ReplayParityTest, FullReplayStatsIdenticalAcrossEngines) {
    const MeasuredReplay baseline = run_replay(/*remove_makers=*/false);
    // The workload is delivered-filtered: the baseline replays clean.
    EXPECT_EQ(baseline.stats.delivered(), baseline.stats.submitted());
    EXPECT_EQ(baseline.nodes_expanded, 28'064u);
}

TEST_F(ReplayParityTest, MakerFreeReplayStatsIdenticalAcrossEngines) {
    const MeasuredReplay removed = run_replay(/*remove_makers=*/true);
    // Removing every maker and offer must cost deliveries (Table II's
    // whole point); equality here would mean the removal did nothing.
    EXPECT_LT(removed.stats.delivered(), removed.stats.submitted());
    EXPECT_EQ(removed.nodes_expanded, 3'796u);
}

TEST_F(ReplayParityTest, GoldenTableTwoStats) {
    // Pinned Table II numbers for parity_config() + the fixed replay
    // stream: any change to the generator, the engine, the finder, or
    // the replay harness that moves these is a REAL behaviour change
    // and must be deliberate.
    const MeasuredReplay baseline = run_replay(/*remove_makers=*/false);
    EXPECT_EQ(baseline.stats.cross_submitted, 1030u);
    EXPECT_EQ(baseline.stats.cross_delivered, 1030u);
    EXPECT_EQ(baseline.stats.single_submitted, 470u);
    EXPECT_EQ(baseline.stats.single_delivered, 470u);

    // Table II's shape at test scale: cross-currency collapses to zero
    // without makers; single-currency survives partially (the paper:
    // 36.10%, here 377/470 — the synthetic graph is denser).
    const MeasuredReplay removed = run_replay(/*remove_makers=*/true);
    EXPECT_EQ(removed.stats.cross_submitted, 1030u);
    EXPECT_EQ(removed.stats.cross_delivered, 0u);
    EXPECT_EQ(removed.stats.single_submitted, 470u);
    EXPECT_EQ(removed.stats.single_delivered, 377u);
}

}  // namespace
}  // namespace xrpl
