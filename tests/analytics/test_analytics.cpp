#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analytics/currency_stats.hpp"
#include "analytics/histogram.hpp"
#include "analytics/network_stats.hpp"
#include "analytics/path_stats.hpp"
#include "analytics/survival.hpp"
#include "analytics/top_users.hpp"
#include "exec/parallel.hpp"

namespace xrpl::analytics {
namespace {

TEST(SurvivalTest, BasicShape) {
    const std::vector<float> samples = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    const SurvivalFunction s(samples);
    EXPECT_EQ(s.sample_count(), 10u);
    EXPECT_DOUBLE_EQ(s.survival(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.survival(5.0), 0.5);   // strictly greater than 5
    EXPECT_DOUBLE_EQ(s.survival(10.0), 0.0);
    EXPECT_DOUBLE_EQ(s.survival(100.0), 0.0);
}

TEST(SurvivalTest, MonotoneNonIncreasing) {
    std::vector<float> samples;
    for (int i = 0; i < 1000; ++i) {
        samples.push_back(static_cast<float>((i * 37) % 500));
    }
    const SurvivalFunction s(samples);
    double previous = 1.1;
    for (double x = 0.0; x < 600.0; x += 13.0) {
        const double value = s.survival(x);
        EXPECT_LE(value, previous);
        previous = value;
    }
}

TEST(SurvivalTest, QuantilesAndMedian) {
    std::vector<float> samples;
    for (int i = 1; i <= 100; ++i) samples.push_back(static_cast<float>(i));
    const SurvivalFunction s(samples);
    EXPECT_NEAR(s.median(), 50.0, 1.0);
    EXPECT_NEAR(s.quantile(0.9), 90.0, 1.0);
    EXPECT_NEAR(s.quantile(0.0), 1.0, 1e-6);
}

TEST(SurvivalTest, EmptySamplesAreSafe) {
    const SurvivalFunction s(std::vector<float>{});
    EXPECT_DOUBLE_EQ(s.survival(1.0), 0.0);
    EXPECT_DOUBLE_EQ(s.median(), 0.0);
    EXPECT_EQ(s.sample_count(), 0u);
}

TEST(SurvivalTest, CurveCoversLogGrid) {
    const std::vector<float> samples = {0.001f, 1.0f, 1000.0f};
    const SurvivalFunction s(samples);
    const auto curve = s.curve(-4, 4, 1);
    ASSERT_EQ(curve.size(), 9u);
    EXPECT_NEAR(curve.front().amount, 1e-4, 1e-10);
    EXPECT_NEAR(curve.back().amount, 1e4, 1e-4);
    EXPECT_DOUBLE_EQ(curve.front().survival, 1.0);
    EXPECT_DOUBLE_EQ(curve.back().survival, 0.0);
}

TEST(CountHistogramTest, AddAndShare) {
    CountHistogram h;
    h.add(1, 80);
    h.add(2, 20);
    EXPECT_EQ(h.total(), 100u);
    EXPECT_EQ(h.count(1), 80u);
    EXPECT_EQ(h.count(7), 0u);
    EXPECT_DOUBLE_EQ(h.share(1), 0.8);
    EXPECT_DOUBLE_EQ(h.share(9), 0.0);
    const auto items = h.items();
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(items[0].first, 1u);
}

TEST(LogHistogramTest, BucketsByDecade) {
    LogHistogram h;
    h.add(5.0);      // decade 0
    h.add(50.0);     // decade 1
    h.add(55.0);     // decade 1
    h.add(0.02);     // decade -2
    h.add(-1.0);     // ignored
    h.add(0.0);      // ignored
    EXPECT_EQ(h.total(), 4u);
    const auto items = h.items();
    ASSERT_EQ(items.size(), 3u);
    EXPECT_EQ(items[0].first, -2);
    EXPECT_EQ(items[2].first, 1);
    EXPECT_EQ(items[2].second, 2u);
}

TEST(CurrencyStatsTest, RanksDescending) {
    std::unordered_map<ledger::Currency, std::uint64_t> counts;
    counts[ledger::Currency::from_code("XRP")] = 100;
    counts[ledger::Currency::from_code("BTC")] = 40;
    counts[ledger::Currency::from_code("USD")] = 60;
    const auto ranked = rank_currencies(counts);
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_EQ(ranked[0].currency.to_string(), "XRP");
    EXPECT_EQ(ranked[1].currency.to_string(), "USD");
    EXPECT_EQ(ranked[2].currency.to_string(), "BTC");
    EXPECT_DOUBLE_EQ(ranked[0].share, 0.5);
}

TEST(CurrencyStatsTest, EmptyIsEmpty) {
    const std::unordered_map<ledger::Currency, std::uint64_t> no_counts;
    EXPECT_TRUE(rank_currencies(no_counts).empty());
}

TEST(ScanWindowTest, WindowScansEqualScansOfAStoreOfItsRows) {
    // Each scan adds view.offset() to the chunk bounds map_reduce hands
    // it. A window that starts mid-store and spans several chunks must
    // scan exactly its own rows, as a fresh store of them does. Senders
    // and destinations thin out along the store, so a window and the
    // store's first rows differ in their distinct accounts too.
    constexpr std::size_t kChunk = exec::kDefaultChunkRows;
    const char* const codes[] = {"USD", "BTC", "EUR"};
    ledger::PaymentColumns columns;
    for (std::size_t i = 0; i < 3 * kChunk + 517; ++i) {
        ledger::TxRecord r;
        r.sender = ledger::AccountID::from_seed("s" + std::to_string(i * i / 175'000));
        r.destination =
            ledger::AccountID::from_seed("d" + std::to_string(i * i / 1'000'000));
        r.currency = ledger::Currency::from_code(codes[(i / 1'000) % 3]);
        r.amount = ledger::IouAmount::from_double(0.5 + static_cast<double>(i % 977));
        r.time = util::RippleTime{static_cast<std::int64_t>(i)};
        columns.push_back(r);
    }
    const std::size_t offset = 1'234;
    const std::size_t count = 2 * kChunk + 321;
    const ledger::PaymentView window = columns.view().subview(offset, count);
    std::vector<ledger::TxRecord> rows;
    for (std::size_t i = offset; i < offset + count; ++i) rows.push_back(columns.row(i));
    const ledger::PaymentColumns fresh = ledger::PaymentColumns::from_records(rows);

    EXPECT_EQ(count_currencies(window), count_currencies(fresh.view()));
    EXPECT_EQ(amount_samples(window), amount_samples(fresh.view()));
    for (const char* code : codes) {
        const ledger::Currency currency = ledger::Currency::from_code(code);
        EXPECT_EQ(amount_samples(window, currency),
                  amount_samples(fresh.view(), currency))
            << code;
    }
    const auto activity = sender_activity(fresh.view());
    EXPECT_EQ(sender_activity(window), activity);
    // The window's rows differ from the store's first rows, so a scan
    // that dropped the offset would not pass.
    EXPECT_NE(sender_activity(columns.view().prefix(count)), activity);
    ledger::LedgerState state;
    const NetworkStats windowed = compute_network_stats(state, window);
    const NetworkStats expected = compute_network_stats(state, fresh.view());
    EXPECT_EQ(windowed.active_senders, expected.active_senders);
    EXPECT_EQ(windowed.active_participants, expected.active_participants);
}

TEST(PathStatsTest, BuildsFromRawHistograms) {
    const std::vector<std::uint64_t> hops = {0, 100, 50, 20, 5, 2, 1, 1, 90};
    const std::vector<std::uint64_t> parallel = {0, 60, 25, 10, 40, 0, 70};
    const PathStats stats = make_path_stats(hops, parallel);
    EXPECT_EQ(stats.hops.count(1), 100u);
    EXPECT_EQ(stats.hops.count(8), 90u);
    EXPECT_EQ(stats.parallel.count(6), 70u);
    EXPECT_EQ(stats.multi_hop_total(), 269u);
}

TEST(PathStatsTest, DetectsTheEightHopAnomaly) {
    // Organic decay with a spam spike at 8 (the paper's MTL).
    const std::vector<std::uint64_t> hops = {0, 1000, 500, 250, 125, 60, 30, 15, 900};
    const PathStats stats = make_path_stats(hops, {});
    EXPECT_EQ(stats.hop_anomaly(), 8u);
}

TEST(PathStatsTest, NoAnomalyInPureDecay) {
    const std::vector<std::uint64_t> hops = {0, 1000, 500, 250, 125};
    const PathStats stats = make_path_stats(hops, {});
    EXPECT_EQ(stats.hop_anomaly(), 0u);
}

}  // namespace
}  // namespace xrpl::analytics
