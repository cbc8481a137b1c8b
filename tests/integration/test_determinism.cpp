// Thread-count independence: every chunked scan must produce
// byte-identical results whether the shared pool runs serial
// (XRPL_THREADS=1) or wide (8 threads on any number of cores). The
// ordered chunk merge is the mechanism; these tests are the proof
// against a generated history big enough to split into several chunks
// (20k rows / 8192-row chunks = 3).
//
// The second half checks the scans against the aggregates the history
// builder streams out row by row — the chunked scan of a column must
// reproduce the serial streaming pass exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "analytics/currency_stats.hpp"
#include "analytics/network_stats.hpp"
#include "analytics/survival.hpp"
#include "analytics/top_users.hpp"
#include "core/anonymity.hpp"
#include "core/deanonymizer.hpp"
#include "core/ig_study.hpp"
#include "datagen/history.hpp"
#include "exec/thread_pool.hpp"

namespace xrpl {
namespace {

datagen::GeneratorConfig determinism_config() {
    datagen::GeneratorConfig config;
    config.seed = 20150831;
    config.num_users = 600;
    config.num_gateways = 15;
    config.num_market_makers = 25;
    config.num_merchants = 80;
    config.num_hubs = 8;
    config.target_payments = 20'000;
    return config;
}

class DeterminismTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        history_ = new datagen::GeneratedHistory(
            datagen::generate_history(determinism_config()));
    }
    static void TearDownTestSuite() {
        delete history_;
        history_ = nullptr;
    }
    static datagen::GeneratedHistory* history_;
};

datagen::GeneratedHistory* DeterminismTest::history_ = nullptr;

/// Run `scan` under a width-1 and a width-8 pool and return both
/// results for comparison.
template <typename Scan>
auto serial_vs_wide(const Scan& scan) {
    exec::ScopedParallelism serial(1);
    auto one = scan();
    exec::ScopedParallelism wide(8);
    auto eight = scan();
    return std::pair{std::move(one), std::move(eight)};
}

TEST_F(DeterminismTest, IgStudyRowsIdenticalAcrossThreadCounts) {
    const auto [serial, wide] = serial_vs_wide(
        [&] { return core::run_ig_study(history_->payments.view()); });
    ASSERT_EQ(serial.size(), wide.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].result.total_payments, wide[i].result.total_payments)
            << serial[i].config.label();
        EXPECT_EQ(serial[i].result.uniquely_identified,
                  wide[i].result.uniquely_identified)
            << serial[i].config.label();
    }
}

TEST_F(DeterminismTest, AnonymityProfilesIdenticalAcrossThreadCounts) {
    const auto [serial, wide] = serial_vs_wide([&] {
        std::vector<std::map<std::uint32_t, std::uint64_t>> histograms;
        for (const core::ResolutionConfig& config : core::fig3_configurations()) {
            histograms.push_back(
                core::analyze_anonymity(history_->payments.view(), config)
                    .histogram());
        }
        return histograms;
    });
    ASSERT_EQ(serial.size(), 10u);
    EXPECT_EQ(serial, wide);
}

TEST_F(DeterminismTest, AttackIndexIdenticalAcrossThreadCounts) {
    const core::ResolutionConfig config = core::full_resolution();
    const auto [serial, wide] = serial_vs_wide([&] {
        return core::AttackIndex(history_->payments.view(), config);
    });
    EXPECT_EQ(serial.bucket_count(), wide.bucket_count());
    for (std::size_t i = 0; i < history_->payments.size(); i += 331) {
        // matches() returns row indices in order — any reordering
        // would show up here, not just a count drift.
        const ledger::TxRecord observation = history_->payments.row(i);
        const std::span<const std::uint32_t> one = serial.matches(observation);
        const std::span<const std::uint32_t> eight = wide.matches(observation);
        EXPECT_EQ(std::vector<std::uint32_t>(one.begin(), one.end()),
                  std::vector<std::uint32_t>(eight.begin(), eight.end()))
            << "row " << i;
    }
}

TEST_F(DeterminismTest, CurrencyRanksIdenticalAcrossThreadCounts) {
    const auto [serial, wide] = serial_vs_wide(
        [&] { return analytics::rank_currencies(history_->payments.view()); });
    ASSERT_EQ(serial.size(), wide.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].currency, wide[i].currency);
        EXPECT_EQ(serial[i].payments, wide[i].payments);
        EXPECT_EQ(serial[i].share, wide[i].share);
    }
}

TEST_F(DeterminismTest, SurvivalSamplesIdenticalAcrossThreadCounts) {
    const auto [full_serial, full_wide] = serial_vs_wide(
        [&] { return analytics::amount_samples(history_->payments.view()); });
    EXPECT_EQ(full_serial, full_wide);

    for (const auto& [currency, expected] : history_->amounts_by_currency) {
        const auto [serial, wide] = serial_vs_wide([&, c = currency] {
            return analytics::amount_samples(history_->payments.view(), c);
        });
        // Filtered samples concatenate chunk-local vectors — the one
        // merge where ordering is the whole result.
        EXPECT_EQ(serial, wide) << std::string_view(currency.code.data(), 3);
    }
}

TEST_F(DeterminismTest, TopUsersTableIdenticalAcrossThreadCounts) {
    const auto [serial, wide] = serial_vs_wide(
        [&] { return analytics::sender_activity(history_->payments.view()); });
    EXPECT_EQ(serial, wide);
    EXPECT_EQ(analytics::coverage_of_top(serial, 50),
              analytics::coverage_of_top(wide, 50));
}

TEST_F(DeterminismTest, NetworkStatsIdenticalAcrossThreadCounts) {
    const auto [serial, wide] = serial_vs_wide([&] {
        return analytics::compute_network_stats(history_->ledger,
                                                history_->payments.view());
    });
    EXPECT_EQ(serial.active_senders, wide.active_senders);
    EXPECT_EQ(serial.active_participants, wide.active_participants);
    EXPECT_EQ(serial.degree_histogram, wide.degree_histogram);
}

// ---- scan vs streaming-aggregate parity ---------------------------------

TEST_F(DeterminismTest, CurrencyScanMatchesStreamedCounts) {
    const auto scanned = analytics::count_currencies(history_->payments.view());
    EXPECT_EQ(scanned, history_->currency_counts);
}

TEST_F(DeterminismTest, AmountScanMatchesStreamedSamples) {
    for (const auto& [currency, streamed] : history_->amounts_by_currency) {
        const std::vector<float> scanned =
            analytics::amount_samples(history_->payments.view(), currency);
        // Same rows, same order, same float narrowing.
        EXPECT_EQ(scanned, streamed) << std::string_view(currency.code.data(), 3);
    }
}

TEST_F(DeterminismTest, NetworkScanMatchesSerialDistinctCount) {
    // The chunked scan merges sorted per-chunk id sets; a plain serial
    // set over the id columns must count the same accounts.
    const ledger::PaymentColumns& payments = history_->payments;
    const std::set<std::uint32_t> senders(payments.sender_id.begin(),
                                          payments.sender_id.end());
    std::set<std::uint32_t> participants = senders;
    participants.insert(payments.dest_id.begin(), payments.dest_id.end());
    const analytics::NetworkStats scanned =
        analytics::compute_network_stats(history_->ledger, payments.view());
    EXPECT_EQ(scanned.active_senders, senders.size());
    EXPECT_EQ(scanned.active_participants, participants.size());
}

}  // namespace
}  // namespace xrpl
