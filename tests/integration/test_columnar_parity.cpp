// Golden values for every columnar analysis over one generated
// history (interned accounts, repeated hubs, spam campaigns, several
// currencies — any drift in rounding, truncation, or domain tagging
// shows up as a count mismatch). The values were recorded while the
// row-at-a-time TxRecord path still shipped and this suite proved row
// and column bit-identical on this exact history; with the row path
// deleted, the pins carry that reference forward.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/anonymity.hpp"
#include "core/clustering.hpp"
#include "core/deanonymizer.hpp"
#include "core/ig_study.hpp"
#include "core/mitigation.hpp"
#include "datagen/dataset.hpp"
#include "datagen/history.hpp"
#include "datagen/spam.hpp"
#include "ledger/payment_columns.hpp"
#include "snap/dataset_cache.hpp"
#include "util/file_io.hpp"

namespace xrpl {
namespace {

datagen::GeneratorConfig parity_config() {
    datagen::GeneratorConfig config;
    config.seed = 4242;
    config.num_users = 700;
    config.num_gateways = 20;
    config.num_market_makers = 30;
    config.num_merchants = 100;
    config.num_hubs = 10;
    config.target_payments = 20'000;
    return config;
}

class ColumnarParityTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        history_ = new datagen::GeneratedHistory(
            datagen::generate_history(parity_config()));
    }
    static void TearDownTestSuite() {
        delete history_;
        history_ = nullptr;
    }
    static const ledger::PaymentColumns& payments() { return history_->payments; }
    static datagen::GeneratedHistory* history_;
};

datagen::GeneratedHistory* ColumnarParityTest::history_ = nullptr;

// Fig 3's ten uniquely_identified counts, in fig3_configurations()
// order, each out of 20,001 payments.
constexpr std::uint64_t kTotalPayments = 20'001;
constexpr std::array<std::uint64_t, 10> kGoldenIg = {
    19647, 19645, 17560, 17773, 17946, 11119, 3640, 7477, 3670, 2520};

TEST_F(ColumnarParityTest, HistoryIsThePinnedInput) {
    // Every golden below describes exactly this history.
    EXPECT_EQ(payments().size(), kTotalPayments);
    EXPECT_EQ(payments().accounts.size(), 865u);
    EXPECT_EQ(ledger::columns_fingerprint(payments()),
              "5dae24305c59176c940b39c0284cb19352ed771582569b2f1f19c5e61d172b90");
}

TEST_F(ColumnarParityTest, FingerprintColumnMatchesRowFingerprints) {
    for (const core::ResolutionConfig& config : core::fig3_configurations()) {
        const std::vector<std::uint64_t> fingerprints =
            core::fingerprint_column(payments().view(), config);
        ASSERT_EQ(fingerprints.size(), payments().size());
        // Spot-check across the whole history (every row would be slow
        // times ten configurations).
        for (std::size_t i = 0; i < payments().size(); i += 67) {
            EXPECT_EQ(fingerprints[i], core::fingerprint(payments().row(i), config))
                << "row " << i << " under " << config.label();
        }
    }
}

TEST_F(ColumnarParityTest, IgStudyIdenticalThroughBothPaths) {
    // The flat (configuration x chunk) study grid and the single-
    // configuration Deanonymizer scan must both hit the pins.
    const auto study = core::run_ig_study(payments());
    const core::Deanonymizer deanonymizer(payments());
    ASSERT_EQ(study.size(), kGoldenIg.size());
    for (std::size_t i = 0; i < study.size(); ++i) {
        const core::IgResult single = deanonymizer.information_gain(study[i].config);
        EXPECT_EQ(study[i].result.total_payments, kTotalPayments);
        EXPECT_EQ(study[i].result.uniquely_identified, kGoldenIg[i])
            << study[i].config.label();
        EXPECT_EQ(single.total_payments, kTotalPayments);
        EXPECT_EQ(single.uniquely_identified, kGoldenIg[i])
            << study[i].config.label();
    }
}

TEST_F(ColumnarParityTest, AnonymityProfileIdentical) {
    const core::AnonymityProfile profile =
        core::analyze_anonymity(payments().view(), core::full_resolution());
    const std::map<std::uint32_t, std::uint64_t> golden = {
        {1, 19647}, {2, 296}, {3, 46}, {4, 12}};
    EXPECT_EQ(profile.histogram(), golden);
    EXPECT_EQ(profile.total_payments(), kTotalPayments);
}

TEST_F(ColumnarParityTest, AttackAndHistoryIdentical) {
    const core::Deanonymizer deanonymizer(payments());
    const core::ResolutionConfig config = core::full_resolution();
    std::uint64_t probes = 0;
    std::uint64_t candidates = 0;
    std::uint64_t history_rows = 0;
    std::uint64_t history_seconds = 0;
    for (std::size_t i = 0; i < payments().size(); i += 997) {
        const ledger::TxRecord observation = payments().row(i);
        ++probes;
        candidates += deanonymizer.attack(observation, config).size();
        for (const ledger::TxRecord& row : deanonymizer.history_of(observation.sender)) {
            EXPECT_EQ(row.sender, observation.sender);
            ++history_rows;
            history_seconds += static_cast<std::uint64_t>(row.time.seconds);
        }
    }
    EXPECT_EQ(probes, 21u);
    EXPECT_EQ(candidates, 21u);
    EXPECT_EQ(history_rows, 1407u);
    EXPECT_EQ(history_seconds, 577'356'887'437u);
}

TEST_F(ColumnarParityTest, AttackIndexIdentical) {
    const core::ResolutionConfig config = core::full_resolution();
    const core::AttackIndex index(payments(), config);
    const core::Deanonymizer deanonymizer(payments());
    EXPECT_EQ(index.bucket_count(), 19'786u);
    for (std::size_t i = 0; i < payments().size(); i += 997) {
        const ledger::TxRecord observation = payments().row(i);
        // Every probe is the only payment in its full-resolution bucket.
        const std::span<const std::uint32_t> matches = index.matches(observation);
        EXPECT_EQ(std::vector<std::uint32_t>(matches.begin(), matches.end()),
                  std::vector<std::uint32_t>{static_cast<std::uint32_t>(i)});
        EXPECT_EQ(index.candidate_senders(observation),
                  deanonymizer.attack(observation, config));
    }
}

TEST_F(ColumnarParityTest, CacheServedColumnsAnalyzeIdentically) {
    // The persistence path end to end: publish this history into a
    // dataset cache under its real content key, load it back, and run
    // the paper's headline analysis on both copies. A snapshot that
    // survives its CRCs but perturbed any column would diverge here.
    const std::string dir = "columnar_parity_cache.tmp";
    const snap::DatasetCache cache(dir);
    const std::string key = datagen::dataset_key(parity_config());
    ASSERT_TRUE(util::remove_file(cache.path_for(key)));
    ASSERT_TRUE(cache.store(key, payments()));

    const auto served = cache.try_load(key);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(ledger::columns_fingerprint(*served),
              ledger::columns_fingerprint(payments()));

    const auto fresh_study = core::run_ig_study(payments());
    const auto cached_study = core::run_ig_study(*served);
    ASSERT_EQ(fresh_study.size(), cached_study.size());
    for (std::size_t i = 0; i < fresh_study.size(); ++i) {
        EXPECT_EQ(fresh_study[i].result.uniquely_identified,
                  cached_study[i].result.uniquely_identified)
            << fresh_study[i].config.label();
    }
    util::remove_file(cache.path_for(key));
}

TEST_F(ColumnarParityTest, MitigationReportIdentical) {
    const auto trustlines_of = [&](const ledger::AccountID& owner) {
        return history_->ledger.lines_of(owner).size();
    };
    core::WalletRotationConfig config;
    config.wallets_per_sender = 3;
    const core::ResolutionConfig resolution = core::full_resolution();

    const core::MitigationReport report = core::evaluate_wallet_rotation(
        payments(), resolution, config, trustlines_of);

    EXPECT_EQ(report.baseline.uniquely_identified, 19'647u);
    EXPECT_EQ(report.rotated.uniquely_identified, 19'601u);
    EXPECT_EQ(report.linked.uniquely_identified, 19'647u);
    EXPECT_EQ(report.baseline.total_payments, kTotalPayments);
    EXPECT_EQ(report.rotated.total_payments, kTotalPayments);
    EXPECT_EQ(report.linked.total_payments, kTotalPayments);
    EXPECT_EQ(report.wallets_created, 2'250u);
    EXPECT_EQ(report.trustlines_created, 49'833u);
    EXPECT_DOUBLE_EQ(report.xrp_reserve_cost, 294'165.0);
}

TEST_F(ColumnarParityTest, ClusteredIgIdentical) {
    // Entity-level IG with adjacent interned accounts (0-1, 2-3, ...)
    // linked into two-account clusters.
    core::AccountClusters paired;
    const ledger::AccountInterner& accounts = payments().accounts;
    for (std::uint32_t a = 0; a + 1 < accounts.size(); a += 2) {
        paired.link(accounts.at(a), accounts.at(a + 1));
    }
    constexpr std::array<std::uint64_t, 10> kGoldenPaired = {
        19651, 19649, 17580, 17788, 17950, 11127, 3642, 7479, 3672, 2520};
    const core::AccountClusters unlinked;
    const auto configs = core::fig3_configurations();
    ASSERT_EQ(configs.size(), kGoldenPaired.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const core::IgResult clustered =
            core::clustered_information_gain(payments().view(), configs[i], paired);
        EXPECT_EQ(clustered.total_payments, kTotalPayments);
        EXPECT_EQ(clustered.uniquely_identified, kGoldenPaired[i])
            << configs[i].label();
        // With no links every account is its own entity: plain IG.
        EXPECT_EQ(core::clustered_information_gain(payments().view(), configs[i],
                                                   unlinked)
                      .uniquely_identified,
                  kGoldenIg[i])
            << configs[i].label();
    }
}

TEST_F(ColumnarParityTest, SpamBreakdownIdentical) {
    const datagen::SpamBreakdown breakdown =
        datagen::spam_breakdown(payments().view(), history_->population);
    EXPECT_EQ(breakdown.organic, 13'659u);
    EXPECT_EQ(breakdown.mtl, 2'534u);
    EXPECT_EQ(breakdown.cck, 2'556u);
    EXPECT_EQ(breakdown.account_zero, 725u);
    EXPECT_EQ(breakdown.gambling, 527u);
    EXPECT_EQ(breakdown.total(), kTotalPayments);
}

}  // namespace
}  // namespace xrpl
