#include "core/ig_study.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/rng.hpp"

namespace xrpl::core {
namespace {

using ledger::AccountID;
using ledger::Currency;
using ledger::IouAmount;
using ledger::TxRecord;

TEST(IgStudyTest, TenConfigurationsInPaperOrder) {
    const auto configs = fig3_configurations();
    ASSERT_EQ(configs.size(), 10u);
    EXPECT_EQ(configs[0].label(), "<Am; Tsc; C; D>");
    EXPECT_EQ(configs[1].label(), "<Am; Tsc; -; D>");
    EXPECT_EQ(configs[2].label(), "<Am; Tsc; C; ->");
    EXPECT_EQ(configs[3].label(), "<-; Tsc; C; D>");
    EXPECT_EQ(configs[4].label(), "<Ah; Tmn; C; D>");
    EXPECT_EQ(configs[5].label(), "<Aa; Thr; C; D>");
    EXPECT_EQ(configs[6].label(), "<Al; Tdy; C; D>");
    EXPECT_EQ(configs[7].label(), "<Am; -; C; D>");
    EXPECT_EQ(configs[8].label(), "<Am; -; -; ->");
    EXPECT_EQ(configs[9].label(), "<Al; Tdy; -; ->");
}

TEST(IgStudyTest, PaperReferencesMatchQuotedValues) {
    EXPECT_DOUBLE_EQ(*fig3_paper_reference(0).value, 0.9983);
    EXPECT_TRUE(fig3_paper_reference(0).exact);
    EXPECT_DOUBLE_EQ(*fig3_paper_reference(7).value, 0.4884);
    EXPECT_DOUBLE_EQ(*fig3_paper_reference(9).value, 0.0128);
    EXPECT_FALSE(fig3_paper_reference(4).exact);  // read off the figure
    EXPECT_FALSE(fig3_paper_reference(99).value.has_value());
}

/// A small synthetic history with the qualitative structure of the
/// real one: ledger closes every ~5 s, a few payments per close,
/// habitual small payments plus a heavy tail.
ledger::PaymentColumns synthetic_history(std::size_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    ledger::PaymentColumns payments;
    payments.reserve(n);
    std::int64_t now = 0;
    while (payments.size() < n) {
        now += 5;
        const std::uint32_t burst =
            static_cast<std::uint32_t>(rng.uniform_u64(0, 3));
        for (std::uint32_t i = 0; i < burst && payments.size() < n; ++i) {
            TxRecord r;
            r.sender = AccountID::from_seed(
                "user" + std::to_string(rng.uniform_u64(0, 400)));
            r.destination = AccountID::from_seed(
                "shop" + std::to_string(rng.uniform_u64(0, 30)));
            r.currency = Currency::from_code(rng.bernoulli(0.5) ? "USD" : "BTC");
            r.amount = IouAmount::from_double(rng.lognormal(3.0, 2.5));
            r.time = util::RippleTime{now};
            payments.push_back(r);
        }
    }
    return payments;
}

TEST(IgStudyTest, MonotoneDegradationAcrossTheResolutionLadder) {
    const auto payments = synthetic_history(20'000, 5);
    const auto rows = run_ig_study(payments);
    ASSERT_EQ(rows.size(), 10u);

    const auto ig = [&](std::size_t i) { return rows[i].result.information_gain(); };

    // The ladder <Am,Tsc> >= <Ah,Tmn> >= <Aa,Thr> >= <Al,Tdy>.
    EXPECT_GE(ig(0), ig(4));
    EXPECT_GE(ig(4), ig(5));
    EXPECT_GE(ig(5), ig(6));

    // Dropping a feature can only lose information.
    EXPECT_GE(ig(0), ig(1));  // remove C
    EXPECT_GE(ig(0), ig(2));  // remove D
    EXPECT_GE(ig(0), ig(3));  // remove A
    EXPECT_GE(ig(0), ig(7));  // remove T
    EXPECT_GE(ig(7), ig(8));  // then remove C and D too
    EXPECT_GE(ig(6), ig(9));
}

TEST(IgStudyTest, TimestampIsTheDominantFeature) {
    // "T's information gain not only is higher than A's, but is also
    // the highest among all the features": removing T hurts more than
    // removing any other single feature.
    const auto payments = synthetic_history(20'000, 6);
    const auto rows = run_ig_study(payments);
    const double without_c = rows[1].result.information_gain();
    const double without_d = rows[2].result.information_gain();
    const double without_a = rows[3].result.information_gain();
    const double without_t = rows[7].result.information_gain();
    EXPECT_LT(without_t, without_a);
    EXPECT_LT(without_t, without_d);
    EXPECT_LT(without_t, without_c);
}

TEST(IgStudyTest, FullResolutionNearlyPerfect) {
    const auto payments = synthetic_history(20'000, 7);
    const auto rows = run_ig_study(payments);
    EXPECT_GT(rows[0].result.information_gain(), 0.95);
    // And the weakest configuration is far below it.
    EXPECT_LT(rows[9].result.information_gain(),
              0.5 * rows[0].result.information_gain());
}

TEST(IgStudyTest, RowsCarryPaperReferences) {
    const auto payments = synthetic_history(2'000, 8);
    const auto rows = run_ig_study(payments);
    EXPECT_TRUE(rows[0].paper_value.has_value());
    EXPECT_TRUE(rows[0].paper_value_exact);
    EXPECT_NEAR(*rows[0].paper_value, 0.9983, 1e-12);
    EXPECT_FALSE(rows[4].paper_value_exact);
}

}  // namespace
}  // namespace xrpl::core
