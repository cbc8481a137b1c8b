#include "core/anonymity.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/deanonymizer.hpp"
#include "core/ig_study.hpp"
#include "util/rng.hpp"

namespace xrpl::core {
namespace {

using ledger::AccountID;
using ledger::Currency;
using ledger::IouAmount;
using ledger::PaymentColumns;
using ledger::TxRecord;

TxRecord record(const std::string& sender, const std::string& destination,
                double amount, std::int64_t t) {
    TxRecord r;
    r.sender = AccountID::from_seed(sender);
    r.destination = AccountID::from_seed(destination);
    r.currency = Currency::from_code("USD");
    r.amount = IouAmount::from_double(amount);
    r.time = util::RippleTime{t};
    return r;
}

TEST(AnonymityTest, SingletonBucketsAreSetSizeOne) {
    const std::vector<TxRecord> records = {
        record("a", "x", 100.0, 1),
        record("b", "y", 200.0, 2),
    };
    const PaymentColumns payments = PaymentColumns::from_records(records);
    const AnonymityProfile profile =
        analyze_anonymity(payments.view(), full_resolution());
    EXPECT_EQ(profile.total_payments(), 2u);
    EXPECT_DOUBLE_EQ(profile.identifiable_within(1), 1.0);
    EXPECT_DOUBLE_EQ(profile.mean_set_size(), 1.0);
}

TEST(AnonymityTest, CollidingSendersGrowTheSet) {
    // Three senders share one fingerprint; one stands alone.
    const std::vector<TxRecord> records = {
        record("a", "shop", 100.0, 1),
        record("b", "shop", 100.0, 1),
        record("c", "shop", 100.0, 1),
        record("d", "other", 555.0, 9),
    };
    const PaymentColumns payments = PaymentColumns::from_records(records);
    const AnonymityProfile profile =
        analyze_anonymity(payments.view(), full_resolution());
    EXPECT_EQ(profile.total_payments(), 4u);
    EXPECT_DOUBLE_EQ(profile.identifiable_within(1), 0.25);
    EXPECT_DOUBLE_EQ(profile.identifiable_within(3), 1.0);
    EXPECT_DOUBLE_EQ(profile.mean_set_size(), (3.0 * 3 + 1.0) / 4.0);
    EXPECT_EQ(profile.set_size_quantile(0.9), 3u);
}

TEST(AnonymityTest, RepeatSameSenderStaysSetSizeOne) {
    const std::vector<TxRecord> records = {
        record("a", "shop", 100.0, 1),
        record("a", "shop", 100.0, 1),
    };
    const PaymentColumns payments = PaymentColumns::from_records(records);
    const AnonymityProfile profile =
        analyze_anonymity(payments.view(), full_resolution());
    EXPECT_DOUBLE_EQ(profile.identifiable_within(1), 1.0);
}

TEST(AnonymityTest, IdentifiableWithinOneEqualsInformationGain) {
    std::vector<TxRecord> records;
    util::Rng rng(9);
    for (int i = 0; i < 3'000; ++i) {
        records.push_back(record("s" + std::to_string(rng.uniform_u64(0, 80)),
                                 "d" + std::to_string(rng.uniform_u64(0, 10)),
                                 100.0 * static_cast<double>(rng.uniform_u64(1, 5)),
                                 static_cast<std::int64_t>(rng.uniform_u64(0, 500))));
    }
    const PaymentColumns payments = PaymentColumns::from_records(records);
    const Deanonymizer deanonymizer(payments);
    for (const ResolutionConfig& config : fig3_configurations()) {
        const AnonymityProfile profile = analyze_anonymity(payments.view(), config);
        const IgResult ig = deanonymizer.information_gain(config);
        EXPECT_NEAR(profile.identifiable_within(1), ig.information_gain(), 1e-12)
            << config.label();
    }
}

TEST(AnonymityTest, CoarseningGrowsAnonymitySets) {
    std::vector<TxRecord> records;
    util::Rng rng(10);
    for (int i = 0; i < 5'000; ++i) {
        records.push_back(record("s" + std::to_string(rng.uniform_u64(0, 300)),
                                 "d" + std::to_string(rng.uniform_u64(0, 20)),
                                 rng.lognormal(3.0, 2.0),
                                 static_cast<std::int64_t>(rng.uniform_u64(0, 50'000))));
    }
    const PaymentColumns payments = PaymentColumns::from_records(records);
    const AnonymityProfile fine =
        analyze_anonymity(payments.view(), full_resolution());
    ResolutionConfig coarse;
    coarse.amount = AmountResolution::kLow;
    coarse.time = util::TimeResolution::kDays;
    const AnonymityProfile blurred = analyze_anonymity(payments.view(), coarse);
    EXPECT_GE(blurred.mean_set_size(), fine.mean_set_size());
    EXPECT_LE(blurred.identifiable_within(1), fine.identifiable_within(1));
    EXPECT_LE(blurred.identifiable_within(5), fine.identifiable_within(5) + 1e-12);
}

TEST(AnonymityTest, EmptyHistoryIsSafe) {
    const PaymentColumns payments;
    const AnonymityProfile profile =
        analyze_anonymity(payments.view(), full_resolution());
    EXPECT_EQ(profile.total_payments(), 0u);
    EXPECT_DOUBLE_EQ(profile.identifiable_within(1), 0.0);
    EXPECT_DOUBLE_EQ(profile.mean_set_size(), 0.0);
    EXPECT_EQ(profile.set_size_quantile(0.5), 0u);
}

TEST(AnonymityTest, SetSizeQuantileCoversTheFraction) {
    // One payment at set size 1, two at set size 2: k = 1 covers only
    // a third of the payments, so the median needs k = 2.
    AnonymityProfile profile;
    profile.add(1, 1);
    profile.add(2, 2);
    EXPECT_DOUBLE_EQ(profile.identifiable_within(1), 1.0 / 3.0);
    EXPECT_EQ(profile.set_size_quantile(0.5), 2u);
    EXPECT_EQ(profile.set_size_quantile(1.0 / 3.0), 1u);
    EXPECT_EQ(profile.set_size_quantile(1.0), 2u);
}

}  // namespace
}  // namespace xrpl::core
