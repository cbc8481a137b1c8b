#include "core/deanonymizer.hpp"

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace xrpl::core {
namespace {

using ledger::AccountID;
using ledger::Currency;
using ledger::IouAmount;
using ledger::PaymentColumns;
using ledger::TxRecord;

TxRecord record(const std::string& sender, const std::string& destination,
                const char* currency, double amount, std::int64_t t) {
    TxRecord r;
    r.sender = AccountID::from_seed(sender);
    r.destination = AccountID::from_seed(destination);
    r.currency = Currency::from_code(currency);
    r.amount = IouAmount::from_double(amount);
    r.time = util::RippleTime{t};
    return r;
}

TEST(DeanonymizerTest, AllUniqueWhenFeaturesDistinct) {
    const std::vector<TxRecord> records = {
        record("alice", "shop", "USD", 100.0, 10),
        record("bob", "shop", "USD", 200.0, 20),
        record("carol", "shop", "USD", 300.0, 30),
    };
    const PaymentColumns payments = PaymentColumns::from_records(records);
    const Deanonymizer deanonymizer(payments);
    const IgResult ig = deanonymizer.information_gain(full_resolution());
    EXPECT_EQ(ig.total_payments, 3u);
    EXPECT_EQ(ig.uniquely_identified, 3u);
    EXPECT_DOUBLE_EQ(ig.information_gain(), 1.0);
}

TEST(DeanonymizerTest, SameSenderCollisionsStillIdentify) {
    // Two identical payments from the SAME account: the fingerprint is
    // shared, but it still pins down the sender.
    const std::vector<TxRecord> records = {
        record("alice", "shop", "USD", 100.0, 10),
        record("alice", "shop", "USD", 100.0, 10),
    };
    const PaymentColumns payments = PaymentColumns::from_records(records);
    const Deanonymizer deanonymizer(payments);
    EXPECT_DOUBLE_EQ(
        deanonymizer.information_gain(full_resolution()).information_gain(), 1.0);
}

TEST(DeanonymizerTest, CrossSenderCollisionDestroysIdentification) {
    const std::vector<TxRecord> records = {
        record("alice", "shop", "USD", 100.0, 10),
        record("bob", "shop", "USD", 100.0, 10),  // same fingerprint
        record("carol", "cafe", "USD", 500.0, 99),
    };
    const PaymentColumns payments = PaymentColumns::from_records(records);
    const Deanonymizer deanonymizer(payments);
    const IgResult ig = deanonymizer.information_gain(full_resolution());
    EXPECT_EQ(ig.uniquely_identified, 1u);  // only carol's
    EXPECT_NEAR(ig.information_gain(), 1.0 / 3.0, 1e-12);
}

TEST(DeanonymizerTest, CoarseningReducesInformationGain) {
    // Many users paying the same shop round-number amounts in the same
    // hour: unique at seconds, colliding at hour granularity.
    std::vector<TxRecord> records;
    for (int i = 0; i < 20; ++i) {
        records.push_back(
            record("user" + std::to_string(i), "shop", "USD", 100.0, 100 + i));
    }
    const PaymentColumns payments = PaymentColumns::from_records(records);
    const Deanonymizer deanonymizer(payments);
    EXPECT_DOUBLE_EQ(
        deanonymizer.information_gain(full_resolution()).information_gain(), 1.0);
    ResolutionConfig coarse = full_resolution();
    coarse.time = util::TimeResolution::kHours;
    EXPECT_DOUBLE_EQ(deanonymizer.information_gain(coarse).information_gain(),
                     0.0);
}

TEST(DeanonymizerTest, EmptyHistory) {
    const std::vector<TxRecord> records;
    const PaymentColumns payments = PaymentColumns::from_records(records);
    const Deanonymizer deanonymizer(payments);
    const IgResult ig = deanonymizer.information_gain(full_resolution());
    EXPECT_EQ(ig.total_payments, 0u);
    EXPECT_DOUBLE_EQ(ig.information_gain(), 0.0);
}

TEST(DeanonymizerTest, AttackFindsTheLatteSender) {
    // The paper's bar scenario: Alice knows amount/time/currency/
    // destination of Bob's latte and recovers Bob's address.
    std::vector<TxRecord> records = {
        record("bob", "bar", "USD", 4.5, 1000),
        record("alice", "bar", "USD", 12.0, 50'000),
        record("carol", "grocer", "USD", 4.5, 90'000),
    };
    const PaymentColumns payments = PaymentColumns::from_records(records);
    const Deanonymizer deanonymizer(payments);

    TxRecord observation = record("UNKNOWN", "bar", "USD", 4.5, 1000);
    const auto candidates = deanonymizer.attack(observation, full_resolution());
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_EQ(candidates[0], AccountID::from_seed("bob"));
}

TEST(DeanonymizerTest, AttackReturnsAllCandidatesWhenAmbiguous) {
    std::vector<TxRecord> records = {
        record("bob", "bar", "USD", 4.5, 1000),
        record("mallory", "bar", "USD", 4.9, 1000),  // same rounded amount
    };
    const PaymentColumns payments = PaymentColumns::from_records(records);
    const Deanonymizer deanonymizer(payments);
    TxRecord observation = record("UNKNOWN", "bar", "USD", 4.5, 1000);
    const auto candidates = deanonymizer.attack(observation, full_resolution());
    EXPECT_EQ(candidates.size(), 2u);
}

TEST(DeanonymizerTest, AttackWithNoMatchReturnsEmpty) {
    std::vector<TxRecord> records = {record("bob", "bar", "USD", 4.5, 1000)};
    const PaymentColumns payments = PaymentColumns::from_records(records);
    const Deanonymizer deanonymizer(payments);
    TxRecord observation = record("UNKNOWN", "bar", "EUR", 4.5, 1000);
    EXPECT_TRUE(deanonymizer.attack(observation, full_resolution()).empty());
}

TEST(DeanonymizerTest, HistoryOfReturnsEntireFinancialLife) {
    std::vector<TxRecord> records = {
        record("bob", "bar", "USD", 4.5, 1000),
        record("bob", "rent", "USD", 900.0, 2000),
        record("alice", "bar", "USD", 3.0, 3000),
        record("bob", "grocer", "USD", 55.0, 4000),
    };
    const PaymentColumns payments = PaymentColumns::from_records(records);
    const Deanonymizer deanonymizer(payments);
    const auto history = deanonymizer.history_of(AccountID::from_seed("bob"));
    EXPECT_EQ(history.size(), 3u);
    for (const TxRecord& r : history) {
        EXPECT_EQ(r.sender, AccountID::from_seed("bob"));
    }
}

TEST(AttackIndexTest, MatchesDeanonymizerAttack) {
    std::vector<TxRecord> records;
    for (int i = 0; i < 100; ++i) {
        records.push_back(record("user" + std::to_string(i % 7),
                                 "shop" + std::to_string(i % 3), "USD",
                                 100.0 * (i % 5), i));
    }
    const PaymentColumns payments = PaymentColumns::from_records(records);
    const Deanonymizer deanonymizer(payments);
    const AttackIndex index(payments, full_resolution());
    for (int i = 0; i < 100; i += 13) {
        const auto via_scan = deanonymizer.attack(records[static_cast<std::size_t>(i)],
                                                  full_resolution());
        const auto via_index =
            index.candidate_senders(records[static_cast<std::size_t>(i)]);
        EXPECT_EQ(via_scan, via_index);
    }
}

TEST(AttackIndexTest, MatchesAreRecordIndices) {
    std::vector<TxRecord> records = {
        record("bob", "bar", "USD", 4.5, 1000),
        record("alice", "bar", "USD", 999.0, 2000),
    };
    const PaymentColumns payments = PaymentColumns::from_records(records);
    const AttackIndex index(payments, full_resolution());
    const auto& matches = index.matches(records[0]);
    ASSERT_EQ(matches.size(), 1u);
    EXPECT_EQ(matches[0], 0u);
    EXPECT_GE(index.bucket_count(), 2u);
}

TEST(AttackIndexTest, ColumnarIndexMatchesRowIndex) {
    std::vector<TxRecord> records;
    for (int i = 0; i < 120; ++i) {
        records.push_back(record("user" + std::to_string(i % 9),
                                 "shop" + std::to_string(i % 4), "USD",
                                 50.0 * (i % 6), i / 2));
    }
    const PaymentColumns payments = PaymentColumns::from_records(records);
    const AttackIndex index(payments, full_resolution());

    // Reference index built one row at a time with the scalar
    // fingerprint: the same buckets, each ascending.
    std::map<std::uint64_t, std::vector<std::uint32_t>> rows;
    for (std::uint32_t i = 0; i < records.size(); ++i) {
        rows[fingerprint(records[i], full_resolution())].push_back(i);
    }
    EXPECT_EQ(index.bucket_count(), rows.size());
    for (std::size_t i = 0; i < records.size(); i += 7) {
        const std::span<const std::uint32_t> matches = index.matches(records[i]);
        EXPECT_EQ(std::vector<std::uint32_t>(matches.begin(), matches.end()),
                  rows.at(fingerprint(records[i], full_resolution())));
    }
}

TEST(AttackIndexTest, ViewIndexCoversOnlyThePrefix) {
    std::vector<TxRecord> records = {
        record("bob", "bar", "USD", 4.5, 1000),
        record("alice", "cafe", "EUR", 7.0, 2000),
    };
    const ledger::PaymentColumns columns =
        ledger::PaymentColumns::from_records(records);
    const AttackIndex index(columns.view().prefix(1), full_resolution());
    EXPECT_EQ(index.bucket_count(), 1u);
    EXPECT_FALSE(index.matches(records[0]).empty());
    EXPECT_TRUE(index.matches(records[1]).empty());
}

TEST(DeanonymizerTest, ColumnarConstructorsAgreeWithRows) {
    const std::vector<TxRecord> records = {
        record("alice", "shop", "USD", 100.0, 10),
        record("bob", "shop", "USD", 100.0, 10),
        record("carol", "cafe", "USD", 500.0, 99),
    };
    const PaymentColumns columns = PaymentColumns::from_records(records);

    const Deanonymizer store(columns);
    const Deanonymizer whole(columns.view());
    const Deanonymizer window(columns.view().prefix(2));

    const IgResult store_ig = store.information_gain(full_resolution());
    const IgResult whole_ig = whole.information_gain(full_resolution());
    EXPECT_EQ(store_ig.total_payments, whole_ig.total_payments);
    EXPECT_EQ(store_ig.uniquely_identified, whole_ig.uniquely_identified);
    EXPECT_EQ(store_ig.uniquely_identified, 1u);  // only carol's

    // The two-payment window holds only the colliding pair.
    const IgResult window_ig = window.information_gain(full_resolution());
    EXPECT_EQ(window_ig.total_payments, 2u);
    EXPECT_EQ(window_ig.uniquely_identified, 0u);
    EXPECT_EQ(window.record_count(), 2u);
    EXPECT_TRUE(window.history_of(AccountID::from_seed("carol")).empty());
    EXPECT_TRUE(window.attack(records[2], full_resolution()).empty());

    EXPECT_EQ(store.history_of(AccountID::from_seed("carol")).size(), 1u);
    EXPECT_EQ(store.attack(records[2], full_resolution()),
              std::vector<AccountID>{records[2].sender});
    EXPECT_EQ(whole.attack(records[2], full_resolution()),
              std::vector<AccountID>{records[2].sender});
}

TEST(DeanonymizerTest, StoreConstructorsRejectTemporaries) {
    // Both classes keep a PaymentView into the store, so a temporary
    // store would leave the view dangling: the rvalue constructors are
    // deleted.
    static_assert(!std::is_constructible_v<Deanonymizer, PaymentColumns>);
    static_assert(
        !std::is_constructible_v<AttackIndex, PaymentColumns, ResolutionConfig>);
    static_assert(std::is_constructible_v<Deanonymizer, const PaymentColumns&>);
    static_assert(std::is_constructible_v<AttackIndex, const PaymentColumns&,
                                          ResolutionConfig>);
}

}  // namespace
}  // namespace xrpl::core
