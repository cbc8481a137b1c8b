#include "ledger/payment_columns.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace xrpl::ledger {
namespace {

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

TEST(AccountInternerTest, AssignsDenseIdsInFirstSeenOrder) {
    AccountInterner interner;
    const AccountID a = AccountID::from_seed("a");
    const AccountID b = AccountID::from_seed("b");
    EXPECT_EQ(interner.intern(a), 0u);
    EXPECT_EQ(interner.intern(b), 1u);
    EXPECT_EQ(interner.intern(a), 0u);  // stable on re-intern
    EXPECT_EQ(interner.size(), 2u);
    EXPECT_EQ(interner.at(0), a);
    EXPECT_EQ(interner.at(1), b);
    EXPECT_EQ(interner.find(b), std::optional<std::uint32_t>{1u});
    EXPECT_FALSE(interner.find(AccountID::from_seed("c")).has_value());
}

TEST(CurrencyInternerTest, AssignsDenseIds) {
    CurrencyInterner interner;
    EXPECT_EQ(interner.intern(Currency::from_code("USD")), 0u);
    EXPECT_EQ(interner.intern(Currency::xrp()), 1u);
    EXPECT_EQ(interner.intern(Currency::from_code("USD")), 0u);
    EXPECT_EQ(interner.at(1), Currency::xrp());
    EXPECT_FALSE(interner.find(Currency::from_code("EUR")).has_value());
}

TEST(PaymentColumnsTest, PushBackRowRoundTrips) {
    PaymentColumns columns;
    const TxRecord original = record("bob", "bar", "USD", 4.5, 1000);
    columns.push_back(original);
    ASSERT_EQ(columns.size(), 1u);

    const TxRecord back = columns.row(0);
    EXPECT_EQ(back.sender, original.sender);
    EXPECT_EQ(back.destination, original.destination);
    EXPECT_EQ(back.currency, original.currency);
    EXPECT_EQ(back.amount, original.amount);
    EXPECT_EQ(back.time.seconds, original.time.seconds);
}

TEST(PaymentColumnsTest, SharedAccountsShareIds) {
    PaymentColumns columns;
    columns.push_back(record("hub", "shop-a", "USD", 1.0, 1));
    columns.push_back(record("hub", "shop-b", "USD", 2.0, 2));
    EXPECT_EQ(columns.sender_id[0], columns.sender_id[1]);
    EXPECT_NE(columns.dest_id[0], columns.dest_id[1]);
    // hub, shop-a, shop-b: three distinct accounts total.
    EXPECT_EQ(columns.accounts.size(), 3u);
    EXPECT_EQ(columns.currencies.size(), 1u);
}

TEST(PaymentColumnsTest, FromRecordsRoundTripsThroughRow) {
    std::vector<TxRecord> records;
    for (int i = 0; i < 50; ++i) {
        records.push_back(record("s" + std::to_string(i % 7),
                                 "d" + std::to_string(i % 3),
                                 i % 2 == 0 ? "USD" : "BTC",
                                 0.25 * (i + 1), 100 + i));
    }
    const PaymentColumns columns = PaymentColumns::from_records(records);
    ASSERT_EQ(columns.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TxRecord back = columns.row(i);
        EXPECT_EQ(back.sender, records[i].sender);
        EXPECT_EQ(back.destination, records[i].destination);
        EXPECT_EQ(back.currency, records[i].currency);
        EXPECT_EQ(back.amount, records[i].amount);
        EXPECT_EQ(back.time.seconds, records[i].time.seconds);
    }
}

TEST(PaymentViewTest, PrefixClampsAndWindows) {
    PaymentColumns columns;
    for (int i = 0; i < 8; ++i) {
        columns.push_back(record("s", "d", "USD", 1.0, i));
    }
    const PaymentView half = columns.view().prefix(4);
    EXPECT_EQ(half.size(), 4u);
    EXPECT_EQ(half.offset(), 0u);
    EXPECT_EQ(&half.columns(), &columns);
    EXPECT_EQ(columns.view().prefix(100).size(), 8u);
    EXPECT_TRUE(columns.view().prefix(0).empty());
}

TEST(PaymentViewTest, EmptyColumns) {
    const PaymentColumns columns;
    EXPECT_TRUE(columns.empty());
    EXPECT_TRUE(columns.view().empty());
    EXPECT_EQ(columns.view().size(), 0u);
}

}  // namespace
}  // namespace xrpl::ledger
