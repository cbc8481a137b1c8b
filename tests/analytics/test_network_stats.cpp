#include "analytics/network_stats.hpp"

#include <gtest/gtest.h>

namespace xrpl::analytics {
namespace {

using ledger::AccountID;
using ledger::Currency;
using ledger::IouAmount;

TEST(NetworkStatsTest, CountsAccountsLinesAndActivity) {
    ledger::LedgerState state;
    const AccountID a = AccountID::from_seed("a");
    const AccountID b = AccountID::from_seed("b");
    const AccountID c = AccountID::from_seed("c");
    for (const auto& id : {a, b, c}) state.create_account(id, {});
    state.set_trust(a, b, Currency::from_code("USD"), IouAmount::from_double(10));
    state.set_trust(a, c, Currency::from_code("USD"), IouAmount::from_double(10));

    ledger::TxRecord payment;
    payment.sender = a;
    payment.destination = b;
    ledger::PaymentColumns payments;
    payments.push_back(payment);

    const NetworkStats stats = compute_network_stats(state, payments.view());
    EXPECT_EQ(stats.accounts, 3u);
    EXPECT_EQ(stats.trust_lines, 2u);
    EXPECT_EQ(stats.active_senders, 1u);
    EXPECT_EQ(stats.active_participants, 2u);
    EXPECT_EQ(stats.max_degree, 2u);          // a holds two lines
    EXPECT_NEAR(stats.mean_degree, 4.0 / 3.0, 1e-12);
    EXPECT_EQ(stats.degree_histogram.at(1), 2u);  // b and c
    EXPECT_EQ(stats.degree_histogram.at(2), 1u);  // a
}

TEST(NetworkStatsTest, EmptyWorld) {
    ledger::LedgerState state;
    const ledger::PaymentColumns payments;
    const NetworkStats stats = compute_network_stats(state, payments.view());
    EXPECT_EQ(stats.accounts, 0u);
    EXPECT_DOUBLE_EQ(stats.mean_degree, 0.0);
}

TEST(GiniTest, KnownValues) {
    // Perfect equality.
    EXPECT_NEAR(gini({1, 1, 1, 1}), 0.0, 1e-12);
    // Total concentration approaches (n-1)/n.
    EXPECT_NEAR(gini({0, 0, 0, 100}), 0.75, 1e-12);
    // A textbook example: {1,2,3,4} -> 0.25.
    EXPECT_NEAR(gini({1, 2, 3, 4}), 0.25, 1e-12);
}

TEST(GiniTest, DegenerateInputs) {
    EXPECT_DOUBLE_EQ(gini({}), 0.0);
    EXPECT_DOUBLE_EQ(gini({5.0}), 0.0);
    EXPECT_DOUBLE_EQ(gini({0.0, 0.0}), 0.0);
    // Negative weights are dropped, not propagated.
    EXPECT_NEAR(gini({-3.0, 1.0, 1.0}), 0.0, 1e-12);
}

TEST(GiniTest, ScaleInvariant) {
    const double base = gini({1, 5, 9, 22, 60});
    EXPECT_NEAR(gini({10, 50, 90, 220, 600}), base, 1e-12);
}

}  // namespace
}  // namespace xrpl::analytics
