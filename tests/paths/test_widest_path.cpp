#include "paths/widest_path.hpp"

#include <gtest/gtest.h>

#include <string>

#include "paths/payment_engine.hpp"

namespace xrpl::paths {
namespace {

using ledger::AccountID;
using ledger::Currency;
using ledger::IouAmount;
using ledger::LedgerState;

const Currency kUsd = Currency::from_code("USD");

class WidestPathTest : public ::testing::Test {
protected:
    AccountID add(const std::string& seed) {
        const AccountID id = AccountID::from_seed(seed);
        state_.create_account(id, ledger::XrpAmount::from_xrp(10.0), false, true);
        return id;
    }
    void edge(const AccountID& from, const AccountID& to, double limit) {
        state_.set_trust(to, from, kUsd, IouAmount::from_double(limit));
    }

    LedgerState state_;
    WidestPathFinder finder_;
};

TEST_F(WidestPathTest, PrefersCapacityOverLength) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    const AccountID x = add("x");
    const AccountID y = add("y");
    // Thin direct edge; fat two-intermediate route.
    edge(a, b, 5.0);
    edge(a, x, 1'000.0);
    edge(x, y, 900.0);
    edge(y, b, 800.0);
    const TrustGraph graph(state_);
    const auto path = finder_.find(graph, a, b, kUsd);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->nodes.size(), 4u);
    EXPECT_NEAR(path->capacity.to_double(), 800.0, 1e-9);

    // The BFS finder takes the thin direct edge instead.
    PathFinder shortest;
    const auto short_path = shortest.find(graph, a, b, kUsd);
    ASSERT_TRUE(short_path.has_value());
    EXPECT_EQ(short_path->nodes.size(), 2u);
    EXPECT_NEAR(short_path->capacity.to_double(), 5.0, 1e-9);
}

TEST_F(WidestPathTest, AgreesWithBfsWhenOnlyOnePathExists) {
    const AccountID a = add("a");
    const AccountID m = add("m");
    const AccountID b = add("b");
    edge(a, m, 50.0);
    edge(m, b, 30.0);
    const TrustGraph graph(state_);
    const auto path = finder_.find(graph, a, b, kUsd);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->nodes, (std::vector<AccountID>{a, m, b}));
    EXPECT_NEAR(path->capacity.to_double(), 30.0, 1e-9);
}

TEST_F(WidestPathTest, NoPathAndExclusions) {
    const AccountID a = add("a");
    const AccountID m = add("m");
    const AccountID b = add("b");
    EXPECT_FALSE(finder_.find(TrustGraph(state_), a, b, kUsd).has_value());
    edge(a, m, 10.0);
    edge(m, b, 10.0);
    TrustGraph graph(state_);
    graph.exclude(m);
    EXPECT_FALSE(finder_.find(graph, a, b, kUsd).has_value());
}

TEST_F(WidestPathTest, RespectsNoRipple) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    const AccountID locked = AccountID::from_seed("locked");
    state_.create_account(locked, ledger::XrpAmount::from_xrp(10.0), false, false);
    edge(a, locked, 1'000.0);
    edge(locked, b, 1'000.0);
    const TrustGraph graph(state_);
    EXPECT_FALSE(finder_.find(graph, a, b, kUsd).has_value());
    // But the locked account can still be the destination.
    EXPECT_TRUE(finder_.find(graph, a, locked, kUsd).has_value());
}

TEST_F(WidestPathTest, RespectsDepthCap) {
    std::vector<AccountID> chain;
    chain.push_back(add("c0"));
    for (int i = 1; i <= 6; ++i) {
        chain.push_back(add("c" + std::to_string(i)));
        edge(chain[static_cast<std::size_t>(i - 1)],
             chain[static_cast<std::size_t>(i)], 100.0);
    }
    PathFinderConfig config;
    config.max_intermediate_hops = 3;
    WidestPathFinder capped(config);
    const TrustGraph graph(state_);
    EXPECT_FALSE(capped.find(graph, chain.front(), chain.back(), kUsd).has_value());
}

TEST_F(WidestPathTest, WidestFinderNeedsFewerPathsThanBfs) {
    // A payment of 90 over three thin direct routes (40 each) and one
    // fat route (500): the first BFS path carries 40, so the engine,
    // which searches shortest-first, splits the payment over three
    // paths; the first widest path carries all of it.
    const AccountID user = add("user");
    const AccountID merchant = add("merchant");
    const AccountID g1 = add("g1");
    const AccountID g2 = add("g2");
    const AccountID g3 = add("g3");
    const AccountID fat = add("fat");
    const AccountID fat2 = add("fat2");
    for (const AccountID& g : {g1, g2, g3}) {
        // user holds 40 at each thin gateway (deposit = capacity).
        ledger::TrustLine& line =
            state_.set_trust(user, g, kUsd, IouAmount::from_double(1e6));
        ASSERT_TRUE(line.transfer_from(g, IouAmount::from_double(40.0)));
        edge(g, merchant, 1e6);
    }
    // The fat route: user -> fat -> fat2 -> merchant with capacity 500.
    edge(user, fat, 500.0);
    edge(fat, fat2, 500.0);
    edge(fat2, merchant, 500.0);

    const TrustGraph graph(state_);
    PathFinder shortest;
    const auto thin = shortest.find(graph, user, merchant, kUsd);
    ASSERT_TRUE(thin.has_value());
    EXPECT_EQ(thin->intermediate_hops(), 1u);
    EXPECT_NEAR(thin->capacity.to_double(), 40.0, 1e-9);
    const auto wide = finder_.find(graph, user, merchant, kUsd);
    ASSERT_TRUE(wide.has_value());
    EXPECT_EQ(wide->intermediate_hops(), 2u);
    EXPECT_NEAR(wide->capacity.to_double(), 500.0, 1e-9);

    PaymentRequest request;
    request.sender = user;
    request.destination = merchant;
    request.deliver = ledger::Amount::iou(kUsd, 90.0);
    request.source_currency = kUsd;
    PaymentEngine engine(state_);
    const auto result = engine.execute(request);
    ASSERT_TRUE(result.success);
    EXPECT_GE(result.parallel_paths, 3u);
}

}  // namespace
}  // namespace xrpl::paths
