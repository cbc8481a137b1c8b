#include "paths/path_finder.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace xrpl::paths {
namespace {

using ledger::AccountID;
using ledger::Currency;
using ledger::IouAmount;
using ledger::LedgerState;

const Currency kUsd = Currency::from_code("USD");

class PathFinderTest : public ::testing::Test {
protected:
    AccountID add(const std::string& seed) {
        const AccountID id = AccountID::from_seed(seed);
        state_.create_account(id, ledger::XrpAmount::from_xrp(10.0), false, true);
        return id;
    }

    /// Allow value to flow from -> to up to `limit` (receiver trusts).
    void edge(const AccountID& from, const AccountID& to, double limit) {
        state_.set_trust(to, from, kUsd, IouAmount::from_double(limit));
    }

    [[nodiscard]] TrustGraph graph() const {
        return TrustGraph(state_);
    }

    LedgerState state_;
    PathFinder finder_;
};

TEST_F(PathFinderTest, FindsDirectEdge) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    edge(a, b, 50.0);
    const TrustGraph g = graph();
    const auto path = finder_.find(g, a, b, kUsd);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->nodes, (std::vector<AccountID>{a, b}));
    EXPECT_EQ(path->intermediate_hops(), 0u);
    EXPECT_NEAR(path->capacity.to_double(), 50.0, 1e-9);
}

TEST_F(PathFinderTest, FindsTwoHopPathThroughGateway) {
    const AccountID user = add("user");
    const AccountID gateway = add("gateway");
    const AccountID merchant = add("merchant");
    edge(user, gateway, 30.0);
    edge(gateway, merchant, 100.0);
    const TrustGraph g = graph();
    const auto path = finder_.find(g, user, merchant, kUsd);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->nodes, (std::vector<AccountID>{user, gateway, merchant}));
    EXPECT_EQ(path->intermediate_hops(), 1u);
    EXPECT_NEAR(path->capacity.to_double(), 30.0, 1e-9);  // bottleneck
}

TEST_F(PathFinderTest, PrefersShortestPath) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    const AccountID x = add("x");
    const AccountID y = add("y");
    // Long route a -> x -> y -> b and short route a -> b.
    edge(a, x, 10.0);
    edge(x, y, 10.0);
    edge(y, b, 10.0);
    edge(a, b, 5.0);
    const TrustGraph g = graph();
    const auto path = finder_.find(g, a, b, kUsd);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->nodes.size(), 2u);
}

TEST_F(PathFinderTest, NoPathReturnsNullopt) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    const TrustGraph g = graph();
    EXPECT_FALSE(finder_.find(g, a, b, kUsd).has_value());
}

TEST_F(PathFinderTest, DirectionalityRespected) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    edge(a, b, 50.0);  // only a -> b
    const TrustGraph g = graph();
    EXPECT_TRUE(finder_.find(g, a, b, kUsd).has_value());
    EXPECT_FALSE(finder_.find(g, b, a, kUsd).has_value());
}

TEST_F(PathFinderTest, ZeroCapacityEdgeIsUnusable) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    edge(a, b, 50.0);
    ledger::TrustLine* line = state_.trustline(a, b, kUsd);
    ASSERT_TRUE(line->transfer_from(a, IouAmount::from_double(50.0)));
    const TrustGraph g = graph();
    EXPECT_FALSE(finder_.find(g, a, b, kUsd).has_value());
}

TEST_F(PathFinderTest, ExcludedIntermediateAvoided) {
    const AccountID a = add("a");
    const AccountID via1 = add("via1");
    const AccountID via2 = add("via2");
    const AccountID b = add("b");
    edge(a, via1, 10.0);
    edge(via1, b, 10.0);
    edge(a, via2, 10.0);
    edge(via2, b, 10.0);
    TrustGraph g = graph();
    g.exclude(via1);
    const auto path = finder_.find(g, a, b, kUsd);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->nodes[1], via2);
}

TEST_F(PathFinderTest, ExcludedEndpointFails) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    edge(a, b, 10.0);
    TrustGraph g = graph();
    g.exclude(b);
    EXPECT_FALSE(finder_.find(g, a, b, kUsd).has_value());
}

TEST_F(PathFinderTest, SameSourceAndDestinationRejected) {
    const AccountID a = add("a");
    const TrustGraph g = graph();
    EXPECT_FALSE(finder_.find(g, a, a, kUsd).has_value());
}

TEST_F(PathFinderTest, RespectsDepthLimit) {
    // A chain of 6 intermediates with a finder capped at 4.
    std::vector<AccountID> chain;
    chain.push_back(add("n0"));
    for (int i = 1; i <= 7; ++i) {
        chain.push_back(add("n" + std::to_string(i)));
        edge(chain[i - 1], chain[i], 10.0);
    }
    PathFinderConfig config;
    config.max_intermediate_hops = 4;
    PathFinder capped(config);
    const TrustGraph g = graph();
    EXPECT_FALSE(capped.find(g, chain.front(), chain.back(), kUsd).has_value());

    PathFinderConfig loose;
    loose.max_intermediate_hops = 6;
    PathFinder generous(loose);
    const auto path = generous.find(g, chain.front(), chain.back(), kUsd);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->intermediate_hops(), 6u);
}

TEST_F(PathFinderTest, MaxVisitedCutsTheSearchOff) {
    // A wide two-level fan (a -> 30 relays -> b): the search must
    // visit every relay before it can close the path, so a budget of 5
    // gives up while a roomy budget finds the two-hop route.
    const AccountID a = add("a");
    const AccountID b = add("b");
    for (int i = 0; i < 30; ++i) {
        const AccountID relay = add("relay" + std::to_string(i));
        edge(a, relay, 10.0);
        edge(relay, b, 10.0);
    }
    PathFinderConfig tight;
    tight.max_visited = 5;
    PathFinder starved(tight);
    const TrustGraph g = graph();
    EXPECT_FALSE(starved.find(g, a, b, kUsd).has_value());

    const auto path = finder_.find(g, a, b, kUsd);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->intermediate_hops(), 1u);
}

TEST_F(PathFinderTest, FindsEightHopSpamChain) {
    // The MTL spam shape: 8 intermediates.
    std::vector<AccountID> chain;
    chain.push_back(add("spammer"));
    for (int i = 1; i <= 8; ++i) chain.push_back(add("shill" + std::to_string(i)));
    chain.push_back(add("target"));
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        edge(chain[i], chain[i + 1], 1e9);
    }
    const TrustGraph g = graph();
    const auto path = finder_.find(g, chain.front(), chain.back(), kUsd);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->intermediate_hops(), 8u);
    EXPECT_EQ(path->nodes, chain);
}

TEST_F(PathFinderTest, ScratchBuffersSurviveReuse) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    const AccountID c = add("c");
    edge(a, b, 10.0);
    edge(b, c, 10.0);
    const TrustGraph g = graph();
    for (int i = 0; i < 100; ++i) {
        const auto path = finder_.find(g, a, c, kUsd);
        ASSERT_TRUE(path.has_value());
        EXPECT_EQ(path->nodes.size(), 3u);
    }
}

TEST_F(PathFinderTest, NoRippleAccountsBlockInteriorRouting) {
    // A user that does not enable DefaultRipple cannot be used as an
    // intermediate hop, even with capacity on both sides.
    const AccountID a = add("a");
    const AccountID b = add("b");
    const AccountID locked = AccountID::from_seed("locked");
    state_.create_account(locked, ledger::XrpAmount::from_xrp(10.0), false,
                          /*allows_rippling=*/false);
    edge(a, locked, 100.0);
    edge(locked, b, 100.0);
    const TrustGraph g = graph();
    EXPECT_FALSE(finder_.find(g, a, b, kUsd).has_value());
    // But it can still be a destination...
    EXPECT_TRUE(finder_.find(g, a, locked, kUsd).has_value());
    // ...and a sender.
    EXPECT_TRUE(finder_.find(g, locked, b, kUsd).has_value());
}

TEST_F(PathFinderTest, ExclusionBeforeCreationHolds) {
    // Excluding an account before it exists must keep it out of every
    // path once it is created and wired in, whether or not the graph
    // searched (and built its index) in between.
    const AccountID a = add("a");
    const AccountID b = add("b");
    const AccountID x = AccountID::from_seed("x");
    TrustGraph searched = graph();
    TrustGraph fresh = graph();
    searched.exclude(x);
    fresh.exclude(x);
    EXPECT_FALSE(finder_.find(searched, a, b, kUsd).has_value());

    ASSERT_EQ(add("x"), x);
    edge(a, x, 10.0);
    edge(x, b, 10.0);
    EXPECT_FALSE(finder_.find(searched, a, b, kUsd).has_value());
    EXPECT_FALSE(finder_.find(fresh, a, b, kUsd).has_value());

    // The route itself is sound: lifting the exclusion opens it.
    searched.clear_exclusions();
    const auto path = finder_.find(searched, a, b, kUsd);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->nodes, (std::vector<AccountID>{a, x, b}));
}

TEST_F(PathFinderTest, ExclusionBeforeCreationHoldsOnAClone) {
    // The same on a clone, whose new account and lines sit on top of the
    // topology it shares with the original: the excluded account's index
    // comes into being after the clone's first search.
    const AccountID a = add("a");
    const AccountID b = add("b");
    LedgerState copy = state_.clone();
    const AccountID x = AccountID::from_seed("x");
    TrustGraph searched(copy);
    TrustGraph fresh(copy);
    searched.exclude(x);
    fresh.exclude(x);
    EXPECT_FALSE(finder_.find(searched, a, b, kUsd).has_value());

    ASSERT_TRUE(
        copy.create_account(x, ledger::XrpAmount::from_xrp(10.0), false, true));
    copy.set_trust(x, a, kUsd, IouAmount::from_double(10.0));
    copy.set_trust(b, x, kUsd, IouAmount::from_double(10.0));
    EXPECT_FALSE(finder_.find(searched, a, b, kUsd).has_value());
    EXPECT_FALSE(finder_.find(fresh, a, b, kUsd).has_value());

    searched.clear_exclusions();
    const auto path = finder_.find(searched, a, b, kUsd);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->nodes, (std::vector<AccountID>{a, x, b}));
    // The original never saw x.
    EXPECT_EQ(state_.account(x), nullptr);
}

TEST_F(PathFinderTest, CapacityReadsDoNotGrowWithNonRipplingHolders) {
    // A gateway whose holders block rippling: searching from one
    // holder to a merchant expands the gateway, but DefaultRipple rules
    // every other holder out as a hop, so the search must not read
    // their lines. The same search against 10 and 1,000 holders reads
    // the same capacities: holder -> gateway, then the gateway's lines
    // to the source and to the merchant.
    const auto locked = [&](const std::string& seed) {
        const AccountID id = AccountID::from_seed(seed);
        state_.create_account(id, ledger::XrpAmount::from_xrp(10.0), false,
                              /*allows_rippling=*/false);
        return id;
    };
    const auto reads_for = [&](int holders) -> std::uint64_t {
        const std::string tag = std::to_string(holders);
        const AccountID gateway = add("gateway" + tag);
        std::vector<AccountID> held;
        for (int i = 0; i < holders; ++i) {
            held.push_back(locked("holder" + tag + "_" + std::to_string(i)));
            edge(held.back(), gateway, 100.0);
            edge(gateway, held.back(), 100.0);
        }
        const AccountID merchant = locked("merchant" + tag);
        edge(gateway, merchant, 1000.0);

        const TrustGraph g = graph();
        obs::Counter& reads = obs::counter("paths.capacity_reads");
        const bool was_enabled = obs::enabled();
        obs::set_enabled(true);
        const std::uint64_t before = reads.value();
        const auto path = finder_.find(g, held.front(), merchant, kUsd);
        const std::uint64_t after = reads.value();
        obs::set_enabled(was_enabled);
        EXPECT_TRUE(path.has_value());
        if (path) {
            EXPECT_EQ(path->nodes,
                      (std::vector<AccountID>{held.front(), gateway, merchant}));
        }
        return after - before;
    };
    const std::uint64_t few = reads_for(10);
    const std::uint64_t many = reads_for(1000);
    EXPECT_EQ(few, many);
    EXPECT_EQ(few, 3u);
}

TEST_F(PathFinderTest, HubTopologyFindsFourHopRoute) {
    // user -> minorG -> hub -> majorG -> merchant.
    const AccountID user = add("user");
    const AccountID minor = add("minorG");
    const AccountID hub = add("hub");
    const AccountID major = add("majorG");
    const AccountID merchant = add("merchant");
    edge(user, minor, 100.0);
    edge(minor, hub, 1000.0);
    edge(hub, major, 1000.0);
    edge(major, merchant, 1000.0);
    const TrustGraph g = graph();
    const auto path = finder_.find(g, user, merchant, kUsd);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->intermediate_hops(), 3u);
    EXPECT_NEAR(path->capacity.to_double(), 100.0, 1e-9);
}

TEST_F(PathFinderTest, TieBreakFollowsLinesOfOrder) {
    // A small braided topology with genuine tie-breaks: five two-hop
    // routes a -> mid_i -> b. The search expands a's side first, then
    // meets on b's first in-neighbour in lines_of() order, mid0.
    const AccountID a = add("a");
    const AccountID b = add("b");
    std::vector<AccountID> mids;
    for (int i = 0; i < 5; ++i) {
        mids.push_back(add("mid" + std::to_string(i)));
        edge(a, mids.back(), 10.0 + i);
        edge(mids.back(), b, 20.0 - i);
    }
    edge(mids[1], mids[3], 7.0);

    const TrustGraph g = graph();
    const auto path = finder_.find(g, a, b, kUsd);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->nodes, (std::vector<AccountID>{a, mids[0], b}));
    EXPECT_EQ(path->capacity.to_double(), 10.0);
}

}  // namespace
}  // namespace xrpl::paths
