// TrustGraph as a search sees it: which lines carry value in which
// direction, in which currency, and which accounts the exclusion set
// hides. Every case asks PathFinder::find, so the edges under test are
// the ones the search walks.
#include "paths/trust_graph.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "paths/path_finder.hpp"

namespace xrpl::paths {
namespace {

using ledger::AccountID;
using ledger::Currency;
using ledger::IouAmount;
using ledger::LedgerState;

class TrustGraphTest : public ::testing::Test {
protected:
    void SetUp() override {
        a_ = add("a");
        b_ = add("b");
        c_ = add("c");
        // b trusts a: a can send to b.
        state_.set_trust(b_, a_, usd_, IouAmount::from_double(100.0));
    }

    /// A rippling account, so it may sit inside a path.
    AccountID add(const char* seed) {
        const AccountID id = AccountID::from_seed(seed);
        state_.create_account(id, ledger::XrpAmount::from_xrp(10.0), false,
                              /*allows_rippling=*/true);
        return id;
    }

    [[nodiscard]] std::vector<AccountID> path(const TrustGraph& graph,
                                              const AccountID& from,
                                              const AccountID& to,
                                              Currency currency) {
        const auto found = finder_.find(graph, from, to, currency);
        return found ? found->nodes : std::vector<AccountID>{};
    }

    LedgerState state_;
    PathFinder finder_;
    AccountID a_, b_, c_;
    const Currency usd_ = Currency::from_code("USD");
};

TEST_F(TrustGraphTest, NeighborRequiresPositiveCapacity) {
    const TrustGraph graph(state_);
    EXPECT_EQ(path(graph, a_, b_, usd_), (std::vector<AccountID>{a_, b_}));
    // b cannot send to a: a declared no trust.
    EXPECT_TRUE(path(graph, b_, a_, usd_).empty());
}

TEST_F(TrustGraphTest, CurrencyFiltering) {
    const TrustGraph graph(state_);
    EXPECT_TRUE(path(graph, a_, b_, Currency::from_code("EUR")).empty());
}

TEST_F(TrustGraphTest, ExclusionHidesNeighbors) {
    // c trusts b: a -> b -> c, and b is excluded as a hop.
    state_.set_trust(c_, b_, usd_, IouAmount::from_double(50.0));
    TrustGraph graph(state_);
    EXPECT_EQ(path(graph, a_, c_, usd_), (std::vector<AccountID>{a_, b_, c_}));
    graph.exclude(b_);
    EXPECT_TRUE(path(graph, a_, c_, usd_).empty());
    EXPECT_TRUE(graph.is_excluded(b_));
    EXPECT_EQ(graph.exclusion_count(), 1u);
    graph.clear_exclusions();
    EXPECT_EQ(path(graph, a_, c_, usd_), (std::vector<AccountID>{a_, b_, c_}));
}

TEST_F(TrustGraphTest, ExhaustedCapacityRemovesEdge) {
    ledger::TrustLine* line = state_.trustline(a_, b_, usd_);
    ASSERT_TRUE(line->transfer_from(a_, IouAmount::from_double(100.0)));
    const TrustGraph graph(state_);
    EXPECT_TRUE(path(graph, a_, b_, usd_).empty());
    // The reverse direction gained capacity (repayment).
    EXPECT_EQ(path(graph, b_, a_, usd_), (std::vector<AccountID>{b_, a_}));
}

TEST_F(TrustGraphTest, InNeighborsMirrorOutNeighbors) {
    // a has two out-neighbours (b, c) and d one line, to b, so after a's
    // side the search expands d's smaller side: the meeting at b must
    // come from d's in-neighbours, which need capacity from b to d.
    state_.set_trust(c_, a_, usd_, IouAmount::from_double(100.0));
    const AccountID d = add("d");
    // b trusts d: that line carries value from d to b only.
    state_.set_trust(b_, d, usd_, IouAmount::from_double(100.0));
    EXPECT_TRUE(path(TrustGraph(state_), a_, d, usd_).empty());

    // d trusts b: now b can send to d.
    state_.set_trust(d, b_, usd_, IouAmount::from_double(100.0));
    EXPECT_EQ(path(TrustGraph(state_), a_, d, usd_),
              (std::vector<AccountID>{a_, b_, d}));
}

}  // namespace
}  // namespace xrpl::paths
