// GraphIndex — the currency-partitioned CSR adjacency: build shape,
// lines_of() order parity, lazy generation-driven rebuild, and the
// live-capacity contract (balance mutations never invalidate).
#include "paths/graph_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "datagen/config.hpp"
#include "datagen/history.hpp"
#include "paths/trust_graph.hpp"

namespace xrpl::paths {
namespace {

using ledger::AccountID;
using ledger::Currency;
using ledger::IouAmount;
using ledger::LedgerState;

const Currency kUsd = Currency::from_code("USD");
const Currency kEur = Currency::from_code("EUR");
const Currency kBtc = Currency::from_code("BTC");

class GraphIndexTest : public ::testing::Test {
protected:
    AccountID add(const std::string& seed, bool ripples = true) {
        const AccountID id = AccountID::from_seed(seed);
        state_.create_account(id, ledger::XrpAmount::from_xrp(10.0), false,
                              ripples);
        return id;
    }

    /// Allow value to flow from -> to up to `limit` (receiver trusts).
    ledger::TrustLine& edge(const AccountID& from, const AccountID& to,
                            Currency c, double limit) {
        return state_.set_trust(to, from, c, IouAmount::from_double(limit));
    }

    [[nodiscard]] std::uint32_t index_of(const AccountID& id) const {
        return state_.account(id)->index;
    }

    LedgerState state_;
};

TEST_F(GraphIndexTest, EmptyLedgerBuildsEmptyIndex) {
    GraphIndex index;
    EXPECT_FALSE(index.built());
    index.build(state_);
    EXPECT_TRUE(index.built());
    EXPECT_EQ(index.partition_count(), 0u);
    EXPECT_EQ(index.edge_count(), 0u);
    EXPECT_EQ(index.partition(kUsd), nullptr);
}

TEST_F(GraphIndexTest, OnePartitionPerCurrency) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    const AccountID c = add("c");
    edge(a, b, kUsd, 10.0);
    edge(b, c, kEur, 10.0);
    GraphIndex index;
    index.build(state_);
    EXPECT_EQ(index.partition_count(), 2u);
    EXPECT_NE(index.partition(kUsd), nullptr);
    EXPECT_NE(index.partition(kEur), nullptr);
    EXPECT_EQ(index.partition(kBtc), nullptr);
}

TEST_F(GraphIndexTest, OneLineYieldsOneEdgePerEndpoint) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    edge(a, b, kUsd, 25.0);
    GraphIndex index;
    index.build(state_);
    ASSERT_EQ(index.edge_count(), 2u);

    const GraphIndex::Partition* part = index.partition(kUsd);
    ASSERT_NE(part, nullptr);
    const auto from_a = part->edges_of(index_of(a));
    const auto from_b = part->edges_of(index_of(b));
    ASSERT_EQ(from_a.size(), 1u);
    ASSERT_EQ(from_b.size(), 1u);
    EXPECT_EQ(from_a[0].peer, index_of(b));
    EXPECT_EQ(from_b[0].peer, index_of(a));
    // Both records point at the same underlying trust line...
    EXPECT_EQ(from_a[0].line, from_b[0].line);
    // ...with opposite direction bits.
    EXPECT_NE(from_a[0].node_is_low, from_b[0].node_is_low);
}

TEST_F(GraphIndexTest, DirectionBitMatchesCapacityFrom) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    ledger::TrustLine& line = edge(a, b, kUsd, 40.0);
    // Make the two directions distinguishable: a -> b has 30 left,
    // b -> a has 10 (the transferred debt can flow back).
    ASSERT_TRUE(line.transfer_from(a, IouAmount::from_double(10.0)));

    GraphIndex index;
    index.build(state_);
    const GraphIndex::Partition* part = index.partition(kUsd);
    ASSERT_NE(part, nullptr);
    for (const AccountID& node : {a, b}) {
        const auto edges = part->edges_of(index_of(node));
        ASSERT_EQ(edges.size(), 1u);
        // Out-capacity through the direction bit == the scan's
        // capacity_from(node), byte for byte.
        const ledger::TrustLine& stored = state_.lines()[edges[0].line];
        EXPECT_EQ(stored.directed_capacity(edges[0].node_is_low).to_double(),
                  stored.capacity_from(node).to_double());
    }
}

TEST_F(GraphIndexTest, PerNodeOrderMatchesLinesOfScan) {
    // A hub with several USD lines plus EUR noise interleaved: the CSR
    // span must list USD peers in exactly the order the legacy scan
    // (lines_of insertion order, currency-filtered) enumerates them.
    const AccountID hub = add("hub");
    std::vector<AccountID> peers;
    for (int i = 0; i < 6; ++i) {
        peers.push_back(add("peer" + std::to_string(i)));
        edge(hub, peers.back(), kUsd, 10.0 + i);
        if (i % 2 == 0) edge(peers.back(), hub, kEur, 5.0);
    }

    const TrustGraph graph(state_, /*use_index=*/false);
    std::vector<std::uint32_t> scan_order;
    graph.for_each_neighbor(hub, kUsd,
                            [&](const AccountID& peer, const ledger::TrustLine*) {
                                scan_order.push_back(index_of(peer));
                            });

    GraphIndex index;
    index.build(state_);
    const GraphIndex::Partition* part = index.partition(kUsd);
    ASSERT_NE(part, nullptr);
    std::vector<std::uint32_t> csr_order;
    for (const GraphIndex::Edge& e : part->edges_of(index_of(hub))) {
        csr_order.push_back(e.peer);
    }
    EXPECT_EQ(csr_order, scan_order);
}

/// Every node's span in every partition of `index` is its
/// currency-filtered lines_of() walk, record for record, and the row
/// pointers start at 0 and end at the edge count.
void expect_partitions_match_lines_of(const LedgerState& ledger,
                                      const GraphIndex& index) {
    const auto account_count = static_cast<std::uint32_t>(ledger.account_count());
    std::set<Currency> currencies;
    for (std::uint32_t i = 0; i < account_count; ++i) {
        for (const ledger::TrustLine* line :
             ledger.lines_of(ledger.account_by_index(i))) {
            currencies.insert(line->key().currency);
        }
    }
    ASSERT_GT(currencies.size(), 2u);
    ASSERT_EQ(index.partition_count(), currencies.size());
    EXPECT_EQ(index.edge_count(), 2 * ledger.trustline_count());

    std::size_t mismatched_nodes = 0;
    for (const Currency currency : currencies) {
        const GraphIndex::Partition* part = index.partition(currency);
        ASSERT_NE(part, nullptr) << currency.to_string();
        ASSERT_EQ(part->offsets.size(), account_count + 1u);
        EXPECT_EQ(part->offsets.front(), 0u);
        EXPECT_EQ(part->offsets.back(), part->edges.size());
        ASSERT_TRUE(std::is_sorted(part->offsets.begin(), part->offsets.end()));

        for (std::uint32_t i = 0; i < account_count; ++i) {
            const AccountID& node = ledger.account_by_index(i);
            std::vector<GraphIndex::Edge> expected;
            for (const ledger::TrustLine* line : ledger.lines_of(node)) {
                if (!(line->key().currency == currency)) continue;
                const ledger::AccountRoot* peer =
                    ledger.account(line->peer_of(node));
                ASSERT_NE(peer, nullptr);
                const auto line_index =
                    static_cast<std::uint32_t>(line - ledger.lines().data());
                expected.push_back(GraphIndex::Edge{peer->index, line_index,
                                                    node == line->key().low,
                                                    peer->allows_rippling});
            }
            const auto span = part->edges_of(i);
            const bool same = std::equal(
                span.begin(), span.end(), expected.begin(), expected.end(),
                [](const GraphIndex::Edge& x, const GraphIndex::Edge& y) {
                    return x.peer == y.peer && x.line == y.line &&
                           x.node_is_low == y.node_is_low &&
                           x.peer_ripples == y.peer_ripples;
                });
            if (!same) ++mismatched_nodes;
        }
    }
    EXPECT_EQ(mismatched_nodes, 0u);
}

TEST_F(GraphIndexTest, EveryPartitionMatchesLinesOfOnAGeneratedPopulation) {
    // A generated population has tens of currencies and gateways with
    // thousands of lines. The index must match lines_of() on it, on a
    // clone (whose adjacency clone() refills from the lines' recorded
    // indices), and on the clone after an account and a line in a
    // currency that had none force a rebuild with a new partition.
    datagen::GeneratorConfig config;
    config.seed = 20130101;
    config.num_users = 500;
    config.num_market_makers = 40;
    config.num_merchants = 100;
    config.num_hubs = 20;
    const datagen::PopulationSnapshot snapshot =
        datagen::generate_population_only(config);

    GraphIndex index;
    index.build(snapshot.ledger);
    {
        SCOPED_TRACE("original");
        expect_partitions_match_lines_of(snapshot.ledger, index);
    }

    LedgerState copy = snapshot.ledger.clone();
    GraphIndex copy_index;
    ASSERT_TRUE(copy_index.ensure(copy));
    {
        SCOPED_TRACE("clone");
        expect_partitions_match_lines_of(copy, copy_index);
    }

    const Currency fresh = Currency::from_code("ZZZ");
    ASSERT_FALSE(copy.currency_index(fresh).has_value());
    const AccountID newcomer = AccountID::from_seed("graph-index:newcomer");
    ASSERT_TRUE(copy.create_account(newcomer, ledger::XrpAmount::from_xrp(10.0)));
    copy.set_trust(newcomer, copy.account_by_index(0), fresh,
                   IouAmount::from_double(100.0));
    const std::size_t partitions_before = copy_index.partition_count();
    ASSERT_TRUE(copy_index.ensure(copy));
    EXPECT_EQ(copy_index.partition_count(), partitions_before + 1);
    ASSERT_NE(copy_index.partition(fresh), nullptr);
    {
        SCOPED_TRACE("clone after a new currency");
        expect_partitions_match_lines_of(copy, copy_index);
    }
}

TEST_F(GraphIndexTest, RipplingFlagCachedPerEdge) {
    const AccountID a = add("a");
    const AccountID locked = add("locked", /*ripples=*/false);
    edge(a, locked, kUsd, 10.0);
    GraphIndex index;
    index.build(state_);
    const GraphIndex::Partition* part = index.partition(kUsd);
    ASSERT_NE(part, nullptr);
    const auto from_a = part->edges_of(index_of(a));
    const auto from_locked = part->edges_of(index_of(locked));
    ASSERT_EQ(from_a.size(), 1u);
    ASSERT_EQ(from_locked.size(), 1u);
    EXPECT_FALSE(from_a[0].peer_ripples);    // peer is `locked`
    EXPECT_TRUE(from_locked[0].peer_ripples);  // peer is `a`
}

TEST_F(GraphIndexTest, EnsureIsLazyUntilTopologyMoves) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    ledger::TrustLine& line = edge(a, b, kUsd, 50.0);

    GraphIndex index;
    index.ensure(state_);
    ASSERT_TRUE(index.built());
    const std::uint64_t gen = index.built_generation();

    // Balance mutation: NOT a topology change — no rebuild.
    ASSERT_TRUE(line.transfer_from(a, IouAmount::from_double(5.0)));
    index.ensure(state_);
    EXPECT_EQ(index.built_generation(), gen);
    EXPECT_EQ(index.edge_count(), 2u);

    // Limit update on an existing line: also not topology.
    state_.set_trust(b, a, kUsd, IouAmount::from_double(75.0));
    index.ensure(state_);
    EXPECT_EQ(index.built_generation(), gen);

    // A NEW line is topology: ensure() must rebuild and see it.
    const AccountID c = add("c");
    edge(b, c, kUsd, 10.0);
    index.ensure(state_);
    EXPECT_GT(index.built_generation(), gen);
    EXPECT_EQ(index.edge_count(), 4u);
}

TEST_F(GraphIndexTest, CapacityReadLiveThroughStoredLineIndex) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    ledger::TrustLine& line = edge(a, b, kUsd, 100.0);
    GraphIndex index;
    index.build(state_);
    const GraphIndex::Partition* part = index.partition(kUsd);
    ASSERT_NE(part, nullptr);
    const auto edges = part->edges_of(index_of(a));
    ASSERT_EQ(edges.size(), 1u);
    const auto capacity = [&] {
        return state_.lines()[edges[0].line]
            .directed_capacity(edges[0].node_is_low)
            .to_double();
    };
    EXPECT_NEAR(capacity(), 100.0, 1e-9);
    // Mutate the balance after the build: the stale index must still
    // see the new capacity (it never copied the number).
    ASSERT_TRUE(line.transfer_from(a, IouAmount::from_double(60.0)));
    EXPECT_NEAR(capacity(), 40.0, 1e-9);
}

TEST_F(GraphIndexTest, CloneRebuildsItsOwnIndex) {
    // A TrustGraph over a clone must not serve spans built against the
    // original's account indexing; the clone carries the generation,
    // and each graph owns its own index instance.
    const AccountID a = add("a");
    const AccountID b = add("b");
    edge(a, b, kUsd, 10.0);
    const LedgerState copy = state_.clone();
    EXPECT_EQ(copy.topology_generation(), state_.topology_generation());

    const TrustGraph graph(copy, /*use_index=*/true);
    const GraphIndex& index = graph.index();
    EXPECT_TRUE(index.built());
    EXPECT_EQ(index.edge_count(), 2u);
}

TEST_F(GraphIndexTest, ExclusionStampsAreEpochScoped) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    edge(a, b, kUsd, 10.0);
    TrustGraph graph(state_, /*use_index=*/true);
    EXPECT_FALSE(graph.is_excluded_index(index_of(b)));
    graph.exclude(b);
    EXPECT_TRUE(graph.is_excluded_index(index_of(b)));
    EXPECT_FALSE(graph.is_excluded_index(index_of(a)));
    graph.clear_exclusions();
    EXPECT_FALSE(graph.is_excluded_index(index_of(b)));
    // Re-excluding after a clear works in the new epoch.
    graph.exclude(a);
    EXPECT_TRUE(graph.is_excluded_index(index_of(a)));
    EXPECT_FALSE(graph.is_excluded_index(index_of(b)));
    // Out-of-range probes (accounts created after the last exclude)
    // are simply not excluded.
    EXPECT_FALSE(graph.is_excluded_index(9999u));
}

}  // namespace
}  // namespace xrpl::paths
