// GraphIndex — the currency-partitioned CSR adjacency: build shape,
// lines_of() order parity, lazy generation-driven refresh, the
// live-capacity contract (balance mutations never invalidate), and
// SearchIndex's sharing: one build per topology and order across
// clones, a grown clone's lines as tail edges.
#include "paths/graph_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "datagen/config.hpp"
#include "datagen/history.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "paths/path_finder.hpp"
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
        // Out-capacity through the direction bit == the line's
        // capacity_from(node), byte for byte.
        const ledger::TrustLine& stored = state_.lines()[edges[0].line];
        EXPECT_EQ(stored.directed_capacity(edges[0].node_is_low).to_double(),
                  stored.capacity_from(node).to_double());
    }
}

TEST_F(GraphIndexTest, PerNodeOrderMatchesLinesOfScan) {
    // A hub with several USD lines plus EUR noise interleaved: the CSR
    // span must list USD peers in exactly the order lines_of(hub)
    // lists them, currency-filtered.
    const AccountID hub = add("hub");
    std::vector<AccountID> peers;
    for (int i = 0; i < 6; ++i) {
        peers.push_back(add("peer" + std::to_string(i)));
        edge(hub, peers.back(), kUsd, 10.0 + i);
        if (i % 2 == 0) edge(peers.back(), hub, kEur, 5.0);
    }

    std::vector<std::uint32_t> lines_of_order;
    for (const ledger::TrustLine* line : state_.lines_of(hub)) {
        if (line->key().currency == kUsd) {
            lines_of_order.push_back(index_of(line->peer_of(hub)));
        }
    }

    GraphIndex index;
    index.build(state_);
    const GraphIndex::Partition* part = index.partition(kUsd);
    ASSERT_NE(part, nullptr);
    std::vector<std::uint32_t> csr_order;
    for (const GraphIndex::Edge& e : part->edges_of(index_of(hub))) {
        csr_order.push_back(e.peer);
    }
    EXPECT_EQ(csr_order, lines_of_order);
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
    // currency that had none (its tail) give a build a new partition.
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
    copy_index.build(copy);
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
    copy_index.build(copy);
    EXPECT_EQ(copy_index.partition_count(), partitions_before + 1);
    ASSERT_NE(copy_index.partition(fresh), nullptr);
    {
        SCOPED_TRACE("clone after a new currency");
        expect_partitions_match_lines_of(copy, copy_index);
    }
}

/// LedgerCloneTest's population: 300 users, 8 gateways, seed 20130101.
datagen::PopulationSnapshot clone_test_population() {
    datagen::GeneratorConfig config;
    config.seed = 20130101;
    config.num_users = 300;
    config.num_gateways = 8;
    config.num_market_makers = 10;
    config.num_merchants = 40;
    config.num_hubs = 4;
    return datagen::generate_population_only(config);
}

/// `node`'s edges in `currency` as the searches of `graph` walk them.
std::vector<GraphIndex::Edge> searched_edges(const TrustGraph& graph,
                                             Currency currency, std::uint32_t node) {
    const SearchIndex::EdgeSpans spans =
        graph.index().partition(currency).edges_of(node);
    std::vector<GraphIndex::Edge> edges(spans.shared.begin(), spans.shared.end());
    edges.insert(edges.end(), spans.tail.begin(), spans.tail.end());
    return edges;
}

/// The index `graph` searches equals a fresh build of its ledger:
/// partition by partition and account by account, record for record.
void expect_searched_index_is_a_fresh_build(const TrustGraph& graph) {
    const LedgerState& ledger = graph.ledger();
    GraphIndex fresh;
    fresh.build(ledger);
    ASSERT_EQ(fresh.edge_count(), 2 * ledger.trustline_count());
    ASSERT_EQ(fresh.partition_count(), ledger.currency_count());
    std::size_t compared = 0;
    for (std::uint32_t c = 0; c < ledger.currency_count(); ++c) {
        const Currency currency = ledger.currency_by_index(c);
        const GraphIndex::Partition* part = fresh.partition(currency);
        ASSERT_NE(part, nullptr) << currency.to_string();
        for (std::uint32_t i = 0; i < ledger.account_count(); ++i) {
            const auto want = part->edges_of(i);
            const std::vector<GraphIndex::Edge> got =
                searched_edges(graph, currency, i);
            ASSERT_EQ(got.size(), want.size())
                << currency.to_string() << " node " << i;
            for (std::size_t k = 0; k < got.size(); ++k) {
                EXPECT_EQ(got[k].peer, want[k].peer);
                EXPECT_EQ(got[k].line, want[k].line);
                EXPECT_EQ(got[k].node_is_low, want[k].node_is_low);
                EXPECT_EQ(got[k].peer_ripples, want[k].peer_ripples);
            }
            compared += got.size();
        }
    }
    EXPECT_EQ(compared, fresh.edge_count());
}

TEST_F(GraphIndexTest, GrownCloneSearchesWhatAFreshBuildGives) {
    // A clone searched before and after it grows: a new account, a line
    // in an existing currency, and a line in a currency no line used.
    // A sibling clone of the same snapshot searches alongside.
    const datagen::PopulationSnapshot snapshot = clone_test_population();
    LedgerState grown = snapshot.ledger.clone();
    const LedgerState sibling = snapshot.ledger.clone();
    const TrustGraph graph(grown);
    const TrustGraph sibling_graph(sibling);
    {
        SCOPED_TRACE("before");
        expect_searched_index_is_a_fresh_build(graph);
    }

    const AccountID newcomer = AccountID::from_seed("graph-index:grown");
    ASSERT_TRUE(grown.create_account(newcomer, ledger::XrpAmount::from_xrp(10.0),
                                     false, /*allows_rippling=*/true));
    const AccountID& gateway = snapshot.population.gateways.front();
    const Currency held = snapshot.population.gateway_currencies.front().front();
    grown.set_trust(newcomer, gateway, held, IouAmount::from_double(100.0));
    const Currency fresh = Currency::from_code("ZZZ");
    ASSERT_FALSE(grown.currency_index(fresh).has_value());
    grown.set_trust(newcomer, snapshot.population.hubs.front(), fresh,
                    IouAmount::from_double(10.0));
    {
        SCOPED_TRACE("grown");
        expect_searched_index_is_a_fresh_build(graph);
    }
    {
        SCOPED_TRACE("sibling");
        expect_searched_index_is_a_fresh_build(sibling_graph);
    }
}

TEST_F(GraphIndexTest, ClonesOfOneLedgerShareOneBuild) {
    // Eight clones of one const ledger, each searched on a pool worker:
    // the first search builds the index of the snapshot's topology in
    // the clones' order, the others use it, and all find the same paths.
    const datagen::PopulationSnapshot snapshot = clone_test_population();
    const datagen::Population& population = snapshot.population;
    struct Query {
        AccountID from;
        AccountID to;
        Currency currency;
    };
    std::vector<Query> queries;
    for (std::size_t i = 0; i < population.users.size() && queries.size() < 24;
         i += 7) {
        const AccountID& user = population.users[i];
        for (const ledger::TrustLine* line : snapshot.ledger.lines_of(user)) {
            const AccountID& merchant =
                population.merchants[queries.size() % population.merchants.size()];
            queries.push_back(Query{user, merchant, line->key().currency});
            break;
        }
    }
    ASSERT_GE(queries.size(), 8u);

    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    obs::Counter& builds = obs::counter("paths.index.builds");
    const std::uint64_t before = builds.value();
    constexpr std::size_t kClones = 8;
    std::vector<std::vector<std::vector<AccountID>>> found(kClones);
    {
        const exec::ScopedParallelism width(4);
        exec::parallel_for(kClones, 1, [&](std::size_t begin, std::size_t end) {
            for (std::size_t c = begin; c < end; ++c) {
                const LedgerState copy = snapshot.ledger.clone();
                const TrustGraph graph(copy);
                PathFinder finder;
                for (const Query& query : queries) {
                    const auto path =
                        finder.find(graph, query.from, query.to, query.currency);
                    found[c].push_back(path ? path->nodes
                                            : std::vector<AccountID>{});
                }
            }
        });
    }
    const std::uint64_t added = builds.value() - before;
    obs::set_enabled(was_enabled);

    EXPECT_EQ(added, 1u);
    std::size_t paths_found = 0;
    for (const auto& nodes : found.front()) paths_found += nodes.empty() ? 0 : 1;
    EXPECT_GT(paths_found, 0u);
    for (std::size_t c = 1; c < kClones; ++c) EXPECT_EQ(found[c], found.front());
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

    SearchIndex index;
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

TEST_F(GraphIndexTest, ClonesShareTheIndexOfTheirTopologyOrder) {
    // Graphs over two clones search one shared index, also after one
    // clone grows (its new line is a tail edge of its own); the
    // original lists its lines in creation order, another order, so it
    // has an index of its own.
    const AccountID a = add("a");
    const AccountID b = add("b");
    edge(a, b, kUsd, 10.0);
    LedgerState copy = state_.clone();
    const LedgerState twin = state_.clone();
    EXPECT_EQ(copy.topology_generation(), state_.topology_generation());

    const TrustGraph graph(copy);
    const TrustGraph twin_graph(twin);
    const TrustGraph original_graph(state_);
    const GraphIndex& shared = graph.index().shared();
    EXPECT_EQ(&twin_graph.index().shared(), &shared);
    EXPECT_NE(&original_graph.index().shared(), &shared);
    EXPECT_EQ(graph.index().edge_count(), 2u);

    const AccountID c = AccountID::from_seed("c");
    ASSERT_TRUE(copy.create_account(c, ledger::XrpAmount::from_xrp(10.0)));
    copy.set_trust(c, b, kUsd, IouAmount::from_double(5.0));
    EXPECT_EQ(&graph.index().shared(), &shared);
    EXPECT_EQ(graph.index().edge_count(), 4u);
    EXPECT_EQ(twin_graph.index().edge_count(), 2u);
    const SearchIndex::EdgeSpans from_b =
        graph.index().partition(kUsd).edges_of(copy.account(b)->index);
    EXPECT_EQ(from_b.shared.size(), 1u);
    ASSERT_EQ(from_b.tail.size(), 1u);
    EXPECT_EQ(from_b.tail[0].peer, copy.account(c)->index);
}

TEST_F(GraphIndexTest, ExclusionStampsAreEpochScoped) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    edge(a, b, kUsd, 10.0);
    TrustGraph graph(state_);
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
