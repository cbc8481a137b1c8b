#include "core/clustering.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/ig_study.hpp"
#include "util/rng.hpp"

namespace xrpl::core {
namespace {

using ledger::AccountID;
using ledger::Currency;
using ledger::IouAmount;
using ledger::TxRecord;

AccountID acc(const std::string& seed) { return AccountID::from_seed(seed); }

TEST(AccountClustersTest, UnlinkedAccountsAreTheirOwnCluster) {
    const AccountClusters clusters;
    EXPECT_EQ(clusters.representative(acc("x")), acc("x"));
    EXPECT_FALSE(clusters.same_cluster(acc("x"), acc("y")));
    EXPECT_EQ(clusters.cluster_count(), 0u);
}

TEST(AccountClustersTest, LinkMergesTransitively) {
    AccountClusters clusters;
    clusters.link(acc("a"), acc("b"));
    clusters.link(acc("b"), acc("c"));
    clusters.link(acc("x"), acc("y"));
    EXPECT_TRUE(clusters.same_cluster(acc("a"), acc("c")));
    EXPECT_TRUE(clusters.same_cluster(acc("x"), acc("y")));
    EXPECT_FALSE(clusters.same_cluster(acc("a"), acc("x")));
    EXPECT_EQ(clusters.cluster_count(), 2u);
    EXPECT_EQ(clusters.tracked_accounts(), 5u);
}

TEST(AccountClustersTest, SelfAndRepeatedLinksAreIdempotent) {
    AccountClusters clusters;
    clusters.link(acc("a"), acc("a"));
    clusters.link(acc("a"), acc("b"));
    clusters.link(acc("a"), acc("b"));
    clusters.link(acc("b"), acc("a"));
    EXPECT_EQ(clusters.cluster_count(), 1u);
}

TEST(AccountClustersTest, ClustersListsMembers) {
    AccountClusters clusters;
    clusters.link(acc("a"), acc("b"));
    clusters.link(acc("b"), acc("c"));
    clusters.link(acc("solo"), acc("solo"));
    const auto groups = clusters.clusters(2);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].size(), 3u);
}

TEST(AccountClustersTest, LargeRandomUnionsStayConsistent) {
    // Property: after linking a random spanning structure over k
    // groups, representatives agree exactly with group membership.
    util::Rng rng(17);
    AccountClusters clusters;
    const int groups = 20;
    const int members = 40;
    for (int g = 0; g < groups; ++g) {
        for (int m = 1; m < members; ++m) {
            // Link each member to a random earlier member of its group.
            const int to = static_cast<int>(
                rng.uniform_u64(0, static_cast<std::uint64_t>(m - 1)));
            clusters.link(acc("g" + std::to_string(g) + "-" + std::to_string(m)),
                          acc("g" + std::to_string(g) + "-" + std::to_string(to)));
        }
    }
    EXPECT_EQ(clusters.cluster_count(), static_cast<std::size_t>(groups));
    for (int g = 0; g < groups; ++g) {
        const AccountID root =
            clusters.representative(acc("g" + std::to_string(g) + "-0"));
        for (int m = 0; m < members; ++m) {
            EXPECT_EQ(clusters.representative(
                          acc("g" + std::to_string(g) + "-" + std::to_string(m))),
                      root);
        }
    }
}

TEST(ClusterByActivationTest, SharedFunderMergesWallets) {
    // The paper's observation: rp2PaY and r42Ccn were both activated
    // by ~akhavr — activation clustering puts them in one entity.
    const std::vector<ActivationEdge> edges = {
        {acc("~akhavr"), acc("rp2PaY")},
        {acc("~akhavr"), acc("r42Ccn")},
        {acc("someone-else"), acc("unrelated")},
    };
    const AccountClusters clusters = cluster_by_activation(edges);
    EXPECT_TRUE(clusters.same_cluster(acc("rp2PaY"), acc("r42Ccn")));
    EXPECT_TRUE(clusters.same_cluster(acc("rp2PaY"), acc("~akhavr")));
    EXPECT_FALSE(clusters.same_cluster(acc("rp2PaY"), acc("unrelated")));
}

TxRecord record(const std::string& sender, double amount, std::int64_t t) {
    TxRecord r;
    r.sender = acc(sender);
    r.destination = acc("shop");
    r.currency = Currency::from_code("USD");
    r.amount = IouAmount::from_double(amount);
    r.time = util::RippleTime{t};
    return r;
}

TEST(ClusteredIgTest, IdentityClusteringEqualsPlainIg) {
    std::vector<TxRecord> records;
    util::Rng rng(3);
    for (int i = 0; i < 2'000; ++i) {
        records.push_back(record("u" + std::to_string(rng.uniform_u64(0, 50)),
                                 10.0 * static_cast<double>(rng.uniform_u64(1, 9)),
                                 static_cast<std::int64_t>(rng.uniform_u64(0, 3'000))));
    }
    const AccountClusters empty;
    const ledger::PaymentColumns payments =
        ledger::PaymentColumns::from_records(records);
    const Deanonymizer deanonymizer(payments);
    for (const auto& config : fig3_configurations()) {
        EXPECT_EQ(clustered_information_gain(payments.view(), config, empty)
                      .uniquely_identified,
                  deanonymizer.information_gain(config).uniquely_identified)
            << config.label();
    }
}

TEST(ClusteredIgTest, ClusteringRecoversIdentificationAcrossWallets) {
    // Two wallets of the same entity collide on a fingerprint: at the
    // address level the bucket is ambiguous, at the entity level it
    // identifies.
    const std::vector<TxRecord> records = {
        record("wallet-1", 40.0, 100),
        record("wallet-2", 40.0, 100),  // same fingerprint, other wallet
    };
    const ledger::PaymentColumns payments =
        ledger::PaymentColumns::from_records(records);
    const Deanonymizer deanonymizer(payments);
    EXPECT_DOUBLE_EQ(
        deanonymizer.information_gain(full_resolution()).information_gain(), 0.0);

    AccountClusters clusters;
    clusters.link(acc("wallet-1"), acc("wallet-2"));
    EXPECT_DOUBLE_EQ(
        clustered_information_gain(payments.view(), full_resolution(), clusters)
            .information_gain(),
        1.0);
}

TEST(ClusteredIgTest, ClusteringNeverReducesIdentification) {
    util::Rng rng(5);
    std::vector<TxRecord> records;
    for (int i = 0; i < 3'000; ++i) {
        records.push_back(record("w" + std::to_string(rng.uniform_u64(0, 99)),
                                 10.0 * static_cast<double>(rng.uniform_u64(1, 5)),
                                 static_cast<std::int64_t>(rng.uniform_u64(0, 1'000))));
    }
    // Random pairing of wallets into entities.
    AccountClusters clusters;
    for (int w = 0; w < 99; w += 2) {
        clusters.link(acc("w" + std::to_string(w)),
                      acc("w" + std::to_string(w + 1)));
    }
    const ledger::PaymentColumns payments =
        ledger::PaymentColumns::from_records(records);
    const Deanonymizer deanonymizer(payments);
    for (const auto& config : fig3_configurations()) {
        EXPECT_GE(clustered_information_gain(payments.view(), config, clusters)
                      .uniquely_identified,
                  deanonymizer.information_gain(config).uniquely_identified)
            << config.label();
    }
}

}  // namespace
}  // namespace xrpl::core
