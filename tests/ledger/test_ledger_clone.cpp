// Clone semantics of LedgerState, pinned on a generated population.
//
// A clone presents lines_of() in the iteration order of the line-key
// map, not in creation order, and the pinned goldens (history
// fingerprint, Table II, Fig 6) depend on that order (ROADMAP item 1).
// These digests pin it for the original, a clone, a clone of the
// clone and a clone of a modified clone, so a change to how the
// ledger stores lines cannot move it silently. The other cases pin
// independence: whatever one ledger changes — topology or balances —
// no other ledger sees.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datagen/history.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "ledger/ledger.hpp"
#include "util/hex.hpp"
#include "util/sha256.hpp"

namespace xrpl::ledger {
namespace {

datagen::GeneratorConfig small_config() {
    datagen::GeneratorConfig config;
    config.seed = 20130101;
    config.num_users = 300;
    config.num_gateways = 8;
    config.num_market_makers = 10;
    config.num_merchants = 40;
    config.num_hubs = 4;
    return config;
}

/// SHA-256 over every account's lines_of() key sequence, accounts in
/// dense-index order, each list prefixed by its length.
std::string order_digest(const LedgerState& ledger) {
    util::Sha256 hasher;
    for (std::uint32_t i = 0; i < ledger.account_count(); ++i) {
        const auto& lines = ledger.lines_of(ledger.account_by_index(i));
        hasher.update(std::to_string(lines.size()) + ":");
        for (const TrustLine* line : lines) {
            const TrustLineKey& key = line->key();
            hasher.update(key.low.bytes);
            hasher.update(key.high.bytes);
            hasher.update(std::string_view(key.currency.code.data(), 3));
        }
    }
    return util::hex_encode(hasher.finish());
}

/// The keys of `account`'s lines, in lines_of() order.
std::vector<TrustLineKey> keys_of(const LedgerState& ledger, const AccountID& account) {
    std::vector<TrustLineKey> keys;
    for (const TrustLine* line : ledger.lines_of(account)) keys.push_back(line->key());
    return keys;
}

class LedgerCloneTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        snapshot_ = new datagen::PopulationSnapshot(
            datagen::generate_population_only(small_config()));
    }
    static void TearDownTestSuite() {
        delete snapshot_;
        snapshot_ = nullptr;
    }

    [[nodiscard]] static const LedgerState& original() { return snapshot_->ledger; }
    [[nodiscard]] static const datagen::Population& population() {
        return snapshot_->population;
    }

    static datagen::PopulationSnapshot* snapshot_;
};

datagen::PopulationSnapshot* LedgerCloneTest::snapshot_ = nullptr;

// Digests computed with the earlier node-based line store
// (std::unordered_map<TrustLineKey, TrustLine>), so they pin its order.
constexpr const char* kOriginalOrder =
    "ef4603b4e1deee4ab73d708c2906d0e7f73ddda61373c4fcaa53855581a0b881";
constexpr const char* kCloneOrder =
    "7dbfe7283d423a80b3a712a747aa5601bdd5234d09f31e054a797ca265b9b6c8";
constexpr const char* kModifiedCloneOrder =
    "306b72fcbb45e5824e3a4cb3b2e33cfdf649596386ac1f451690a71f3bf77648";

TEST_F(LedgerCloneTest, PopulationIsLargeEnoughToShowTheOrder) {
    EXPECT_GT(original().account_count(), 300u);
    EXPECT_GT(original().trustline_count(), 1'000u);
}

TEST_F(LedgerCloneTest, CloneOrderIsPinned) {
    const LedgerState clone = original().clone();
    const LedgerState clone_of_clone = clone.clone();
    EXPECT_EQ(order_digest(original()), kOriginalOrder);
    EXPECT_EQ(order_digest(clone), kCloneOrder);
    // A clone that changed no topology hands its order on unchanged.
    EXPECT_EQ(order_digest(clone_of_clone), kCloneOrder);
    EXPECT_NE(order_digest(original()), order_digest(clone));
}

TEST_F(LedgerCloneTest, CloneOfAModifiedCloneUsesTheModifiedMapOrder) {
    LedgerState modified = original().clone();
    const AccountID fresh = AccountID::from_seed("clone-test:fresh");
    ASSERT_TRUE(modified.create_account(fresh, XrpAmount::from_xrp(100)));
    const AccountID& gateway = population().gateways.front();
    const Currency currency = population().gateway_currencies.front().front();
    modified.set_trust(fresh, gateway, currency, IouAmount::from_double(500));
    modified.set_trust(fresh, population().hubs.front(), currency,
                       IouAmount::from_double(50));
    // The modified clone lists its new lines last, in creation order.
    const auto gateway_keys = keys_of(modified, gateway);
    ASSERT_FALSE(gateway_keys.empty());
    EXPECT_EQ(gateway_keys.back(), TrustLineKey::make(fresh, gateway, currency));

    const LedgerState again = modified.clone();
    EXPECT_EQ(order_digest(again), kModifiedCloneOrder);
    EXPECT_EQ(order_digest(again.clone()), kModifiedCloneOrder);
}

TEST_F(LedgerCloneTest, TopologyChangeOnACloneStaysOnThatClone) {
    LedgerState changed = original().clone();
    const LedgerState sibling = original().clone();
    const std::string original_order = order_digest(original());
    const std::string sibling_order = order_digest(sibling);
    const std::uint64_t generation = original().topology_generation();
    const std::size_t accounts = original().account_count();
    const std::size_t lines = original().trustline_count();

    const AccountID fresh = AccountID::from_seed("clone-test:newcomer");
    const AccountID& gateway = population().gateways.back();
    const Currency currency = population().gateway_currencies.back().front();
    ASSERT_TRUE(changed.create_account(fresh, XrpAmount::from_xrp(100)));
    changed.set_trust(fresh, gateway, currency, IouAmount::from_double(100));

    EXPECT_EQ(changed.account_count(), accounts + 1);
    EXPECT_EQ(changed.trustline_count(), lines + 1);
    EXPECT_EQ(changed.topology_generation(), generation + 2);
    EXPECT_NE(changed.trustline(fresh, gateway, currency), nullptr);
    EXPECT_EQ(changed.lines_of(fresh).size(), 1u);

    for (const LedgerState* other : {&original(), &sibling}) {
        EXPECT_EQ(other->account_count(), accounts);
        EXPECT_EQ(other->trustline_count(), lines);
        EXPECT_EQ(other->topology_generation(), generation);
        EXPECT_EQ(other->account(fresh), nullptr);
        EXPECT_EQ(other->trustline(fresh, gateway, currency), nullptr);
        EXPECT_TRUE(other->lines_of(fresh).empty());
    }
    EXPECT_EQ(order_digest(original()), original_order);
    EXPECT_EQ(order_digest(sibling), sibling_order);
}

TEST_F(LedgerCloneTest, TopologyChangeOnTheOriginalLeavesClonesAlone) {
    // An original built by inserts, as datagen builds it.
    datagen::PopulationSnapshot built = datagen::generate_population_only(small_config());
    LedgerState& base = built.ledger;
    const LedgerState clone = base.clone();
    const std::string clone_order = order_digest(clone);
    const std::uint64_t generation = clone.topology_generation();
    const std::size_t lines = clone.trustline_count();

    const AccountID fresh = AccountID::from_seed("clone-test:late");
    const AccountID& gateway = population().gateways.front();
    const Currency currency = population().gateway_currencies.front().front();
    ASSERT_TRUE(base.create_account(fresh, XrpAmount::from_xrp(100)));
    base.set_trust(fresh, gateway, currency, IouAmount::from_double(100));
    EXPECT_EQ(base.trustline_count(), lines + 1);
    // The original keeps creation order: its new line comes last.
    EXPECT_EQ(keys_of(base, gateway).back(), TrustLineKey::make(fresh, gateway, currency));

    EXPECT_EQ(clone.trustline_count(), lines);
    EXPECT_EQ(clone.topology_generation(), generation);
    EXPECT_EQ(clone.account(fresh), nullptr);
    EXPECT_EQ(clone.trustline(fresh, gateway, currency), nullptr);
    EXPECT_EQ(order_digest(clone), clone_order);
    EXPECT_EQ(clone_order, kCloneOrder);
}

TEST_F(LedgerCloneTest, BalanceChangesStayPrivate) {
    LedgerState changed = original().clone();
    const LedgerState sibling = original().clone();
    const AccountID& user = population().users.front();
    const TrustLine* held = nullptr;  // a line on which the user holds IOUs
    for (const TrustLine* line : original().lines_of(user)) {
        if (!line->balance_for(user).is_zero() && !line->balance_for(user).is_negative()) {
            held = line;
            break;
        }
    }
    ASSERT_NE(held, nullptr);
    const AccountID gateway = held->peer_of(user);
    const Currency currency = held->key().currency;
    const double before = held->balance_for(user).to_double();
    const std::int64_t drops = original().account(user)->balance.drops;

    TrustLine* line = changed.trustline(user, gateway, currency);
    ASSERT_NE(line, nullptr);
    ASSERT_TRUE(line->transfer_from(user, held->balance_for(user).scaled_by(0.5)));
    ASSERT_TRUE(changed.xrp_payment(user, gateway, XrpAmount::from_xrp(1)));

    EXPECT_NE(changed.trustline(user, gateway, currency)->balance_for(user).to_double(),
              before);
    EXPECT_NE(changed.account(user)->balance.drops, drops);
    for (const LedgerState* other : {&original(), &sibling}) {
        EXPECT_EQ(other->trustline(user, gateway, currency)->balance_for(user).to_double(),
                  before);
        EXPECT_EQ(other->account(user)->balance.drops, drops);
    }
}

TEST_F(LedgerCloneTest, ConcurrentClonesOfOneConstLedgerAgree) {
    // datagen's slices clone one const snapshot on pool workers.
    const exec::ScopedParallelism width(4);
    const LedgerState base = original().clone();
    constexpr std::size_t kClones = 16;
    std::vector<std::string> digests(kClones);
    exec::parallel_for(kClones, 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            const LedgerState copy = base.clone();
            digests[i] = order_digest(copy);
        }
    });
    for (const std::string& digest : digests) EXPECT_EQ(digest, kCloneOrder);
}

}  // namespace
}  // namespace xrpl::ledger
