// Clone semantics of LedgerState, pinned on a generated population.
//
// A clone presents lines_of() in the iteration order of the line-key
// map, not in creation order, and the pinned goldens (history
// fingerprint, Table II, Fig 6) depend on that order (ROADMAP item 1).
// These digests pin it for the original, a clone, a clone of the
// clone and a clone of a modified clone, so a change to how the
// ledger stores lines cannot move it silently. Further digests pin
// what every topology accessor answers on grown ledgers (a clone, a
// clone of it, an original), whatever holds their new accounts and
// lines. The other cases pin independence: whatever one ledger
// changes — topology or balances — no other ledger sees.
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

/// SHA-256 over what the topology accessors answer, accounts in
/// dense-index order: topology_generation(), the counts, the currency
/// numbering (currency_by_index() and currency_index()), and for each
/// account its account() root and ripple_flags() entry, then each line
/// of its lines_of() list with the line's index, its line_ends() entry
/// and whether trustline() finds that same line by key.
std::string topology_digest(const LedgerState& ledger) {
    util::Sha256 hasher;
    const auto put = [&](std::uint64_t value) {
        hasher.update(std::to_string(value) + ",");
    };
    put(ledger.topology_generation());
    put(ledger.account_count());
    put(ledger.trustline_count());
    put(ledger.currency_count());
    for (std::uint32_t c = 0; c < ledger.currency_count(); ++c) {
        const Currency currency = ledger.currency_by_index(c);
        hasher.update(std::string_view(currency.code.data(), 3));
        put(ledger.currency_index(currency).value_or(~0u));
    }
    const auto flags = ledger.ripple_flags();
    const auto ends = ledger.line_ends();
    put(flags.size());
    put(ends.size());
    for (std::uint32_t i = 0; i < ledger.account_count(); ++i) {
        const AccountID& id = ledger.account_by_index(i);
        const AccountRoot* root = ledger.account(id);
        hasher.update(id.bytes);
        put(root == nullptr ? ~0u : root->index);
        if (root != nullptr) {
            put(root->is_gateway ? 1 : 0);
            put(root->allows_rippling ? 1 : 0);
            put(static_cast<std::uint64_t>(root->balance.drops));
            put(root->sequence);
        }
        put(flags[i]);
        for (const TrustLine* line : ledger.lines_of(id)) {
            const auto index =
                static_cast<std::uint64_t>(line - ledger.lines().data());
            const TrustLineKey& key = line->key();
            put(index);
            put(ends[index].low);
            put(ends[index].high);
            put(ends[index].currency);
            put(ledger.trustline(key.low, key.high, key.currency) == line ? 1 : 0);
        }
    }
    return util::hex_encode(hasher.finish());
}

/// Two new accounts (one rippling) and four new lines on `ledger`: new
/// account to a gateway and to a hub in an existing currency, between
/// the two new accounts, and between two existing accounts in a
/// currency no line used before; plus a limit update on an existing
/// line, which is not a topology change.
void grow(LedgerState& ledger, const datagen::Population& population) {
    const AccountID fresh = AccountID::from_seed("clone-test:grow:fresh");
    const AccountID relay = AccountID::from_seed("clone-test:grow:relay");
    ASSERT_TRUE(ledger.create_account(fresh, XrpAmount::from_xrp(100)));
    ASSERT_TRUE(ledger.create_account(relay, XrpAmount::from_xrp(50), false, true));
    const AccountID& gateway = population.gateways.front();
    const Currency currency = population.gateway_currencies.front().front();
    ledger.set_trust(fresh, gateway, currency, IouAmount::from_double(500));
    ledger.set_trust(fresh, population.hubs.front(), currency,
                     IouAmount::from_double(50));
    ledger.set_trust(relay, fresh, currency, IouAmount::from_double(5));
    const Currency unused = Currency::from_code("ZZZ");
    ASSERT_FALSE(ledger.currency_index(unused).has_value());
    ledger.set_trust(population.users.front(), population.hubs.back(), unused,
                     IouAmount::from_double(7));
    ledger.set_trust(gateway, fresh, currency, IouAmount::from_double(9));
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
// topology_digest() after grow(), computed with the copy-on-write
// topology (each grown ledger copied its topology and changed the copy).
constexpr const char* kGrownCloneTopology =
    "c0fe0d6d9e220fc483297bfa801e3a93b017f6651521932ff71f0bc8809fc8cb";
constexpr const char* kCloneOfGrownCloneTopology =
    "1193cdf35ce4f6a81593078ee5a66bb226dac019a9498334419e9d79e518a2cd";
constexpr const char* kGrownOriginalTopology =
    "5ec8bd86bfb48bd9372612feeced152a37ea15ce2f95bfde5e6447c3bba55700";

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

TEST_F(LedgerCloneTest, GrownLedgersAnswerEveryTopologyAccessorAsPinned) {
    const std::string untouched = topology_digest(original());
    LedgerState grown = original().clone();
    const LedgerState sibling = original().clone();
    const std::string sibling_before = topology_digest(sibling);
    grow(grown, population());
    EXPECT_EQ(grown.topology_generation(), original().topology_generation() + 6);
    EXPECT_EQ(topology_digest(grown), kGrownCloneTopology);
    const LedgerState grown_clone = grown.clone();
    EXPECT_EQ(topology_digest(grown_clone), kCloneOfGrownCloneTopology);
    EXPECT_EQ(order_digest(grown_clone), order_digest(grown_clone.clone()));
    EXPECT_EQ(topology_digest(original()), untouched);
    EXPECT_EQ(topology_digest(sibling), sibling_before);

    // An original built by inserts, grown after a clone froze its
    // topology; the clone stays as it was.
    datagen::PopulationSnapshot built =
        datagen::generate_population_only(small_config());
    const LedgerState frozen_by = built.ledger.clone();
    const std::string clone_before = topology_digest(frozen_by);
    grow(built.ledger, population());
    EXPECT_EQ(topology_digest(built.ledger), kGrownOriginalTopology);
    EXPECT_EQ(topology_digest(frozen_by), clone_before);
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
