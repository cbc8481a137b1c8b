#include "paths/payment_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace xrpl::paths {
namespace {

using ledger::AccountID;
using ledger::Amount;
using ledger::Currency;
using ledger::IouAmount;
using ledger::LedgerState;
using ledger::XrpAmount;

const Currency kUsd = Currency::from_code("USD");
const Currency kEur = Currency::from_code("EUR");
const Currency kXrp = Currency::xrp();

class PaymentEngineTest : public ::testing::Test {
protected:
    AccountID add(const std::string& seed, double xrp = 1000.0) {
        const AccountID id = AccountID::from_seed(seed);
        state_.create_account(id, XrpAmount::from_xrp(xrp), false, true);
        return id;
    }

    void edge(const AccountID& from, const AccountID& to, Currency c,
              double limit) {
        state_.set_trust(to, from, c, IouAmount::from_double(limit));
    }

    /// Give `holder` a deposit of `amount` issued by `gateway`.
    void fund(const AccountID& gateway, const AccountID& holder, Currency c,
              double amount, double limit = 1e9) {
        ledger::TrustLine& line =
            state_.set_trust(holder, gateway, c, IouAmount::from_double(limit));
        ASSERT_TRUE(line.transfer_from(gateway, IouAmount::from_double(amount)));
    }

    PaymentRequest request(const AccountID& from, const AccountID& to, Currency c,
                           double amount, Currency source = Currency::xrp()) {
        PaymentRequest r;
        r.sender = from;
        r.destination = to;
        r.deliver = Amount::iou(c, amount);
        r.source_currency = source.is_xrp() && !c.is_xrp() ? c : source;
        return r;
    }

    LedgerState state_;
};

TEST_F(PaymentEngineTest, DirectXrpPaymentMovesBalancesAndBurnsFee) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    PaymentEngine engine(state_);
    PaymentRequest r;
    r.sender = a;
    r.destination = b;
    r.deliver = Amount::xrp(10.0);
    r.source_currency = kXrp;
    const auto result = engine.execute(r);
    EXPECT_TRUE(result.success);
    EXPECT_FALSE(result.cross_currency);
    EXPECT_EQ(result.intermediate_hops, 0u);
    EXPECT_EQ(result.parallel_paths, 1u);
    EXPECT_EQ(state_.account(b)->balance.drops, 1'010'000'000);
    EXPECT_EQ(state_.account(a)->balance.drops, 990'000'000 - 10);
    EXPECT_EQ(state_.burned_fees().drops, 10);
}

TEST_F(PaymentEngineTest, XrpPaymentInsufficientBalanceFailsCleanly) {
    const AccountID a = add("a", 5.0);
    const AccountID b = add("b");
    PaymentEngine engine(state_);
    PaymentRequest r;
    r.sender = a;
    r.destination = b;
    r.deliver = Amount::xrp(10.0);
    r.source_currency = kXrp;
    EXPECT_FALSE(engine.execute(r).success);
    EXPECT_EQ(state_.account(a)->balance.drops, 5'000'000);
    EXPECT_EQ(state_.account(b)->balance.drops, 1'000'000'000);
}

TEST_F(PaymentEngineTest, IouPaymentThroughGateway) {
    const AccountID user = add("user");
    const AccountID gateway = add("gateway");
    const AccountID merchant = add("merchant");
    fund(gateway, user, kUsd, 100.0);
    edge(gateway, merchant, kUsd, 1e6);

    PaymentEngine engine(state_);
    const auto result = engine.execute(request(user, merchant, kUsd, 40.0));
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.intermediate_hops, 1u);
    EXPECT_EQ(result.parallel_paths, 1u);
    ASSERT_EQ(result.intermediaries.size(), 1u);
    EXPECT_EQ(result.intermediaries[0], gateway);

    // Balances rippled: user deposit down, merchant claim up.
    EXPECT_NEAR(state_.trustline(user, gateway, kUsd)
                    ->balance_for(user)
                    .to_double(),
                60.0, 1e-9);
    EXPECT_NEAR(state_.trustline(merchant, gateway, kUsd)
                    ->balance_for(merchant)
                    .to_double(),
                40.0, 1e-9);
}

TEST_F(PaymentEngineTest, IouPaymentSplitsAcrossParallelPaths) {
    const AccountID user = add("user");
    const AccountID g1 = add("g1");
    const AccountID g2 = add("g2");
    const AccountID merchant = add("merchant");
    fund(g1, user, kUsd, 30.0);
    fund(g2, user, kUsd, 30.0);
    edge(g1, merchant, kUsd, 1e6);
    edge(g2, merchant, kUsd, 1e6);

    PaymentEngine engine(state_);
    const auto result = engine.execute(request(user, merchant, kUsd, 50.0));
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.parallel_paths, 2u);
    EXPECT_EQ(result.intermediate_hops, 1u);
    EXPECT_EQ(result.intermediaries.size(), 2u);
}

TEST_F(PaymentEngineTest, InsufficientTotalCapacityRollsBackEverything) {
    const AccountID user = add("user");
    const AccountID g1 = add("g1");
    const AccountID g2 = add("g2");
    const AccountID merchant = add("merchant");
    fund(g1, user, kUsd, 30.0);
    fund(g2, user, kUsd, 30.0);
    edge(g1, merchant, kUsd, 1e6);
    edge(g2, merchant, kUsd, 1e6);

    PaymentEngine engine(state_);
    const auto result = engine.execute(request(user, merchant, kUsd, 100.0));
    EXPECT_FALSE(result.success);
    // All-or-nothing: both deposits untouched.
    EXPECT_NEAR(
        state_.trustline(user, g1, kUsd)->balance_for(user).to_double(), 30.0,
        1e-9);
    EXPECT_NEAR(
        state_.trustline(user, g2, kUsd)->balance_for(user).to_double(), 30.0,
        1e-9);
    EXPECT_TRUE(
        state_.trustline(merchant, g1, kUsd) == nullptr ||
        state_.trustline(merchant, g1, kUsd)->balance_for(merchant).is_zero());
}

TEST_F(PaymentEngineTest, FailedPaymentChargesNoFee) {
    const AccountID user = add("user");
    const AccountID merchant = add("merchant");
    PaymentEngine engine(state_);
    const std::int64_t before = state_.account(user)->balance.drops;
    EXPECT_FALSE(engine.execute(request(user, merchant, kUsd, 10.0)).success);
    EXPECT_EQ(state_.account(user)->balance.drops, before);
}

TEST_F(PaymentEngineTest, CrossCurrencyThroughDirectBook) {
    const AccountID user = add("user");
    const AccountID g_usd = add("g-usd");
    const AccountID g_eur = add("g-eur");
    const AccountID maker = add("maker");
    const AccountID merchant = add("merchant");

    fund(g_usd, user, kUsd, 500.0);
    fund(g_usd, maker, kUsd, 1000.0);   // maker can hold USD
    fund(g_eur, maker, kEur, 1000.0);   // maker has EUR inventory
    edge(g_eur, merchant, kEur, 1e6);

    state_.place_offer(maker, Amount::iou(kUsd, 130.0), Amount::iou(kEur, 100.0));

    PaymentEngine engine(state_);
    const auto result =
        engine.execute(request(user, merchant, kEur, 100.0, kUsd));
    ASSERT_TRUE(result.success);
    EXPECT_TRUE(result.cross_currency);
    EXPECT_TRUE(result.used_order_book);
    EXPECT_GE(result.intermediate_hops, 1u);

    // The maker took 130 USD and shipped 100 EUR.
    EXPECT_NEAR(
        state_.trustline(user, g_usd, kUsd)->balance_for(user).to_double(),
        370.0, 1.0);
    EXPECT_NEAR(state_.trustline(merchant, g_eur, kEur)
                    ->balance_for(merchant)
                    .to_double(),
                100.0, 1e-6);
    // The offer was fully consumed.
    EXPECT_TRUE(state_.book(ledger::BookKey{kUsd, kEur}).empty());
}

TEST_F(PaymentEngineTest, CrossCurrencyFailsWithoutOffers) {
    const AccountID user = add("user");
    const AccountID g_usd = add("g-usd");
    const AccountID g_eur = add("g-eur");
    const AccountID merchant = add("merchant");
    fund(g_usd, user, kUsd, 500.0);
    edge(g_eur, merchant, kEur, 1e6);

    PaymentEngine engine(state_);
    EXPECT_FALSE(engine.execute(request(user, merchant, kEur, 100.0, kUsd)).success);
}

TEST_F(PaymentEngineTest, CrossCurrencyViaXrpAutoBridge) {
    const AccountID user = add("user");
    const AccountID g_usd = add("g-usd");
    const AccountID g_eur = add("g-eur");
    const AccountID maker1 = add("maker1", 1e6);  // sells XRP for USD
    const AccountID maker2 = add("maker2", 1e6);  // sells EUR for XRP
    const AccountID merchant = add("merchant");

    fund(g_usd, user, kUsd, 500.0);
    fund(g_usd, maker1, kUsd, 1000.0);
    fund(g_eur, maker2, kEur, 1000.0);
    edge(g_eur, merchant, kEur, 1e6);

    // No direct USD->EUR book; only the two XRP legs (maker1's XRP
    // depth covers the 13,000 XRP the out-leg needs).
    state_.place_offer(maker1, Amount::iou(kUsd, 150.0),
                       Amount::iou(kXrp, 15'000.0));
    state_.place_offer(maker2, Amount::iou(kXrp, 13'000.0),
                       Amount::iou(kEur, 100.0));

    PaymentEngine engine(state_);
    const auto result =
        engine.execute(request(user, merchant, kEur, 100.0, kUsd));
    ASSERT_TRUE(result.success);
    EXPECT_TRUE(result.used_order_book);
    EXPECT_GE(result.intermediate_hops, 2u);  // both makers on the chain
    EXPECT_NEAR(state_.trustline(merchant, g_eur, kEur)
                    ->balance_for(merchant)
                    .to_double(),
                100.0, 1e-6);
}

TEST_F(PaymentEngineTest, FailedCrossRestoresTheBookInOrder) {
    // Two equal-rate USD->EUR offers. The payment's plan takes all of
    // offer 1, and then the leg from its maker to the merchant fails:
    // maker 1 can take USD but holds no EUR. Rollback must put offer 1
    // back where it was, ahead of offer 2, not behind it.
    const AccountID user = add("user");
    const AccountID g_usd = add("g-usd");
    const AccountID g_eur = add("g-eur");
    const AccountID maker1 = add("maker1");
    const AccountID maker2 = add("maker2");
    const AccountID merchant = add("merchant");
    fund(g_usd, user, kUsd, 500.0);
    edge(g_usd, maker1, kUsd, 1e6);
    edge(g_usd, maker2, kUsd, 1e6);
    fund(g_eur, maker2, kEur, 1000.0);
    edge(g_eur, merchant, kEur, 1e6);
    const ledger::BookKey key{kUsd, kEur};
    ASSERT_EQ(state_.place_offer(maker1, Amount::iou(kUsd, 130.0),
                                 Amount::iou(kEur, 100.0)),
              1u);
    ASSERT_EQ(state_.place_offer(maker2, Amount::iou(kUsd, 130.0),
                                 Amount::iou(kEur, 100.0)),
              2u);
    const std::vector<ledger::Offer> before = state_.book(key);

    PaymentEngine engine(state_);
    EXPECT_FALSE(engine.execute(request(user, merchant, kEur, 100.0, kUsd)).success);

    const std::vector<ledger::Offer>& after = state_.book(key);
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(after[i].id, before[i].id) << "position " << i;
        EXPECT_EQ(after[i].owner, before[i].owner) << "position " << i;
        EXPECT_EQ(after[i].taker_pays.value, before[i].taker_pays.value);
        EXPECT_EQ(after[i].taker_gets.value, before[i].taker_gets.value);
    }
    // The USD the user paid maker 1 came back too.
    EXPECT_NEAR(
        state_.trustline(user, g_usd, kUsd)->balance_for(user).to_double(), 500.0,
        1e-9);
}

TEST_F(PaymentEngineTest, XrpSourcedCrossCurrencyPayment) {
    // The sender pays native XRP; the maker's {XRP -> EUR} offer
    // converts, and the merchant receives IOUs.
    const AccountID user = add("user", 100'000.0);
    const AccountID g_eur = add("g-eur");
    const AccountID maker = add("maker", 1e6);
    const AccountID merchant = add("merchant");
    fund(g_eur, maker, kEur, 1'000.0);
    edge(g_eur, merchant, kEur, 1e6);
    state_.place_offer(maker, Amount::iou(kXrp, 50'000.0),
                       Amount::iou(kEur, 100.0));

    PaymentEngine engine(state_);
    PaymentRequest r;
    r.sender = user;
    r.destination = merchant;
    r.deliver = Amount::iou(kEur, 100.0);
    r.source_currency = kXrp;  // paying with native XRP
    const auto result = engine.execute(r);
    ASSERT_TRUE(result.success);
    EXPECT_TRUE(result.used_order_book);
    // The maker received the XRP (~50,000 more than its float)...
    EXPECT_GT(state_.account(maker)->balance.drops,
              static_cast<std::int64_t>(1e6 * 1e6) + 49'000'000'000LL);
    // ...and the merchant the EUR.
    EXPECT_NEAR(state_.trustline(merchant, g_eur, kEur)
                    ->balance_for(merchant)
                    .to_double(),
                100.0, 1e-6);
}

TEST_F(PaymentEngineTest, XrpDestinationCrossCurrencyPayment) {
    // The merchant wants XRP; the sender holds USD. The {USD -> XRP}
    // book converts and the destination gets native balance.
    const AccountID user = add("user");
    const AccountID g_usd = add("g-usd");
    const AccountID maker = add("maker", 1e6);
    const AccountID merchant = add("merchant", 5.0);
    fund(g_usd, user, kUsd, 500.0);
    fund(g_usd, maker, kUsd, 10'000.0);
    state_.place_offer(maker, Amount::iou(kUsd, 100.0),
                       Amount::iou(kXrp, 10'000.0));

    PaymentEngine engine(state_);
    PaymentRequest r;
    r.sender = user;
    r.destination = merchant;
    r.deliver = Amount::xrp(10'000.0);
    r.source_currency = kUsd;
    const auto result = engine.execute(r);
    ASSERT_TRUE(result.success);
    EXPECT_TRUE(result.cross_currency);
    EXPECT_EQ(state_.account(merchant)->balance.drops,
              5'000'000 + 10'000'000'000LL);
    // The user's USD deposit paid for it.
    EXPECT_NEAR(
        state_.trustline(user, g_usd, kUsd)->balance_for(user).to_double(),
        400.0, 1.0);
}

TEST_F(PaymentEngineTest, SameCurrencyClearsThroughOffersWhenNoTrustPath) {
    // No trust path between the two USD clusters; two offers bridge
    // USD -> XRP -> USD (§III-C: same-currency payments can use
    // exchange offers).
    const AccountID user = add("user");
    const AccountID g_a = add("g-a");
    const AccountID g_b = add("g-b");
    const AccountID maker1 = add("maker1", 1e6);
    const AccountID maker2 = add("maker2", 1e6);
    const AccountID merchant = add("merchant");
    fund(g_a, user, kUsd, 500.0);
    fund(g_a, maker1, kUsd, 10'000.0);
    fund(g_b, maker2, kUsd, 10'000.0);
    edge(g_b, merchant, kUsd, 1e6);
    state_.place_offer(maker1, Amount::iou(kUsd, 100.0),
                       Amount::iou(kXrp, 10'000.0));
    state_.place_offer(maker2, Amount::iou(kXrp, 10'500.0),
                       Amount::iou(kUsd, 100.0));

    PaymentEngine engine(state_);
    const auto result = engine.execute(request(user, merchant, kUsd, 80.0));
    ASSERT_TRUE(result.success);
    EXPECT_FALSE(result.cross_currency);  // same currency...
    EXPECT_TRUE(result.used_order_book);  // ...but offers did the work
    EXPECT_NEAR(state_.trustline(merchant, g_b, kUsd)
                    ->balance_for(merchant)
                    .to_double(),
                80.0, 1e-6);
}

TEST_F(PaymentEngineTest, ExcludedSenderOrDestinationFails) {
    const AccountID user = add("user");
    const AccountID gateway = add("gateway");
    const AccountID merchant = add("merchant");
    fund(gateway, user, kUsd, 100.0);
    edge(gateway, merchant, kUsd, 1e6);
    PaymentEngine engine(state_);
    engine.graph().exclude(merchant);
    EXPECT_FALSE(engine.execute(request(user, merchant, kUsd, 10.0)).success);
}

TEST_F(PaymentEngineTest, ExplicitPathsExecuteMtlShape) {
    // 6 chains of 8 intermediates, the MTL spam fingerprint.
    const Currency mtl = Currency::from_code("MTL");
    const AccountID spammer = add("spammer");
    const AccountID target = add("target");
    std::vector<std::vector<AccountID>> chains;
    for (int c = 0; c < 6; ++c) {
        std::vector<AccountID> nodes{spammer};
        for (int h = 0; h < 8; ++h) {
            nodes.push_back(add("shill-" + std::to_string(c) + "-" +
                                std::to_string(h)));
        }
        nodes.push_back(target);
        for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
            edge(nodes[i], nodes[i + 1], mtl, 1e21);
        }
        chains.push_back(std::move(nodes));
    }

    PaymentEngine engine(state_);
    PaymentRequest r = request(spammer, target, mtl, 1.2e9);
    const auto result = engine.execute_along(r, chains);
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.parallel_paths, 6u);
    EXPECT_EQ(result.intermediate_hops, 8u);
    EXPECT_EQ(result.intermediaries.size(), 48u);
}

TEST_F(PaymentEngineTest, FoundPathKeepsItsLinesAcrossATopologyChange) {
    // A path found before an account and a line are created (on a
    // clone, so they sit in its tail) still names, by line index, the
    // lines a payment over that route moves: nothing renumbers lines.
    const AccountID user = add("user");
    const AccountID gateway = add("gateway");
    const AccountID merchant = add("merchant");
    fund(gateway, user, kUsd, 100.0);
    edge(gateway, merchant, kUsd, 1000.0);
    LedgerState copy = state_.clone();
    PaymentEngine engine(copy);
    PathFinder finder;
    const auto path = finder.find(engine.graph(), user, merchant, kUsd);
    ASSERT_TRUE(path.has_value());
    ASSERT_EQ(path->lines.size(), 2u);

    const AccountID late = AccountID::from_seed("late");
    ASSERT_TRUE(copy.create_account(late, XrpAmount::from_xrp(10.0)));
    copy.set_trust(late, gateway, kUsd, IouAmount::from_double(50.0));
    for (std::size_t k = 0; k < path->lines.size(); ++k) {
        EXPECT_EQ(copy.lines()[path->lines[k]].key(),
                  ledger::TrustLineKey::make(path->nodes[k], path->nodes[k + 1],
                                             kUsd));
    }

    std::vector<IouAmount> before;
    for (const ledger::TrustLine& line : copy.lines()) {
        before.push_back(line.balance());
    }
    ASSERT_TRUE(engine.execute(request(user, merchant, kUsd, 30.0)).success);
    std::vector<std::uint32_t> moved;
    for (std::uint32_t i = 0; i < before.size(); ++i) {
        if (!(copy.lines()[i].balance() == before[i])) moved.push_back(i);
    }
    std::vector<std::uint32_t> expected = path->lines;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(moved, expected);
}

TEST_F(PaymentEngineTest, ExplicitPathsRollBackOnBrokenChain) {
    const AccountID a = add("a");
    const AccountID m = add("m");
    const AccountID b = add("b");
    edge(a, m, kUsd, 100.0);
    edge(m, b, kUsd, 100.0);
    const AccountID broken = add("broken");  // no trust wiring

    PaymentEngine engine(state_);
    PaymentRequest r = request(a, b, kUsd, 50.0);
    const std::vector<std::vector<AccountID>> chains = {
        {a, m, b}, {a, broken, b}};
    EXPECT_FALSE(engine.execute_along(r, chains).success);
    // The good chain's hop was rolled back too.
    EXPECT_TRUE(state_.trustline(a, m, kUsd)->balance().is_zero());
}

TEST_F(PaymentEngineTest, ApplyDispatchesTrustSetAndOffer) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    PaymentEngine engine(state_);

    ledger::Transaction trust;
    trust.type = ledger::TxType::kTrustSet;
    trust.sender = a;
    trust.trust_peer = b;
    trust.trust_currency = kUsd;
    trust.trust_limit = IouAmount::from_double(77.0);
    EXPECT_TRUE(engine.apply(trust).success);
    ASSERT_NE(state_.trustline(a, b, kUsd), nullptr);

    ledger::Transaction offer;
    offer.type = ledger::TxType::kOfferCreate;
    offer.sender = a;
    offer.taker_pays = Amount::iou(kUsd, 10.0);
    offer.taker_gets = Amount::iou(kEur, 8.0);
    EXPECT_TRUE(engine.apply(offer).success);
    EXPECT_EQ(state_.offer_count(), 1u);
}

ledger::Transaction offer_create(const AccountID& owner, Amount taker_pays,
                                 Amount taker_gets) {
    ledger::Transaction tx;
    tx.type = ledger::TxType::kOfferCreate;
    tx.sender = owner;
    tx.taker_pays = taker_pays;
    tx.taker_gets = taker_gets;
    return tx;
}

TEST_F(PaymentEngineTest, ApplyOfferCreateRejectsMalformed) {
    const AccountID a = add("a");
    const AccountID ghost = AccountID::from_seed("never-created");
    PaymentEngine engine(state_);

    // No owner account.
    EXPECT_FALSE(engine.apply(offer_create(ghost, Amount::iou(kUsd, 10.0),
                                           Amount::iou(kEur, 8.0)))
                     .success);
    // Zero or negative amounts on either side.
    EXPECT_FALSE(engine.apply(offer_create(a, Amount::iou(kUsd, 0.0),
                                           Amount::iou(kEur, 8.0)))
                     .success);
    EXPECT_FALSE(engine.apply(offer_create(a, Amount::iou(kUsd, 10.0),
                                           Amount::iou(kEur, -8.0)))
                     .success);
    EXPECT_FALSE(engine.apply(offer_create(a, Amount::iou(kUsd, -10.0),
                                           Amount::iou(kEur, 8.0)))
                     .success);
    // One currency on both sides, IOU or XRP.
    EXPECT_FALSE(engine.apply(offer_create(a, Amount::iou(kUsd, 10.0),
                                           Amount::iou(kUsd, 8.0)))
                     .success);
    EXPECT_FALSE(engine.apply(offer_create(a, Amount::xrp(10.0), Amount::xrp(8.0)))
                     .success);
    EXPECT_EQ(state_.offer_count(), 0u);
    EXPECT_TRUE(state_.book(ledger::BookKey{kUsd, kEur}).empty());
    EXPECT_TRUE(state_.book(ledger::BookKey{kUsd, kUsd}).empty());

    // A well-formed offer still places, with the id a fresh ledger
    // would give it: the rejected ones consumed none.
    EXPECT_TRUE(engine.apply(offer_create(a, Amount::iou(kUsd, 10.0),
                                          Amount::iou(kEur, 8.0)))
                    .success);
    EXPECT_EQ(state_.offer_count(), 1u);
    ASSERT_EQ(state_.book(ledger::BookKey{kUsd, kEur}).size(), 1u);
    EXPECT_EQ(state_.book(ledger::BookKey{kUsd, kEur}).front().id, 1u);
}

// An unfunded 1-EUR offer from an account that does not exist, priced
// to top the USD->EUR book, used to be placed and to fail every
// payment planned through that book.
TEST_F(PaymentEngineTest, OfferFromMissingAccountDoesNotBlockTheBook) {
    const AccountID user = add("user");
    const AccountID g_usd = add("g-usd");
    const AccountID g_eur = add("g-eur");
    const AccountID maker = add("maker");
    const AccountID merchant = add("merchant");
    fund(g_usd, user, kUsd, 500.0);
    fund(g_usd, maker, kUsd, 1000.0);
    fund(g_eur, maker, kEur, 1000.0);
    edge(g_eur, merchant, kEur, 1e6);
    state_.place_offer(maker, Amount::iou(kUsd, 130.0), Amount::iou(kEur, 100.0));

    PaymentEngine engine(state_);
    EXPECT_FALSE(engine.apply(offer_create(AccountID::from_seed("ghost-maker"),
                                           Amount::iou(kUsd, 1.0),
                                           Amount::iou(kEur, 1.0)))
                     .success);
    EXPECT_EQ(state_.book(ledger::BookKey{kUsd, kEur}).size(), 1u);

    const auto result = engine.execute(request(user, merchant, kEur, 50.0, kUsd));
    EXPECT_TRUE(result.success);
    EXPECT_TRUE(result.used_order_book);
}

TEST_F(PaymentEngineTest, ApplyTrustSetRejectsUnknownOrSelfPeer) {
    // A trust line joins two distinct existing accounts: a TrustSet
    // naming a missing account or the sender itself fails and leaves
    // the ledger as it was, so the next indexed search still builds.
    const AccountID a = add("a");
    const AccountID b = add("b");
    const AccountID ghost = AccountID::from_seed("ghost");
    PaymentEngine engine(state_);
    const std::uint64_t generation = state_.topology_generation();

    ledger::Transaction trust;
    trust.type = ledger::TxType::kTrustSet;
    trust.trust_currency = kUsd;
    trust.trust_limit = IouAmount::from_double(77.0);
    const std::pair<AccountID, AccountID> rejected[] = {
        {ghost, a}, {a, ghost}, {a, a}};
    for (const auto& [sender, peer] : rejected) {
        trust.sender = sender;
        trust.trust_peer = peer;
        EXPECT_FALSE(engine.apply(trust).success);
    }
    EXPECT_EQ(state_.trustline_count(), 0u);
    EXPECT_EQ(state_.topology_generation(), generation);
    EXPECT_EQ(state_.account(ghost), nullptr);

    edge(a, b, kUsd, 50.0);
    EXPECT_TRUE(engine.execute(request(a, b, kUsd, 20.0)).success);
}

TEST_F(PaymentEngineTest, ApplyTrustSetRejectsNegativeLimitOrXrp) {
    // A negative limit would put a new line past its limit from the
    // start, and XRP is no trust-line currency: both fail and leave the
    // ledger as it was, on a new line and on an existing one. A zero
    // limit stays valid.
    const AccountID a = add("a");
    const AccountID b = add("b");
    PaymentEngine engine(state_);
    const std::uint64_t generation = state_.topology_generation();

    ledger::Transaction trust;
    trust.type = ledger::TxType::kTrustSet;
    trust.sender = a;
    trust.trust_peer = b;
    trust.trust_currency = kUsd;
    trust.trust_limit = IouAmount::from_double(-5.0);
    EXPECT_FALSE(engine.apply(trust).success);
    trust.trust_currency = kXrp;
    trust.trust_limit = IouAmount::from_double(100.0);
    EXPECT_FALSE(engine.apply(trust).success);
    EXPECT_EQ(state_.trustline_count(), 0u);
    EXPECT_EQ(state_.currency_count(), 0u);
    EXPECT_EQ(state_.topology_generation(), generation);

    trust.trust_currency = kUsd;
    trust.trust_limit = IouAmount{};
    EXPECT_TRUE(engine.apply(trust).success);
    trust.trust_limit = IouAmount::from_double(50.0);
    EXPECT_TRUE(engine.apply(trust).success);
    trust.trust_limit = IouAmount::from_double(-5.0);
    EXPECT_FALSE(engine.apply(trust).success);
    const ledger::TrustLine* line = state_.trustline(a, b, kUsd);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->limit_of(a).to_double(), 50.0);
    EXPECT_EQ(state_.trustline_count(), 1u);
}

TEST_F(PaymentEngineTest, FailedAccountCreateLeavesNoAccount) {
    const AccountID poor = add("poor", 1.0);
    const AccountID fresh = AccountID::from_seed("fresh");
    PaymentEngine engine(state_);
    const std::uint64_t generation = state_.topology_generation();
    const std::size_t accounts = state_.account_count();

    ledger::Transaction create;
    create.type = ledger::TxType::kAccountCreate;
    create.destination = fresh;
    // Short of the amount; short of the fee only; no such sender.
    create.sender = poor;
    create.amount = Amount::xrp(100.0);
    EXPECT_FALSE(engine.apply(create).success);
    create.amount = Amount::xrp(1.0);
    EXPECT_FALSE(engine.apply(create).success);
    create.sender = AccountID::from_seed("ghost");
    EXPECT_FALSE(engine.apply(create).success);

    EXPECT_EQ(state_.account(fresh), nullptr);
    EXPECT_EQ(state_.account_count(), accounts);
    EXPECT_EQ(state_.topology_generation(), generation);
    EXPECT_EQ(state_.account(poor)->balance.drops, 1'000'000);
}

TEST_F(PaymentEngineTest, ApplyAccountCreateActivatesAccount) {
    const AccountID a = add("a");
    const AccountID fresh = AccountID::from_seed("fresh");
    PaymentEngine engine(state_);

    ledger::Transaction create;
    create.type = ledger::TxType::kAccountCreate;
    create.sender = a;
    create.destination = fresh;
    create.amount = Amount::xrp(100.0);
    EXPECT_TRUE(engine.apply(create).success);
    ASSERT_NE(state_.account(fresh), nullptr);
    EXPECT_EQ(state_.account(fresh)->balance.drops, 100'000'000);
}

}  // namespace
}  // namespace xrpl::paths
