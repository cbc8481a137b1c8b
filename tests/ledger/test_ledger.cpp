#include "ledger/ledger.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <utility>

namespace xrpl::ledger {
namespace {

// Through the mutable account() only the balance and the sequence are
// writable: the id, the flags and the dense index are mirrored by the
// topology's key map and ripple_flags(), which clones share.
using MutableRoot = decltype(*std::declval<LedgerState&>().account(AccountID{}));
static_assert(
    !std::is_assignable_v<decltype((std::declval<MutableRoot>().id)), AccountID>);
static_assert(!std::is_assignable_v<
              decltype((std::declval<MutableRoot>().is_gateway)), bool>);
static_assert(!std::is_assignable_v<
              decltype((std::declval<MutableRoot>().allows_rippling)), bool>);
static_assert(!std::is_assignable_v<
              decltype((std::declval<MutableRoot>().index)), std::uint32_t>);
static_assert(std::is_assignable_v<
              decltype((std::declval<MutableRoot>().balance)), XrpAmount>);
static_assert(std::is_assignable_v<
              decltype((std::declval<MutableRoot>().sequence)), std::uint32_t>);

class LedgerStateTest : public ::testing::Test {
protected:
    void SetUp() override {
        alice_ = AccountID::from_seed("alice");
        bob_ = AccountID::from_seed("bob");
        gateway_ = AccountID::from_seed("gateway");
        ASSERT_TRUE(state_.create_account(alice_, XrpAmount::from_xrp(100.0)));
        ASSERT_TRUE(state_.create_account(bob_, XrpAmount::from_xrp(50.0)));
        ASSERT_TRUE(
            state_.create_account(gateway_, XrpAmount::from_xrp(1000.0), true));
    }

    LedgerState state_;
    AccountID alice_, bob_, gateway_;
    const Currency usd_ = Currency::from_code("USD");
};

TEST_F(LedgerStateTest, DuplicateAccountRejected) {
    EXPECT_FALSE(state_.create_account(alice_, XrpAmount{}));
    EXPECT_EQ(state_.account_count(), 3u);
}

TEST_F(LedgerStateTest, DenseIndicesAreSequential) {
    EXPECT_EQ(state_.account(alice_)->index, 0u);
    EXPECT_EQ(state_.account(bob_)->index, 1u);
    EXPECT_EQ(state_.account(gateway_)->index, 2u);
    EXPECT_EQ(state_.account_by_index(1), bob_);

    // Currencies are numbered by their first trust line.
    const Currency eur = Currency::from_code("EUR");
    EXPECT_EQ(state_.currency_count(), 0u);
    state_.set_trust(alice_, gateway_, eur, IouAmount::from_double(1.0));
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(1.0));
    state_.set_trust(bob_, gateway_, eur, IouAmount::from_double(1.0));
    EXPECT_EQ(state_.currency_count(), 2u);
    EXPECT_EQ(state_.currency_by_index(0), eur);
    EXPECT_EQ(state_.currency_by_index(1), usd_);
    EXPECT_EQ(state_.currency_index(usd_), 1u);
    EXPECT_FALSE(state_.currency_index(Currency::from_code("BTC")).has_value());
}

TEST_F(LedgerStateTest, GatewayFlagStored) {
    EXPECT_FALSE(state_.account(alice_)->is_gateway);
    EXPECT_TRUE(state_.account(gateway_)->is_gateway);
}

TEST_F(LedgerStateTest, XrpPaymentMovesDropsAndBurnsFee) {
    ASSERT_TRUE(state_.xrp_payment(alice_, bob_, XrpAmount::from_xrp(10.0),
                                   XrpAmount{10}));
    EXPECT_EQ(state_.account(alice_)->balance.drops, 100'000'000 - 10'000'000 - 10);
    EXPECT_EQ(state_.account(bob_)->balance.drops, 50'000'000 + 10'000'000);
    EXPECT_EQ(state_.burned_fees().drops, 10);
    EXPECT_EQ(state_.account(alice_)->sequence, 1u);
}

TEST_F(LedgerStateTest, XrpPaymentInsufficientFundsFails) {
    EXPECT_FALSE(state_.xrp_payment(bob_, alice_, XrpAmount::from_xrp(50.0),
                                    XrpAmount{10}));
    EXPECT_EQ(state_.account(bob_)->balance.drops, 50'000'000);
}

TEST_F(LedgerStateTest, XrpPaymentUnknownAccountFails) {
    EXPECT_FALSE(state_.xrp_payment(AccountID::from_seed("ghost"), alice_,
                                    XrpAmount{100}));
    EXPECT_FALSE(
        state_.xrp_payment(alice_, AccountID::from_seed("ghost"), XrpAmount{100}));
}

TEST_F(LedgerStateTest, XrpPaymentRejectsNonPositive) {
    EXPECT_FALSE(state_.xrp_payment(alice_, bob_, XrpAmount{0}));
    EXPECT_FALSE(state_.xrp_payment(alice_, bob_, XrpAmount{-5}));
}

TEST_F(LedgerStateTest, SetTrustCreatesLineOnce) {
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(100.0));
    EXPECT_EQ(state_.trustline_count(), 1u);
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(200.0));
    EXPECT_EQ(state_.trustline_count(), 1u);
    const TrustLine* line = state_.trustline(alice_, gateway_, usd_);
    ASSERT_NE(line, nullptr);
    EXPECT_NEAR(line->limit_of(alice_).to_double(), 200.0, 1e-9);
}

TEST_F(LedgerStateTest, TrustIsDirectional) {
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(100.0));
    const TrustLine* line = state_.trustline(alice_, gateway_, usd_);
    ASSERT_NE(line, nullptr);
    EXPECT_NEAR(line->limit_of(alice_).to_double(), 100.0, 1e-9);
    EXPECT_TRUE(line->limit_of(gateway_).is_zero());
}

TEST_F(LedgerStateTest, AdjacencyTracksBothEndpoints) {
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(100.0));
    state_.set_trust(bob_, gateway_, usd_, IouAmount::from_double(50.0));
    EXPECT_EQ(state_.lines_of(alice_).size(), 1u);
    EXPECT_EQ(state_.lines_of(bob_).size(), 1u);
    EXPECT_EQ(state_.lines_of(gateway_).size(), 2u);
    EXPECT_TRUE(state_.lines_of(AccountID::from_seed("ghost")).empty());
}

TEST_F(LedgerStateTest, SeparateCurrenciesSeparateLines) {
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(100.0));
    state_.set_trust(alice_, gateway_, Currency::from_code("EUR"),
                     IouAmount::from_double(100.0));
    EXPECT_EQ(state_.trustline_count(), 2u);
    EXPECT_EQ(state_.lines_of(alice_).size(), 2u);
}

TEST_F(LedgerStateTest, OffersSortedByRate) {
    const AccountID maker1 = AccountID::from_seed("maker1");
    const AccountID maker2 = AccountID::from_seed("maker2");
    state_.create_account(maker1, XrpAmount{});
    state_.create_account(maker2, XrpAmount{});
    // maker2 quotes the better (lower) rate: 1.2 USD per EUR vs 1.4.
    state_.place_offer(maker1, Amount::iou(usd_, 140.0),
                       Amount::iou(Currency::from_code("EUR"), 100.0));
    state_.place_offer(maker2, Amount::iou(usd_, 120.0),
                       Amount::iou(Currency::from_code("EUR"), 100.0));
    const auto& book =
        state_.book(BookKey{usd_, Currency::from_code("EUR")});
    ASSERT_EQ(book.size(), 2u);
    EXPECT_EQ(book[0].owner, maker2);
    EXPECT_LT(book[0].rate(), book[1].rate());
}

TEST_F(LedgerStateTest, RemoveOffersOfOwner) {
    const AccountID maker = AccountID::from_seed("maker");
    state_.create_account(maker, XrpAmount{});
    state_.place_offer(maker, Amount::iou(usd_, 10.0),
                       Amount::iou(Currency::from_code("EUR"), 9.0));
    state_.place_offer(gateway_, Amount::iou(usd_, 10.0),
                       Amount::iou(Currency::from_code("EUR"), 9.0));
    EXPECT_EQ(state_.offer_count(), 2u);
    state_.remove_offers_of(maker);
    EXPECT_EQ(state_.offer_count(), 1u);
    state_.clear_all_offers();
    EXPECT_EQ(state_.offer_count(), 0u);
}

TEST_F(LedgerStateTest, NetIouBalanceConvertsCurrencies) {
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(100.0));
    TrustLine* line = state_.trustline(alice_, gateway_, usd_);
    ASSERT_TRUE(line->transfer_from(gateway_, IouAmount::from_double(40.0)));
    const auto rate = [](Currency) { return 2.0; };  // 1 USD = 2 reference
    EXPECT_NEAR(state_.net_iou_balance(alice_, rate), 80.0, 1e-9);
    EXPECT_NEAR(state_.net_iou_balance(gateway_, rate), -80.0, 1e-9);
}

TEST_F(LedgerStateTest, TrustSummarySplitsDirections) {
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(100.0));
    const auto rate = [](Currency) { return 1.0; };
    const auto gateway_summary = state_.trust_summary(gateway_, rate);
    EXPECT_NEAR(gateway_summary.received, 100.0, 1e-9);  // alice trusts it
    EXPECT_NEAR(gateway_summary.given, 0.0, 1e-9);
    const auto alice_summary = state_.trust_summary(alice_, rate);
    EXPECT_NEAR(alice_summary.received, 0.0, 1e-9);
    EXPECT_NEAR(alice_summary.given, 100.0, 1e-9);
}

TEST_F(LedgerStateTest, CloneIsDeepAndIndependent) {
    const Currency eur = Currency::from_code("EUR");
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(100.0));
    state_.set_trust(gateway_, bob_, eur, IouAmount::from_double(40.0));
    state_.place_offer(gateway_, Amount::iou(usd_, 10.0), Amount::iou(eur, 9.0));

    LedgerState copy = state_.clone();
    EXPECT_EQ(copy.account_count(), state_.account_count());
    EXPECT_EQ(copy.trustline_count(), state_.trustline_count());
    EXPECT_EQ(copy.offer_count(), state_.offer_count());
    EXPECT_EQ(copy.currency_count(), state_.currency_count());

    // Every line records its endpoints' account indices and its
    // currency's index, in the original and in the clone, and sits in
    // exactly its two endpoints' adjacency lists.
    for (const LedgerState* ledger : {&state_, &copy}) {
        std::size_t listed = 0;
        for (std::uint32_t i = 0; i < ledger->account_count(); ++i) {
            const TrustLineList lines = ledger->lines_by_index(i);
            for (std::size_t k = 0; k < lines.size(); ++k) {
                const TrustLineKey& key = lines[k]->key();
                EXPECT_EQ(lines[k], &ledger->lines()[lines.indices()[k]]);
                const TrustLineIndices& ends = ledger->line_ends()[lines.indices()[k]];
                EXPECT_EQ(ends.low, ledger->account(key.low)->index);
                EXPECT_EQ(ends.high, ledger->account(key.high)->index);
                EXPECT_TRUE(ends.low == i || ends.high == i);
                EXPECT_EQ(ledger->currency_by_index(ends.currency), key.currency);
                EXPECT_EQ(ledger->currency_index(key.currency), ends.currency);
                ++listed;
            }
        }
        EXPECT_EQ(listed, 2 * ledger->trustline_count());
    }

    // Mutating the copy leaves the original untouched.
    TrustLine* copy_line = copy.trustline(alice_, gateway_, usd_);
    ASSERT_TRUE(copy_line->transfer_from(gateway_, IouAmount::from_double(10.0)));
    EXPECT_TRUE(state_.trustline(alice_, gateway_, usd_)->balance().is_zero());
    EXPECT_FALSE(copy.trustline(alice_, gateway_, usd_)->balance().is_zero());

    // The clone's adjacency points into its own lines.
    ASSERT_EQ(copy.lines_of(alice_).size(), 1u);
    EXPECT_EQ(copy.lines_of(alice_)[0], copy_line);
}

}  // namespace
}  // namespace xrpl::ledger
