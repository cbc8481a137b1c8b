#include "paths/order_book.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace xrpl::paths {
namespace {

using ledger::AccountID;
using ledger::Amount;
using ledger::BookKey;
using ledger::Currency;
using ledger::IouAmount;
using ledger::LedgerState;

const Currency kUsd = Currency::from_code("USD");
const Currency kEur = Currency::from_code("EUR");

class OrderBookTest : public ::testing::Test {
protected:
    void SetUp() override {
        maker1_ = AccountID::from_seed("maker1");
        maker2_ = AccountID::from_seed("maker2");
        state_.create_account(maker1_, ledger::XrpAmount::from_xrp(10.0));
        state_.create_account(maker2_, ledger::XrpAmount::from_xrp(10.0));
        // maker1: 1.25 USD per EUR; maker2: 1.30 USD per EUR.
        id1_ = state_.place_offer(maker1_, Amount::iou(kUsd, 125.0),
                                  Amount::iou(kEur, 100.0));
        id2_ = state_.place_offer(maker2_, Amount::iou(kUsd, 260.0),
                                  Amount::iou(kEur, 200.0));
        before_ = state_.book(key_);
    }

    /// Same offers in the same order, byte-exact.
    static bool books_equal(const std::vector<ledger::Offer>& a,
                            const std::vector<ledger::Offer>& b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                          [](const ledger::Offer& x, const ledger::Offer& y) {
                              return x.id == y.id && x.owner == y.owner &&
                                     x.taker_pays.value == y.taker_pays.value &&
                                     x.taker_gets.value == y.taker_gets.value;
                          });
    }

    LedgerState state_;
    AccountID maker1_, maker2_;
    std::uint64_t id1_ = 0, id2_ = 0;
    const BookKey key_{kUsd, kEur};
    std::vector<ledger::Offer> before_;  // the book as set up
};

TEST_F(OrderBookTest, BestRateIsLowest) {
    const auto& book = state_.book(key_);
    ASSERT_EQ(book.size(), 2u);
    EXPECT_EQ(book[0].id, id1_);
    EXPECT_NEAR(book[0].rate(), 1.25, 1e-9);
    EXPECT_TRUE(state_.book(BookKey{kEur, kUsd}).empty());
}

TEST_F(OrderBookTest, PlanTakesBestOfferFirst) {
    const auto plan = plan_fills(state_, key_, IouAmount::from_double(50.0));
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].owner, maker1_);
    EXPECT_NEAR(plan[0].gets.to_double(), 50.0, 1e-9);
    EXPECT_NEAR(plan[0].pays.to_double(), 62.5, 1e-6);
}

TEST_F(OrderBookTest, PlanSpillsToSecondOffer) {
    const auto plan = plan_fills(state_, key_, IouAmount::from_double(150.0));
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0].owner, maker1_);
    EXPECT_NEAR(plan[0].gets.to_double(), 100.0, 1e-9);
    EXPECT_EQ(plan[1].owner, maker2_);
    EXPECT_NEAR(plan[1].gets.to_double(), 50.0, 1e-9);
}

TEST_F(OrderBookTest, PlanStopsAtLiquidity) {
    const auto plan = plan_fills(state_, key_, IouAmount::from_double(1000.0));
    IouAmount planned;
    for (const Fill& fill : plan) planned = planned + fill.gets;
    EXPECT_NEAR(planned.to_double(), 300.0, 1e-9);
}

TEST_F(OrderBookTest, PlanSkipsExcludedMakers) {
    std::unordered_set<AccountID> excluded{maker1_};
    const auto plan =
        plan_fills(state_, key_, IouAmount::from_double(50.0), excluded);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].owner, maker2_);
}

TEST_F(OrderBookTest, ConsumePartiallyShrinksOffer) {
    const auto plan = plan_fills(state_, key_, IouAmount::from_double(40.0));
    ASSERT_EQ(plan.size(), 1u);
    const auto consumed = consume_fill(state_, key_, plan[0]);
    ASSERT_TRUE(consumed.has_value());
    // The pre-image is the offer as placed, at the top of the book.
    EXPECT_EQ(consumed->position, 0u);
    EXPECT_EQ(consumed->before.id, id1_);
    EXPECT_NEAR(consumed->before.taker_gets.value.to_double(), 100.0, 1e-9);
    const auto& book = state_.book(key_);
    ASSERT_EQ(book.size(), 2u);
    EXPECT_NEAR(book[0].taker_gets.value.to_double(), 60.0, 1e-9);
    // Rate unchanged by partial consumption.
    EXPECT_NEAR(book[0].rate(), 1.25, 1e-6);
}

TEST_F(OrderBookTest, ConsumeFullyRemovesOffer) {
    const auto plan = plan_fills(state_, key_, IouAmount::from_double(100.0));
    ASSERT_TRUE(consume_fill(state_, key_, plan[0]).has_value());
    const auto& book = state_.book(key_);
    ASSERT_EQ(book.size(), 1u);
    EXPECT_EQ(book[0].owner, maker2_);
}

TEST_F(OrderBookTest, ConsumeMissingOfferFails) {
    // A fill whose offer is gone, or holds less than the fill takes,
    // fails and leaves the book untouched.
    Fill ghost;
    ghost.offer_id = 9999;
    ghost.gets = IouAmount::from_double(1.0);
    EXPECT_FALSE(consume_fill(state_, key_, ghost).has_value());
    Fill greedy = plan_fills(state_, key_, IouAmount::from_double(40.0)).front();
    greedy.gets = IouAmount::from_double(101.0);  // offer 1 holds 100
    EXPECT_FALSE(consume_fill(state_, key_, greedy).has_value());
    EXPECT_TRUE(books_equal(state_.book(key_), before_));
}

TEST_F(OrderBookTest, RestoreAfterPartialConsume) {
    const auto plan = plan_fills(state_, key_, IouAmount::from_double(40.0));
    const auto consumed = consume_fill(state_, key_, plan[0]);
    ASSERT_TRUE(consumed.has_value());
    restore_offer(state_, key_, *consumed);
    EXPECT_TRUE(books_equal(state_.book(key_), before_));
}

TEST_F(OrderBookTest, RestoreAfterFullConsumeReinsertsSorted) {
    // An offer at maker 1's rate sits behind it. Fills undone in
    // reverse order, each at the position it was taken from, bring the
    // book back byte-exact and in order: maker 1's offer ahead of its
    // equal-rate neighbour again, not behind it.
    state_.place_offer(maker2_, Amount::iou(kUsd, 12.5), Amount::iou(kEur, 10.0));
    const std::vector<ledger::Offer> before = state_.book(key_);
    const auto plan = plan_fills(state_, key_, IouAmount::from_double(150.0));
    ASSERT_EQ(plan.size(), 3u);
    std::vector<ConsumedOffer> consumed;
    for (const Fill& fill : plan) {
        const auto taken = consume_fill(state_, key_, fill);
        ASSERT_TRUE(taken.has_value());
        EXPECT_EQ(taken->position, 0u);  // each fill takes the top offer
        consumed.push_back(*taken);
    }
    for (auto it = consumed.rbegin(); it != consumed.rend(); ++it) {
        restore_offer(state_, key_, *it);
    }
    EXPECT_TRUE(books_equal(state_.book(key_), before));
}

TEST_F(OrderBookTest, MakerConcentrationRanksByOffers) {
    state_.place_offer(maker1_, Amount::iou(kUsd, 10.0), Amount::iou(kEur, 8.0));
    state_.place_offer(maker1_, Amount::iou(kEur, 10.0), Amount::iou(kUsd, 12.0));
    const auto shares = maker_concentration(state_);
    ASSERT_EQ(shares.size(), 2u);
    EXPECT_EQ(shares[0].maker, maker1_);
    EXPECT_EQ(shares[0].offers, 3u);
    EXPECT_EQ(shares[1].offers, 1u);
}

}  // namespace
}  // namespace xrpl::paths
