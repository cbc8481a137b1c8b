#include "ledger/trustline.hpp"

#include <gtest/gtest.h>

namespace xrpl::ledger {
namespace {

// A line is its 43-byte key and three amounts; its endpoint and
// currency indices live in the ledger's topology (line_ends), so a
// clone copies 96 bytes per line.
static_assert(sizeof(TrustLine) == 96);

class TrustLineTest : public ::testing::Test {
protected:
    const AccountID alice_ = AccountID::from_seed("alice");
    const AccountID bob_ = AccountID::from_seed("bob");
    const Currency usd_ = Currency::from_code("USD");

    [[nodiscard]] TrustLine make_line(double alice_limit, double bob_limit) const {
        const TrustLineKey key = TrustLineKey::make(alice_, bob_, usd_);
        const bool alice_is_low = alice_ == key.low;
        return TrustLine(
            key,
            IouAmount::from_double(alice_is_low ? alice_limit : bob_limit),
            IouAmount::from_double(alice_is_low ? bob_limit : alice_limit));
    }
};

TEST_F(TrustLineTest, KeyIsCanonical) {
    const TrustLineKey a = TrustLineKey::make(alice_, bob_, usd_);
    const TrustLineKey b = TrustLineKey::make(bob_, alice_, usd_);
    EXPECT_EQ(a, b);
    EXPECT_LT(a.low, a.high);
}

TEST_F(TrustLineTest, FreshLineHasZeroBalance) {
    const TrustLine line = make_line(10.0, 20.0);
    EXPECT_TRUE(line.balance().is_zero());
    EXPECT_TRUE(line.balance_for(alice_).is_zero());
    EXPECT_TRUE(line.balance_for(bob_).is_zero());
}

TEST_F(TrustLineTest, CapacityEqualsReceiverLimitInitially) {
    // "A trusts B for 10 USD" caps IOU flow B -> A at 10.
    const TrustLine line = make_line(/*alice_limit=*/10.0, /*bob_limit=*/20.0);
    EXPECT_NEAR(line.capacity_from(bob_).to_double(), 10.0, 1e-9);
    EXPECT_NEAR(line.capacity_from(alice_).to_double(), 20.0, 1e-9);
}

TEST_F(TrustLineTest, TransferMovesBalanceAndReducesCapacity) {
    TrustLine line = make_line(10.0, 20.0);
    ASSERT_TRUE(line.transfer_from(bob_, IouAmount::from_double(4.0)));
    // Alice now holds 4 of Bob-side debt.
    EXPECT_NEAR(line.balance_for(alice_).to_double(), 4.0, 1e-9);
    EXPECT_NEAR(line.balance_for(bob_).to_double(), -4.0, 1e-9);
    EXPECT_NEAR(line.capacity_from(bob_).to_double(), 6.0, 1e-9);
    // Capacity in the opposite direction grew: debt repayment first.
    EXPECT_NEAR(line.capacity_from(alice_).to_double(), 24.0, 1e-9);
}

TEST_F(TrustLineTest, TransferBeyondCapacityFails) {
    TrustLine line = make_line(10.0, 20.0);
    EXPECT_FALSE(line.transfer_from(bob_, IouAmount::from_double(10.5)));
    EXPECT_TRUE(line.balance().is_zero());  // untouched
}

TEST_F(TrustLineTest, ZeroOrNegativeTransferRejected) {
    TrustLine line = make_line(10.0, 20.0);
    EXPECT_FALSE(line.transfer_from(bob_, IouAmount{}));
    EXPECT_FALSE(line.transfer_from(bob_, IouAmount::from_double(-1.0)));
}

TEST_F(TrustLineTest, ExactCapacityTransferSucceeds) {
    TrustLine line = make_line(10.0, 20.0);
    EXPECT_TRUE(line.transfer_from(bob_, IouAmount::from_double(10.0)));
    EXPECT_TRUE(line.capacity_from(bob_).is_zero());
}

TEST_F(TrustLineTest, RoundTripRestoresCapacity) {
    TrustLine line = make_line(10.0, 20.0);
    ASSERT_TRUE(line.transfer_from(bob_, IouAmount::from_double(7.0)));
    ASSERT_TRUE(line.transfer_from(alice_, IouAmount::from_double(7.0)));
    EXPECT_TRUE(line.balance().is_zero());
    EXPECT_NEAR(line.capacity_from(bob_).to_double(), 10.0, 1e-9);
}

TEST_F(TrustLineTest, RevertUndoesTransferExactly) {
    TrustLine line = make_line(10.0, 20.0);
    ASSERT_TRUE(line.transfer_from(bob_, IouAmount::from_double(7.0)));
    line.revert_transfer_from(bob_, IouAmount::from_double(7.0));
    EXPECT_TRUE(line.balance().is_zero());
}

TEST_F(TrustLineTest, RevertWorksEvenAfterLimitLowered) {
    TrustLine line = make_line(10.0, 20.0);
    ASSERT_TRUE(line.transfer_from(bob_, IouAmount::from_double(7.0)));
    // Alice reduces her trust below the outstanding balance.
    line.set_limit_of(alice_, IouAmount::from_double(1.0));
    // A regular reverse transfer would now fail the capacity check…
    line.revert_transfer_from(bob_, IouAmount::from_double(7.0));
    EXPECT_TRUE(line.balance().is_zero());
}

TEST_F(TrustLineTest, LimitsUpdateIndependently) {
    TrustLine line = make_line(10.0, 20.0);
    line.set_limit_of(alice_, IouAmount::from_double(100.0));
    EXPECT_NEAR(line.limit_of(alice_).to_double(), 100.0, 1e-9);
    EXPECT_NEAR(line.limit_of(bob_).to_double(), 20.0, 1e-9);
    EXPECT_NEAR(line.capacity_from(bob_).to_double(), 100.0, 1e-9);
}

TEST_F(TrustLineTest, PeerAndInvolvement) {
    const TrustLine line = make_line(1.0, 1.0);
    EXPECT_EQ(line.peer_of(alice_), bob_);
    EXPECT_EQ(line.peer_of(bob_), alice_);
    EXPECT_TRUE(line.involves(alice_));
    EXPECT_TRUE(line.involves(bob_));
    EXPECT_FALSE(line.involves(AccountID::from_seed("mallory")));
}

TEST_F(TrustLineTest, PaperFigureOneScenario) {
    // Fig 1: A trusts B for 10 USD, B trusts C for 20 USD; C can send
    // up to 10 USD to A through B.
    const AccountID a = AccountID::from_seed("A");
    const AccountID b = AccountID::from_seed("B");
    const AccountID c = AccountID::from_seed("C");

    const TrustLineKey ab_key = TrustLineKey::make(a, b, usd_);
    TrustLine ab(ab_key, IouAmount{}, IouAmount{});
    ab.set_limit_of(a, IouAmount::from_double(10.0));
    const TrustLineKey bc_key = TrustLineKey::make(b, c, usd_);
    TrustLine bc(bc_key, IouAmount{}, IouAmount{});
    bc.set_limit_of(b, IouAmount::from_double(20.0));

    // Payment C -> B -> A of 10 USD.
    EXPECT_TRUE(bc.transfer_from(c, IouAmount::from_double(10.0)));
    EXPECT_TRUE(ab.transfer_from(b, IouAmount::from_double(10.0)));
    EXPECT_NEAR(ab.balance_for(a).to_double(), 10.0, 1e-9);
    // No more capacity toward A.
    EXPECT_TRUE(ab.capacity_from(b).is_zero());
}

}  // namespace
}  // namespace xrpl::ledger
