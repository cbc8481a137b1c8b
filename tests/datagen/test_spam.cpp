#include "datagen/spam.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace xrpl::datagen {
namespace {

Population tiny_population(ledger::LedgerState& state) {
    GeneratorConfig config;
    config.seed = 13;
    config.num_users = 100;
    config.num_gateways = 20;
    config.num_market_makers = 10;
    config.num_merchants = 30;
    config.num_hubs = 5;
    return build_population(state, config, util::RngStream(config.seed));
}

ledger::TxRecord base_record() {
    ledger::TxRecord r;
    r.sender = ledger::AccountID::from_seed("someone");
    r.destination = ledger::AccountID::from_seed("someone-else");
    r.currency = ledger::Currency::from_code("USD");
    r.amount = ledger::IouAmount::from_double(10.0);
    r.time = util::RippleTime{100};
    return r;
}

class SpamTest : public ::testing::Test {
protected:
    void SetUp() override { pop_ = tiny_population(state_); }

    /// The breakdown of a store holding exactly `rows`.
    [[nodiscard]] SpamBreakdown breakdown_of(
        const std::vector<ledger::TxRecord>& rows) const {
        const ledger::PaymentColumns payments =
            ledger::PaymentColumns::from_records(rows);
        return spam_breakdown(payments.view(), pop_);
    }

    ledger::LedgerState state_;
    Population pop_;
};

TEST_F(SpamTest, OrganicByDefault) {
    EXPECT_EQ(breakdown_of({base_record()}).organic, 1u);
}

TEST_F(SpamTest, AccountZeroEitherDirection) {
    ledger::TxRecord to_zero = base_record();
    to_zero.destination = pop_.account_zero;
    EXPECT_EQ(breakdown_of({to_zero}).account_zero, 1u);

    ledger::TxRecord from_zero = base_record();
    from_zero.sender = pop_.account_zero;
    EXPECT_EQ(breakdown_of({from_zero}).account_zero, 1u);
}

TEST_F(SpamTest, GamblingByDestination) {
    ledger::TxRecord bet = base_record();
    bet.destination = pop_.ripple_spin;
    bet.currency = ledger::Currency::xrp();
    EXPECT_EQ(breakdown_of({bet}).gambling, 1u);
}

TEST_F(SpamTest, MtlNeedsTheAbsurdAmounts) {
    ledger::TxRecord mtl = base_record();
    mtl.currency = cur("MTL");
    mtl.amount = ledger::IouAmount::from_double(1.1e9);
    EXPECT_EQ(breakdown_of({mtl}).mtl, 1u);

    // A small organic MTL payment is not part of the campaign.
    mtl.amount = ledger::IouAmount::from_double(12.0);
    EXPECT_EQ(breakdown_of({mtl}).organic, 1u);
}

TEST_F(SpamTest, CckAlwaysSuspicious) {
    ledger::TxRecord cck = base_record();
    cck.currency = cur("CCK");
    cck.amount = ledger::IouAmount::from_double(0.02);
    EXPECT_EQ(breakdown_of({cck}).cck, 1u);
}

TEST_F(SpamTest, BreakdownSumsToTotal) {
    std::vector<ledger::TxRecord> records;
    for (int i = 0; i < 10; ++i) records.push_back(base_record());
    ledger::TxRecord bet = base_record();
    bet.destination = pop_.ripple_spin;
    records.push_back(bet);
    ledger::TxRecord mtl = base_record();
    mtl.currency = cur("MTL");
    mtl.amount = ledger::IouAmount::from_double(2e9);
    records.push_back(mtl);

    const SpamBreakdown breakdown = breakdown_of(records);
    EXPECT_EQ(breakdown.total(), records.size());
    EXPECT_EQ(breakdown.organic, 10u);
    EXPECT_EQ(breakdown.gambling, 1u);
    EXPECT_EQ(breakdown.mtl, 1u);
    EXPECT_EQ(breakdown.cck, 0u);
}

TEST_F(SpamTest, KindNamesAreStable) {
    EXPECT_STREQ(spam_kind_name(SpamKind::kOrganic), "organic");
    EXPECT_STREQ(spam_kind_name(SpamKind::kMtlCampaign), "mtl-campaign");
    EXPECT_STREQ(spam_kind_name(SpamKind::kCckCampaign), "cck-campaign");
    EXPECT_STREQ(spam_kind_name(SpamKind::kAccountZeroPingPong), "account-zero");
    EXPECT_STREQ(spam_kind_name(SpamKind::kGambling), "gambling");
}

}  // namespace
}  // namespace xrpl::datagen
