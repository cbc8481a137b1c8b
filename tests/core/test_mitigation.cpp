#include "core/mitigation.hpp"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>

#include "util/rng.hpp"

namespace xrpl::core {
namespace {

using ledger::AccountID;
using ledger::Currency;
using ledger::IouAmount;
using ledger::PaymentColumns;
using ledger::TxRecord;

PaymentColumns habitual_history() {
    // Two users, each repeatedly paying the same shop the same amount
    // on DIFFERENT days: unique-sender at day resolution because each
    // (amount, day, shop) cell holds one sender.
    PaymentColumns payments;
    for (int day = 0; day < 12; ++day) {
        TxRecord a;
        a.sender = AccountID::from_seed("alice");
        a.destination = AccountID::from_seed("shop");
        a.currency = Currency::from_code("USD");
        a.amount = IouAmount::from_double(40.0);
        a.time = util::RippleTime{day * 86'400 + 3'600};
        payments.push_back(a);
        TxRecord b = a;
        b.sender = AccountID::from_seed("bob");
        b.time.seconds += 7'200;
        payments.push_back(b);
    }
    return payments;
}

std::size_t three_lines(const AccountID&) { return 3; }

TEST(MitigationTest, RotationSpreadsPaymentsAcrossWallets) {
    const PaymentColumns payments = habitual_history();
    WalletRotationConfig config;
    config.wallets_per_sender = 4;
    const RotatedColumns rotated =
        apply_wallet_rotation(payments, config, three_lines);

    ASSERT_EQ(rotated.payments.size(), payments.size());
    std::unordered_set<AccountID> wallets;
    for (std::size_t i = 0; i < payments.size(); ++i) {
        const TxRecord original = payments.row(i);
        const TxRecord record = rotated.payments.row(i);
        wallets.insert(record.sender);
        // Wallets are fresh accounts, not the owners.
        EXPECT_NE(record.sender, AccountID::from_seed("alice"));
        EXPECT_NE(record.sender, AccountID::from_seed("bob"));
        EXPECT_EQ(rotated.wallet_owner.at(record.sender), original.sender);
        // Only the sender changes.
        EXPECT_EQ(record.destination, original.destination);
        EXPECT_EQ(record.amount, original.amount);
        EXPECT_EQ(record.time.seconds, original.time.seconds);
    }
    EXPECT_EQ(wallets.size(), 8u);  // 2 owners x 4 wallets
}

TEST(MitigationTest, WalletOwnerMapIsComplete) {
    const PaymentColumns payments = habitual_history();
    WalletRotationConfig config;
    config.wallets_per_sender = 3;
    const RotatedColumns rotated =
        apply_wallet_rotation(payments, config, three_lines);
    for (std::size_t i = 0; i < rotated.payments.size(); ++i) {
        const auto it = rotated.wallet_owner.find(rotated.payments.row(i).sender);
        ASSERT_NE(it, rotated.wallet_owner.end());
        EXPECT_TRUE(it->second == AccountID::from_seed("alice") ||
                    it->second == AccountID::from_seed("bob"));
    }
}

TEST(MitigationTest, BootstrapCostScalesWithWalletsAndLines) {
    const PaymentColumns payments = habitual_history();
    WalletRotationConfig config;
    config.wallets_per_sender = 5;
    config.xrp_reserve_per_wallet = 20.0;
    config.xrp_reserve_per_trustline = 5.0;
    const RotatedColumns rotated =
        apply_wallet_rotation(payments, config, three_lines);
    EXPECT_EQ(rotated.wallets_created, 10u);       // 2 owners x 5
    EXPECT_EQ(rotated.trustlines_created, 30u);    // x 3 lines each
    EXPECT_DOUBLE_EQ(rotated.xrp_reserve_cost, 10 * 20.0 + 30 * 5.0);
}

TEST(MitigationTest, RotationDefeatsTheNaiveAttack) {
    // Each wallet used ~3 times; the day-resolution fingerprint that
    // identified alice now maps to several "different" senders? No —
    // wallets still belong to one owner each; uniqueness per wallet
    // remains. The defence shows up only when wallets COLLIDE across
    // owners: force it by making both users' payments identical in
    // features (same second, same amount, same shop).
    PaymentColumns payments;
    for (int i = 0; i < 8; ++i) {
        TxRecord a;
        a.sender = AccountID::from_seed("alice");
        a.destination = AccountID::from_seed("shop");
        a.currency = Currency::from_code("USD");
        a.amount = IouAmount::from_double(40.0);
        a.time = util::RippleTime{1'000 + i};  // distinct seconds
        payments.push_back(a);
    }
    // Without rotation every record is uniquely alice's (same sender).
    const Deanonymizer before(payments);
    EXPECT_DOUBLE_EQ(
        before.information_gain(full_resolution()).information_gain(), 1.0);

    // With per-transaction wallets each fingerprint maps to ONE wallet,
    // still "unique" — the defence does NOT protect distinct-feature
    // payments, exactly the paper's skepticism.
    WalletRotationConfig config;
    config.wallets_per_sender = 8;
    const RotatedColumns rotated =
        apply_wallet_rotation(payments, config, three_lines);
    const Deanonymizer after(rotated.payments);
    EXPECT_DOUBLE_EQ(
        after.information_gain(full_resolution()).information_gain(), 1.0);
    // What rotation DOES break is history linkage: the "financial
    // life" of any single wallet is a fraction of the real history.
    const auto life = after.history_of(rotated.payments.row(0).sender);
    EXPECT_EQ(life.size(), 1u);
}

TEST(MitigationTest, LinkageAttackRestoresTheBaseline) {
    const PaymentColumns payments = habitual_history();
    const ResolutionConfig resolution = full_resolution();

    WalletRotationConfig config;
    config.wallets_per_sender = 6;
    const MitigationReport report =
        evaluate_wallet_rotation(payments, resolution, config, three_lines);

    // Rotation does not reduce per-payment identification here (each
    // fingerprint still has one sender)...
    EXPECT_DOUBLE_EQ(report.rotated.information_gain(),
                     report.baseline.information_gain());
    // ...and the activation-linkage attack maps wallets back to their
    // owners, restoring the original IG exactly.
    EXPECT_DOUBLE_EQ(report.linked.information_gain(),
                     report.baseline.information_gain());
    EXPECT_GT(report.xrp_reserve_cost, 0.0);
}

TEST(MitigationTest, LinkedIgNeverBelowRotatedIg) {
    // Linking merges wallets into clusters: buckets that were
    // multi-wallet-but-one-owner become identified.
    util::Rng rng(5);
    PaymentColumns payments;
    for (int i = 0; i < 2'000; ++i) {
        TxRecord r;
        r.sender = AccountID::from_seed(
            "u" + std::to_string(rng.uniform_u64(0, 40)));
        r.destination = AccountID::from_seed(
            "m" + std::to_string(rng.uniform_u64(0, 5)));
        r.currency = Currency::from_code("USD");
        r.amount = IouAmount::from_double(
            10.0 * static_cast<double>(rng.uniform_u64(1, 6)));
        r.time = util::RippleTime{
            static_cast<std::int64_t>(rng.uniform_u64(0, 2'000))};
        payments.push_back(r);
    }
    ResolutionConfig coarse;
    coarse.amount = AmountResolution::kAverage;
    coarse.time = util::TimeResolution::kHours;
    WalletRotationConfig config;
    config.wallets_per_sender = 4;
    const MitigationReport report =
        evaluate_wallet_rotation(payments, coarse, config, three_lines);
    EXPECT_GE(report.linked.information_gain(),
              report.rotated.information_gain());
    EXPECT_NEAR(report.linked.information_gain(),
                report.baseline.information_gain(), 1e-12);
}

TEST(MitigationTest, ZeroWalletConfigBehavesAsOne) {
    const PaymentColumns payments = habitual_history();
    WalletRotationConfig config;
    config.wallets_per_sender = 0;
    const RotatedColumns rotated =
        apply_wallet_rotation(payments, config, three_lines);
    const std::unordered_set<std::uint32_t> wallets(
        rotated.payments.sender_id.begin(), rotated.payments.sender_id.end());
    EXPECT_EQ(wallets.size(), 2u);  // one wallet per owner
}

}  // namespace
}  // namespace xrpl::core
