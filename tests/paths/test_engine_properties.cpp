// Property tests on the payment engine: conservation laws and
// all-or-nothing semantics over randomized worlds and workloads.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "paths/payment_engine.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

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

struct World {
    LedgerState state;
    std::vector<AccountID> gateways;
    std::vector<AccountID> makers;
    std::vector<AccountID> users;
    std::int64_t initial_drops = 0;
};

World build_world(std::uint64_t seed) {
    World world;
    util::Rng rng(seed);
    for (int g = 0; g < 6; ++g) {
        const AccountID id = AccountID::from_seed("pw:gw" + std::to_string(g));
        world.state.create_account(id, XrpAmount::from_xrp(1e5), true);
        world.gateways.push_back(id);
    }
    for (int m = 0; m < 4; ++m) {
        const AccountID id = AccountID::from_seed("pw:mm" + std::to_string(m));
        world.state.create_account(id, XrpAmount::from_xrp(1e7), false, true);
        world.makers.push_back(id);
        for (const AccountID& gw : world.gateways) {
            for (const Currency c : {kUsd, kEur}) {
                ledger::TrustLine& line =
                    world.state.set_trust(id, gw, c, IouAmount::from_double(1e9));
                (void)line.transfer_from(gw, IouAmount::from_double(1e6));
            }
        }
        world.state.place_offer(world.makers[static_cast<std::size_t>(m)],
                                Amount::iou(kUsd, 1.1e5), Amount::iou(kEur, 1e5));
        world.state.place_offer(world.makers[static_cast<std::size_t>(m)],
                                Amount::iou(kUsd, 1e5),
                                Amount::iou(Currency::xrp(), 1e7));
        world.state.place_offer(world.makers[static_cast<std::size_t>(m)],
                                Amount::iou(Currency::xrp(), 1.2e7),
                                Amount::iou(kEur, 1e5));
    }
    for (int u = 0; u < 40; ++u) {
        const AccountID id = AccountID::from_seed("pw:user" + std::to_string(u));
        world.state.create_account(id, XrpAmount::from_xrp(1'000));
        world.users.push_back(id);
        const Currency home = rng.bernoulli(0.5) ? kUsd : kEur;
        for (int k = 0; k < 2; ++k) {
            const AccountID& gw =
                world.gateways[rng.uniform_u64(0, world.gateways.size() - 1)];
            ledger::TrustLine& line =
                world.state.set_trust(id, gw, home, IouAmount::from_double(1e6));
            (void)line.transfer_from(gw, IouAmount::from_double(500.0));
        }
    }
    for (const ledger::AccountRoot& root : world.state.accounts()) {
        world.initial_drops += root.balance.drops;
    }
    return world;
}

/// Digest of all balances and offers — detects ANY state change: every
/// account's XRP, every line balance (mantissa and exponent), and each
/// book in order, offer by offer (id, owner, both amounts).
std::string state_digest(const LedgerState& state) {
    util::Sha256 hasher;
    const auto put = [&hasher](std::int64_t value) {
        const auto bits = static_cast<std::uint64_t>(value);
        std::array<std::uint8_t, 8> buf;
        for (int b = 0; b < 8; ++b) {
            buf[static_cast<std::size_t>(b)] =
                static_cast<std::uint8_t>(bits >> (8 * b));
        }
        hasher.update(buf);
    };
    const auto put_amount = [&put](const IouAmount& amount) {
        put(amount.mantissa());
        put(amount.exponent());
    };
    for (std::size_t i = 0; i < state.account_count(); ++i) {
        const AccountID& id = state.account_by_index(static_cast<std::uint32_t>(i));
        hasher.update(id.bytes);
        put(state.account(id)->balance.drops);
        for (const ledger::TrustLine* line : state.lines_of(id)) {
            put_amount(line->balance());
        }
    }
    for (const auto& [key, offers] : state.books()) {
        for (const ledger::Offer& offer : offers) {
            put(static_cast<std::int64_t>(offer.id));
            hasher.update(offer.owner.bytes);
            put_amount(offer.taker_pays.value);
            put_amount(offer.taker_gets.value);
        }
    }
    return util::to_hex(hasher.finish());
}

PaymentRequest random_payment(const World& world, util::Rng& rng) {
    PaymentRequest request;
    request.sender = world.users[rng.uniform_u64(0, world.users.size() - 1)];
    request.destination = world.users[rng.uniform_u64(0, world.users.size() - 1)];
    const int kind = static_cast<int>(rng.uniform_u64(0, 2));
    if (kind == 0) {
        request.deliver = Amount::xrp(rng.lognormal(2.0, 2.0));
        request.source_currency = Currency::xrp();
    } else if (kind == 1) {
        const Currency c = rng.bernoulli(0.5) ? kUsd : kEur;
        request.deliver = Amount::iou(c, rng.lognormal(2.0, 2.0));
        request.source_currency = c;
    } else {
        request.deliver = Amount::iou(kEur, rng.lognormal(2.0, 1.5));
        request.source_currency = kUsd;
    }
    return request;
}

class EngineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineProperty, XrpIsConservedModuloBurns) {
    World world = build_world(GetParam());
    PaymentEngine engine(world.state);
    util::Rng rng(GetParam() * 31 + 7);
    for (int i = 0; i < 400; ++i) {
        (void)engine.execute(random_payment(world, rng));
    }
    std::int64_t total = 0;
    for (const ledger::AccountRoot& root : world.state.accounts()) {
        total += root.balance.drops;
    }
    EXPECT_EQ(total + world.state.burned_fees().drops, world.initial_drops);
}

TEST_P(EngineProperty, FailedPaymentsLeaveNoTrace) {
    World world = build_world(GetParam());
    PaymentEngine engine(world.state);
    util::Rng rng(GetParam() * 97 + 3);
    int failures = 0;
    for (int i = 0; i < 300 && failures < 40; ++i) {
        PaymentRequest request = random_payment(world, rng);
        // Push some requests far beyond any capacity to force failure.
        if (rng.bernoulli(0.5)) {
            request.deliver.value = IouAmount::from_double(1e14);
        }
        const std::string before = state_digest(world.state);
        const ledger::TxResult result = engine.execute(request);
        if (!result.success) {
            ++failures;
            EXPECT_EQ(state_digest(world.state), before);
        }
    }
    EXPECT_GT(failures, 0);
}

TEST_P(EngineProperty, TrustLineClaimsRespectLimits) {
    World world = build_world(GetParam());
    PaymentEngine engine(world.state);
    util::Rng rng(GetParam() * 13 + 1);
    for (int i = 0; i < 400; ++i) {
        (void)engine.execute(random_payment(world, rng));
    }
    for (const AccountID& user : world.users) {
        for (const ledger::TrustLine* line : world.state.lines_of(user)) {
            const IouAmount claim = line->balance_for(user);
            if (!claim.is_negative()) {
                EXPECT_LE(claim.to_double(),
                          line->limit_of(user).to_double() * (1.0 + 1e-9));
            }
        }
    }
}

TEST_P(EngineProperty, SuccessfulResultsReportWhatHappened) {
    World world = build_world(GetParam());
    PaymentEngine engine(world.state);
    util::Rng rng(GetParam() * 41 + 11);
    for (int i = 0; i < 200; ++i) {
        const PaymentRequest request = random_payment(world, rng);
        const ledger::TxResult result = engine.execute(request);
        if (!result.success) continue;
        EXPECT_GE(result.parallel_paths, 1u);
        EXPECT_EQ(result.cross_currency, request.cross_currency());
        // Intermediaries reported iff the payment was not direct.
        if (result.intermediate_hops > 0) {
            EXPECT_FALSE(result.intermediaries.empty());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// One seeded case the random workloads cannot reach, since no user
// holds enough to take a whole offer: a USD->EUR payment fully consumes
// maker 0's offer, ahead of three at the same rate, and then fails on
// the leg to a destination without an EUR line.
TEST(EngineRollbackTest, FailedCrossThroughEqualRateOffersLeavesNoTrace) {
    World world = build_world(21);
    const AccountID whale = AccountID::from_seed("pw:whale");
    const AccountID no_eur = AccountID::from_seed("pw:no-eur");
    world.state.create_account(whale, XrpAmount::from_xrp(1'000));
    world.state.create_account(no_eur, XrpAmount::from_xrp(1'000));
    ledger::TrustLine& line = world.state.set_trust(
        whale, world.gateways.front(), kUsd, IouAmount::from_double(1e9));
    ASSERT_TRUE(line.transfer_from(world.gateways.front(),
                                   IouAmount::from_double(2e5)));

    PaymentRequest request;
    request.sender = whale;
    request.destination = no_eur;
    request.deliver = Amount::iou(kEur, 1e5);  // all of maker 0's offer
    request.source_currency = kUsd;
    const std::string before = state_digest(world.state);
    PaymentEngine engine(world.state);
    EXPECT_FALSE(engine.execute(request).success);
    EXPECT_EQ(state_digest(world.state), before);
}

}  // namespace
}  // namespace xrpl::paths
