// Golden Fig 2: the three capture periods at a small scale and a fixed
// seed, pinned end to end.
//
// Each period's main and testnet tip hash pins every page digest of
// both chains (a page hashes its parent), the page counts pin the
// quorum outcomes, a digest of the validation stream pins every signed
// hash (divergent ones included) in publication order, and the
// per-behaviour-class Σ total / Σ valid pages pin the monitor's
// Hash256-keyed pending-signature bookkeeping.
// A change to SHA-256, to the page layout or to the monitor's
// containers that moves any digest or credit shows up here.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "consensus/monitor.hpp"
#include "consensus/period_config.hpp"
#include "consensus/rpca.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace xrpl::consensus {
namespace {

constexpr double kScale = 0.01;  // 2,520 rounds a period
constexpr std::uint64_t kSeed = 20151201;
constexpr std::size_t kClasses = 6;  // ValidatorBehavior, kCore..kIdler

struct PeriodGolden {
    const char* main_tip;
    const char* testnet_tip;  // "" when the testnet chain is empty
    const char* stream;       // see StreamDigest
    std::uint64_t main_pages;
    std::uint64_t testnet_pages;
    // Indexed by ValidatorBehavior.
    std::array<std::uint64_t, kClasses> total;
    std::array<std::uint64_t, kClasses> valid;
};

// Computed once from the simulator as of these tests' introduction.
// The main chain seals every round at this scale, so the three main
// tips coincide: same sequences, close times and (empty) pages.
constexpr std::array<PeriodGolden, 3> kGolden = {{
    {"7e8704fc455a1fab96c59587833b6d5f7d5b83cc3d5cb424512c84fc85c1f096",
     "",
     "d51ea6232ff74b27bcf382b71cccdd22e9752f8fefd092ef15d7df693e14322c",
     2520, 0,
     {12542, 8391, 4781, 40356, 0, 0},
     {12542, 8351, 544, 0, 0, 0}},  // December 2015
    {"7e8704fc455a1fab96c59587833b6d5f7d5b83cc3d5cb424512c84fc85c1f096",
     "27a2ef3748d9ef1b7b32e563360384382512380cdff39410116fdc00461b1376",
     "d6d5cf9555de8a877ad8d09399f77818c42e20a1e72117abc9f755549e70d72e",
     2520, 2489,
     {12527, 23029, 3086, 12018, 12214, 160},
     {12527, 22925, 342, 0, 0, 141}},  // July 2016
    {"7e8704fc455a1fab96c59587833b6d5f7d5b83cc3d5cb424512c84fc85c1f096",
     "db3c00daa6ae3a2156983e1d99c93e8cce237a5bda01b17503a55ee0f5a73076",
     "3742fbe78240b48f3421408b72c12a8e94aa62752eab5004980ece0033b5aa21",
     2520, 2497,
     {12532, 18591, 2923, 18230, 12251, 252},
     {12532, 18517, 332, 0, 0, 223}},  // November 2016
}};

struct PeriodResult {
    std::string main_tip;
    std::string testnet_tip;
    std::string stream;
    std::uint64_t main_pages = 0;
    std::uint64_t testnet_pages = 0;
    std::array<std::uint64_t, kClasses> total{};
    std::array<std::uint64_t, kClasses> valid{};
};

/// SHA-256 over every validation as (round as 8 bytes, validator index
/// as 4 bytes, both big-endian, then the signed page hash).
class StreamDigest {
public:
    void add(const ValidationMessage& message) {
        std::array<std::uint8_t, 12> header{};
        for (std::size_t i = 0; i < 8; ++i) {
            header[i] = static_cast<std::uint8_t>(message.round >> (56 - 8 * i));
        }
        for (std::size_t i = 0; i < 4; ++i) {
            header[8 + i] =
                static_cast<std::uint8_t>(message.validator_index >> (24 - 8 * i));
        }
        hasher_.update(header);
        hasher_.update(message.page_hash.bytes);
    }
    [[nodiscard]] std::string hex() { return util::to_hex(hasher_.finish()); }

private:
    util::Sha256 hasher_;
};

std::string tip(const ledger::LedgerHistory& chain) {
    return chain.empty() ? std::string() : chain.last().hash.to_hex();
}

/// Runs one period round by round, the way ConsensusSimulation::run
/// steps its clock, checking each round's outcome against the chain.
PeriodResult run_period(const PeriodSpec& period, const util::RngStream& stream) {
    const ConsensusConfig config = two_week_config(kScale, stream);
    ConsensusSimulation sim(period.validators, config);
    ValidationStream validations;
    ValidationMonitor monitor(sim.validators());
    monitor.attach(validations);
    StreamDigest digest;
    validations.subscribe_validations(
        [&digest](const ValidationMessage& message) { digest.add(message); });

    double clock = 0.0;
    for (std::uint64_t round = 1; round <= config.rounds; ++round) {
        clock += config.round_interval_seconds;
        const util::RippleTime close_time{config.start_time.seconds +
                                          static_cast<std::int64_t>(clock)};
        const std::size_t main_before = sim.main_chain().size();
        const RoundOutcome outcome = sim.run_round(round, close_time, {}, validations);
        EXPECT_EQ(sim.main_chain().size(), main_before + (outcome.main_closed ? 1 : 0))
            << period.name << " round " << round;
        if (outcome.main_closed) {
            EXPECT_EQ(outcome.main_page, sim.main_chain().last().hash)
                << period.name << " round " << round;
        }
    }
    EXPECT_EQ(sim.main_chain().verify_chain(), sim.main_chain().size()) << period.name;
    EXPECT_EQ(sim.testnet_chain().verify_chain(), sim.testnet_chain().size())
        << period.name;

    PeriodResult result;
    result.main_tip = tip(sim.main_chain());
    result.testnet_tip = tip(sim.testnet_chain());
    result.stream = digest.hex();
    result.main_pages = sim.main_chain().size();
    result.testnet_pages = sim.testnet_chain().size();
    for (const ValidatorReport& report : monitor.report()) {
        const auto cls = static_cast<std::size_t>(report.behavior);
        result.total[cls] += report.total_pages;
        result.valid[cls] += report.valid_pages;
    }

    // ConsensusSimulation::run takes the same steps.
    ConsensusSimulation batch(period.validators, config);
    ValidationStream batch_stream;
    const ConsensusStats stats = batch.run(batch_stream);
    EXPECT_EQ(stats.main_pages_closed, result.main_pages) << period.name;
    EXPECT_EQ(stats.testnet_pages_closed, result.testnet_pages) << period.name;
    EXPECT_EQ(tip(batch.main_chain()), result.main_tip) << period.name;
    EXPECT_EQ(tip(batch.testnet_chain()), result.testnet_tip) << period.name;
    return result;
}

std::vector<PeriodResult> run_all() {
    const util::RngStream root(kSeed);
    std::vector<PeriodResult> results;
    std::uint64_t index = 0;
    for (const PeriodSpec& period : all_periods()) {
        results.push_back(run_period(period, root.derive("period", index++)));
    }
    return results;
}

TEST(ConsensusGoldenTest, ChainTipsStreamsAndPageCountsArePinned) {
    const std::vector<PeriodResult> results = run_all();
    ASSERT_EQ(results.size(), kGolden.size());
    for (std::size_t p = 0; p < kGolden.size(); ++p) {
        SCOPED_TRACE("period " + std::to_string(p));
        EXPECT_EQ(results[p].main_tip, kGolden[p].main_tip);
        EXPECT_EQ(results[p].testnet_tip, kGolden[p].testnet_tip);
        EXPECT_EQ(results[p].stream, kGolden[p].stream);
        EXPECT_EQ(results[p].main_pages, kGolden[p].main_pages);
        EXPECT_EQ(results[p].testnet_pages, kGolden[p].testnet_pages);
    }
}

TEST(ConsensusGoldenTest, PagesPerBehaviourClassArePinned) {
    const std::vector<PeriodResult> results = run_all();
    ASSERT_EQ(results.size(), kGolden.size());
    for (std::size_t p = 0; p < kGolden.size(); ++p) {
        for (std::size_t c = 0; c < kClasses; ++c) {
            SCOPED_TRACE("period " + std::to_string(p) + ", class " +
                         behavior_name(static_cast<ValidatorBehavior>(c)));
            EXPECT_EQ(results[p].total[c], kGolden[p].total[c]);
            EXPECT_EQ(results[p].valid[c], kGolden[p].valid[c]);
        }
    }
}

// The capture periods seal every main round at this scale, so a UNL
// that misses quorum about half the time pins the failed-round path: a
// failed round leaves the chain as it was, and the next candidate
// reuses its sequence under a later close time.
TEST(ConsensusGoldenTest, StrugglingUnlChainIsPinned) {
    std::vector<ValidatorSpec> validators;
    for (int i = 0; i < 5; ++i) {
        ValidatorSpec v;
        v.label = "unl-" + std::to_string(i);
        v.behavior = ValidatorBehavior::kCore;
        v.availability = 0.7;
        v.on_unl = true;
        validators.push_back(v);
    }
    ConsensusConfig config;
    config.rounds = 500;
    config.seed = 5;
    config.start_time = util::RippleTime{1000};
    ConsensusSimulation sim(validators, config);
    ValidationStream stream;
    const ConsensusStats stats = sim.run(stream);
    EXPECT_EQ(stats.main_pages_closed, 259u);
    EXPECT_EQ(stats.main_rounds_failed, 241u);
    EXPECT_EQ(sim.main_chain().verify_chain(), sim.main_chain().size());
    EXPECT_EQ(sim.main_chain().last().hash.to_hex(),
              "fc73b0b14067532621404c704c34375ef4e2bcc74bf2564f9e0b949d0f7dec47");
}

}  // namespace
}  // namespace xrpl::consensus
