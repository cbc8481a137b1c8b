// Robustness experiments for §IV's discussion.
//
// The paper's concern: "a malicious party hijacking or compromising
// the majority of these validators could endanger the whole Ripple
// system". takeover_sweep() measures it directly — knock out the k
// most available UNL validators and watch the close rate.
//
// The paper's proposed remedy: "introducing a carefully crafted
// reward system ... defined as an added tax value to the transactions
// that go through in each validation round. A larger number of
// validators would lead to a better distributed validation process."
// simulate_reward_adoption() models that economy: validators join
// while per-validator revenue beats operating cost, and the takeover
// resistance of the grown population is reported each epoch.
#pragma once

#include <cstdint>
#include <vector>

#include "consensus/period_config.hpp"
#include "consensus/rpca.hpp"
#include "util/rng.hpp"

namespace xrpl::consensus {

/// One point of the takeover sweep.
struct TakeoverResult {
    std::size_t compromised = 0;  // UNL validators knocked out
    std::uint64_t rounds = 0;
    std::uint64_t pages_closed = 0;

    [[nodiscard]] double close_rate() const noexcept {
        return rounds == 0 ? 0.0
                           : static_cast<double>(pages_closed) /
                                 static_cast<double>(rounds);
    }
};

/// Re-run the period's consensus with 0..max_compromised of its most
/// available UNL validators disabled (availability forced to zero).
[[nodiscard]] std::vector<TakeoverResult> takeover_sweep(
    const PeriodSpec& period, const ConsensusConfig& config,
    std::size_t max_compromised);

/// Probability that a round closes when `validators` independent UNL
/// members are each up with probability `availability` and quorum is
/// `quorum` — the analytic binomial tail P(up >= ceil(quorum * n)):
/// close_probability_after_takeover with nobody compromised.
[[nodiscard]] double close_probability(std::size_t validators,
                                       double availability, double quorum);

/// The reward economy.
struct RewardPolicy {
    /// Fee income a validator collects per epoch when validating
    /// (the paper's "added tax value"), in XRP.
    double reward_per_epoch = 1'000.0;
    /// What running a validator costs per epoch ("powerful machines
    /// with broadband internet"), in XRP.
    double operating_cost_per_epoch = 400.0;
    /// Marginal reward dilution: income is split across validators.
    /// Effective income per validator = reward_per_epoch * initial /
    /// current (the tax pool is roughly constant).
    std::size_t initial_validators = 5;
    /// Adoption responsiveness: expected joiners per epoch per unit of
    /// profit ratio above break-even.
    double adoption_rate = 3.0;
    /// Validator availability assumed for the robustness metric.
    double availability = 0.95;
    double quorum = 0.80;
};

/// P(a round closes) when an attacker has knocked out `compromised`
/// of the `validators` UNL members: the survivors must still carry
/// the quorum computed over the FULL list.
[[nodiscard]] double close_probability_after_takeover(std::size_t validators,
                                                      std::size_t compromised,
                                                      double availability,
                                                      double quorum);

struct RewardEpoch {
    std::size_t epoch = 0;
    std::size_t validators = 0;
    double income_per_validator = 0.0;
    /// P(a round closes) if an attacker takes out the 8 busiest
    /// validators — roughly today's entire independent active set.
    double close_rate_under_takeover_of_8 = 0.0;
};

/// Simulate `epochs` of validator-population dynamics under `policy`,
/// drawing the adoption noise from `stream`.
[[nodiscard]] std::vector<RewardEpoch> simulate_reward_adoption(
    const RewardPolicy& policy, std::size_t epochs,
    const util::RngStream& stream);

}  // namespace xrpl::consensus
