#include "consensus/robustness.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace xrpl::consensus {

std::vector<TakeoverResult> takeover_sweep(const PeriodSpec& period,
                                           const ConsensusConfig& config,
                                           std::size_t max_compromised) {
    // UNL validators, most available first — the attacker goes after
    // the workhorses.
    std::vector<std::size_t> unl_indices;
    for (std::size_t i = 0; i < period.validators.size(); ++i) {
        if (period.validators[i].on_unl) unl_indices.push_back(i);
    }
    std::sort(unl_indices.begin(), unl_indices.end(),
              [&](std::size_t a, std::size_t b) {
                  const auto avail = [&](std::size_t i) {
                      const ValidatorSpec& v = period.validators[i];
                      return v.availability >= 0.0
                                 ? v.availability
                                 : default_availability(v.behavior);
                  };
                  return avail(a) > avail(b);
              });

    std::vector<TakeoverResult> results;
    for (std::size_t k = 0; k <= std::min(max_compromised, unl_indices.size());
         ++k) {
        std::vector<ValidatorSpec> validators = period.validators;
        for (std::size_t i = 0; i < k; ++i) {
            validators[unl_indices[i]].availability = 0.0;
        }
        ConsensusSimulation sim(validators, config);
        ValidationStream stream;
        const ConsensusStats stats = sim.run(stream);

        TakeoverResult result;
        result.compromised = k;
        result.rounds = stats.rounds;
        result.pages_closed = stats.main_pages_closed;
        results.push_back(result);
    }
    return results;
}

double close_probability(std::size_t validators, double availability,
                         double quorum) {
    return close_probability_after_takeover(validators, 0, availability, quorum);
}

double close_probability_after_takeover(std::size_t validators,
                                        std::size_t compromised,
                                        double availability, double quorum) {
    if (validators == 0 || compromised >= validators) return 0.0;
    const auto needed = static_cast<std::size_t>(
        std::ceil(quorum * static_cast<double>(validators)));
    const std::size_t survivors = validators - compromised;
    if (needed > survivors) return 0.0;
    if (availability >= 1.0) return 1.0;
    if (availability <= 0.0) return needed == 0 ? 1.0 : 0.0;
    // P(Bin(survivors, availability) >= needed).
    double probability = 0.0;
    double term = std::pow(1.0 - availability, survivors);
    for (std::size_t k = 0; k <= survivors; ++k) {
        if (k >= needed) probability += term;
        if (k < survivors) {
            term *= (static_cast<double>(survivors - k) /
                     static_cast<double>(k + 1)) *
                    (availability / (1.0 - availability));
        }
    }
    return std::min(probability, 1.0);
}

std::vector<RewardEpoch> simulate_reward_adoption(
    const RewardPolicy& policy, std::size_t epochs,
    const util::RngStream& stream) {
    util::Rng rng = stream.rng();
    std::vector<RewardEpoch> trajectory;
    trajectory.reserve(epochs);

    std::size_t validators = policy.initial_validators;
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
        const double income =
            policy.reward_per_epoch *
            static_cast<double>(policy.initial_validators) /
            static_cast<double>(std::max<std::size_t>(validators, 1));

        RewardEpoch point;
        point.epoch = epoch;
        point.validators = validators;
        point.income_per_validator = income;
        point.close_rate_under_takeover_of_8 = close_probability_after_takeover(
            validators, 8, policy.availability, policy.quorum);
        trajectory.push_back(point);

        // Population dynamics: profit attracts, loss repels.
        const double ratio = income / policy.operating_cost_per_epoch;
        if (ratio > 1.0) {
            const double expected = policy.adoption_rate * (ratio - 1.0);
            std::size_t joiners = 0;
            // Poisson via repeated Bernoulli thinning (small means).
            double remaining = expected;
            while (remaining > 0.0) {
                if (rng.bernoulli(std::min(1.0, remaining))) ++joiners;
                remaining -= 1.0;
            }
            validators += joiners;
        } else if (ratio < 0.8 && validators > policy.initial_validators) {
            // Operators shut down when clearly under water, but the
            // original core never leaves (as the paper expects of
            // Ripple Labs' R1-R5).
            --validators;
        }
    }
    return trajectory;
}

}  // namespace xrpl::consensus
