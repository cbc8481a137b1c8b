// RPCA — the Ripple Protocol Consensus Algorithm, simulated.
//
// Each round a candidate page is proposed on the main chain; every
// mainnet validator that participates signs either the candidate
// (if in sync) or a divergent page (laggards sign stale pages, forked
// validators sign their private chain). The page seals when at least
// `quorum` (80% after the 2015 protocol change the paper cites) of
// the curated UNL signed the candidate. Testnet validators run the
// same protocol on their own parallel chain.
//
// All signatures flow through the ValidationStream, which is exactly
// what the paper's measurement server saw.
#pragma once

#include <cstdint>
#include <vector>

#include "consensus/validation_stream.hpp"
#include "consensus/validator.hpp"
#include "ledger/ledger_history.hpp"
#include "util/ripple_time.hpp"
#include "util/rng.hpp"

namespace xrpl::consensus {

struct ConsensusConfig {
    /// Fraction of UNL validations required to seal a page.
    double quorum = 0.80;
    /// Wall-clock spacing between rounds. The paper's two-week
    /// captures top out near 250K pages, implying ~4.8s per round.
    double round_interval_seconds = 4.8;
    /// Number of rounds to simulate.
    std::uint64_t rounds = 252'000;
    util::RippleTime start_time{};
    std::uint64_t seed = 1;
};

/// Aggregate outcome of a simulation run.
struct ConsensusStats {
    std::uint64_t rounds = 0;
    std::uint64_t main_pages_closed = 0;
    std::uint64_t main_rounds_failed = 0;   // quorum not reached
    std::uint64_t testnet_pages_closed = 0;
};

/// Outcome of one consensus round on the main chain.
struct RoundOutcome {
    bool main_closed = false;
    bool testnet_closed = false;
    /// Hash of the page sealed on the main chain (when main_closed).
    ledger::Hash256 main_page;
};

/// The network simulator.
class ConsensusSimulation {
public:
    ConsensusSimulation(std::vector<ValidatorSpec> specs, ConsensusConfig config);

    /// Run every round, publishing to `stream`.
    ConsensusStats run(ValidationStream& stream);

    /// Run a single round whose main-chain candidate page carries
    /// `tx_ids` (a full node drives this to seal real transactions).
    /// `round` must increase monotonically across calls.
    RoundOutcome run_round(std::uint64_t round, util::RippleTime close_time,
                           std::vector<ledger::Hash256> tx_ids,
                           ValidationStream& stream);

    [[nodiscard]] const std::vector<Validator>& validators() const noexcept {
        return validators_;
    }
    [[nodiscard]] const ledger::LedgerHistory& main_chain() const noexcept {
        return main_chain_;
    }
    [[nodiscard]] const ledger::LedgerHistory& testnet_chain() const noexcept {
        return testnet_chain_;
    }
    [[nodiscard]] const ConsensusConfig& config() const noexcept { return config_; }

    /// Size of the curated UNL (quorum denominator).
    [[nodiscard]] std::size_t unl_size() const noexcept { return unl_size_; }

private:
    std::vector<Validator> validators_;
    ConsensusConfig config_;
    ledger::LedgerHistory main_chain_;
    ledger::LedgerHistory testnet_chain_;
    std::size_t unl_size_ = 0;
    std::size_t testnet_size_ = 0;  // testnet validators (its quorum denominator)
    // Placeholder generator; re-seeded from config_.seed (a stream
    // key) on the first round.
    util::Rng rng_ = util::RngStream(0).rng();
    bool rng_seeded_ = false;
    ConsensusStats cumulative_;
    // Last round run_round() saw; enforces its monotonicity contract
    // (one candidate per round, so no validator can sign twice for the
    // same sequence number).
    std::uint64_t last_round_ = 0;
};

}  // namespace xrpl::consensus
