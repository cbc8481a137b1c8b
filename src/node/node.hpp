// A full node: transactions flow from the queue through consensus
// into sealed ledger pages, and only then apply to the ledger state —
// the lifecycle of §III-B ("once the transaction is successfully
// included in the ledger, it is considered final, complete, and
// immutable").
//
// Per round:
//   1. pull a candidate batch from the open-ledger queue;
//   2. run the RPCA round with the batch's transaction ids in the
//      candidate page;
//   3. if the page reaches quorum, apply the transactions in order
//      (failures are still part of the sealed page, like the real
//      ledger's tec-class results); if quorum fails, the batch goes
//      back to the queue and is retried next round.
#pragma once

#include <cstdint>
#include <vector>

#include "consensus/rpca.hpp"
#include "consensus/validation_stream.hpp"
#include "node/tx_queue.hpp"
#include "paths/payment_engine.hpp"

namespace xrpl::node {

struct NodeConfig {
    consensus::ConsensusConfig consensus;
    /// Max transactions sealed per page.
    std::size_t max_txs_per_page = 20;
};

/// One transaction's fate inside a sealed page.
struct AppliedTx {
    ledger::Hash256 id;
    bool success = false;  // false = included with a tec-style failure
    ledger::TxResult result;
};

/// Per-round report.
struct RoundReport {
    consensus::RoundOutcome outcome;
    util::RippleTime close_time;
    std::vector<AppliedTx> applied;   // empty when the round failed
    std::size_t retried = 0;          // batch size sent back to the queue
};

class Node {
public:
    Node(ledger::LedgerState& state,
         std::vector<consensus::ValidatorSpec> validators, NodeConfig config);

    /// Submit a transaction to the open ledger, offering
    /// ledger::kBaseFee unless the caller names a fee.
    TransactionQueue::SubmitResult submit(const ledger::Transaction& tx);
    TransactionQueue::SubmitResult submit(const ledger::Transaction& tx,
                                          ledger::XrpAmount fee);

    /// Advance the clock one close interval and run a consensus round.
    RoundReport run_round();

    /// Convenience: run rounds until the queue drains (or `max_rounds`).
    std::vector<RoundReport> run_until_idle(std::size_t max_rounds);

    [[nodiscard]] const ledger::LedgerHistory& chain() const noexcept {
        return consensus_.main_chain();
    }
    [[nodiscard]] consensus::ValidationStream& stream() noexcept { return stream_; }
    [[nodiscard]] const std::vector<consensus::Validator>& validators()
        const noexcept {
        return consensus_.validators();
    }
    [[nodiscard]] TransactionQueue& queue() noexcept { return queue_; }
    [[nodiscard]] paths::PaymentEngine& engine() noexcept { return engine_; }
    [[nodiscard]] std::uint64_t rounds_run() const noexcept { return round_; }
    [[nodiscard]] util::RippleTime now() const noexcept { return clock_; }

private:
    NodeConfig config_;
    paths::PaymentEngine engine_;
    consensus::ConsensusSimulation consensus_;
    consensus::ValidationStream stream_;
    TransactionQueue queue_;
    std::uint64_t round_ = 0;
    util::RippleTime clock_;
};

}  // namespace xrpl::node
