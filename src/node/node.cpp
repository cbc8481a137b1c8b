#include "node/node.hpp"

namespace xrpl::node {

Node::Node(ledger::LedgerState& state,
           std::vector<consensus::ValidatorSpec> validators, NodeConfig config)
    : config_(config),
      engine_(state),
      consensus_(std::move(validators), config.consensus),
      clock_(config.consensus.start_time) {}

TransactionQueue::SubmitResult Node::submit(const ledger::Transaction& tx) {
    return submit(tx, ledger::kBaseFee);
}

TransactionQueue::SubmitResult Node::submit(const ledger::Transaction& tx,
                                            ledger::XrpAmount fee) {
    return queue_.submit(tx, fee);
}

RoundReport Node::run_round() {
    ++round_;
    clock_.seconds += static_cast<std::int64_t>(
        config_.consensus.round_interval_seconds);

    std::vector<ledger::Transaction> batch =
        queue_.next_batch(config_.max_txs_per_page);
    std::vector<ledger::Hash256> tx_ids;
    tx_ids.reserve(batch.size());
    for (const ledger::Transaction& tx : batch) tx_ids.push_back(tx.id());

    RoundReport report;
    report.close_time = clock_;
    report.outcome = consensus_.run_round(round_, clock_, std::move(tx_ids), stream_);

    if (!report.outcome.main_closed) {
        // No agreement: the candidate set is retried next round.
        queue_.requeue(batch);
        report.retried = batch.size();
        return report;
    }

    // The page is sealed; apply its transactions deterministically.
    // Failures stay in the page (tec-style), exactly like the real
    // ledger — finality is about inclusion, not success.
    report.applied.reserve(batch.size());
    for (const ledger::Transaction& tx : batch) {
        AppliedTx applied;
        applied.id = tx.id();
        applied.result = engine_.apply(tx);
        applied.result.close_time = clock_;
        applied.success = applied.result.success;
        report.applied.push_back(std::move(applied));
    }
    return report;
}

std::vector<RoundReport> Node::run_until_idle(std::size_t max_rounds) {
    std::vector<RoundReport> reports;
    for (std::size_t i = 0; i < max_rounds; ++i) {
        const bool had_work = !queue_.empty();
        reports.push_back(run_round());
        if (!had_work && queue_.empty()) break;
    }
    return reports;
}

}  // namespace xrpl::node
