#include "paths/trust_graph.hpp"

namespace xrpl::paths {

void TrustGraph::exclude(const ledger::AccountID& account) {
    excluded_.insert(account);
    stamp(account);
}

void TrustGraph::stamp(const ledger::AccountID& account) const {
    if (const ledger::AccountRoot* root = ledger_->account(account)) {
        if (excluded_stamp_.size() < ledger_->account_count()) {
            excluded_stamp_.resize(ledger_->account_count(), 0);
        }
        excluded_stamp_[root->index] = exclusion_epoch_;
    }
}

void TrustGraph::clear_exclusions() noexcept {
    excluded_.clear();
    ++exclusion_epoch_;
}

}  // namespace xrpl::paths
