#include "core/deanonymizer.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/ig_accumulator.hpp"
#include "exec/chunked_view.hpp"
#include "exec/parallel.hpp"
#include "util/contract.hpp"

namespace xrpl::core {

namespace {
const std::vector<std::uint32_t> kNoMatches;
}  // namespace

IgResult Deanonymizer::information_gain(const ResolutionConfig& config) const {
    return ig_scan(view_, sender_ids(view_), config);
}

std::vector<ledger::AccountID> Deanonymizer::attack(
    const ledger::TxRecord& observation, const ResolutionConfig& config) const {
    const std::uint64_t fp = fingerprint(observation, config);
    const std::vector<std::uint64_t> fingerprints = fingerprint_column(view_, config);
    const std::span<const std::uint32_t> senders = sender_ids(view_);
    const ledger::AccountInterner& accounts = view_.columns().accounts;
    std::vector<ledger::AccountID> candidates;
    std::unordered_set<std::uint32_t> seen;
    for (std::size_t i = 0; i < fingerprints.size(); ++i) {
        if (fingerprints[i] != fp) continue;
        if (seen.insert(senders[i]).second) {
            candidates.push_back(accounts.at(senders[i]));
        }
    }
    return candidates;
}

std::vector<ledger::TxRecord> Deanonymizer::history_of(
    const ledger::AccountID& account) const {
    std::vector<ledger::TxRecord> history;
    const ledger::PaymentColumns& columns = view_.columns();
    const std::optional<std::uint32_t> id = columns.accounts.find(account);
    if (!id) return history;
    const std::span<const std::uint32_t> senders = sender_ids(view_);
    for (std::size_t i = 0; i < senders.size(); ++i) {
        if (senders[i] == *id) history.push_back(columns.row(view_.offset() + i));
    }
    return history;
}

AttackIndex::AttackIndex(const ledger::PaymentColumns& payments,
                         ResolutionConfig config)
    : AttackIndex(payments.view(), config) {}

AttackIndex::AttackIndex(ledger::PaymentView view, ResolutionConfig config)
    : view_(view), config_(config) {
    // Chunk-local fingerprint->rows maps, appended in chunk order:
    // chunk c's row indices all precede chunk c+1's, so every bucket
    // comes out ascending — byte-identical to the serial build.
    const FingerprintPlan plan(view.columns(), config_);
    const exec::ChunkedView chunks(view);
    using PartialIndex =
        std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>;
    index_ = exec::map_reduce<PartialIndex>(
        chunks.chunk_count(),
        [&](std::size_t c) {
            const exec::ChunkedView::Bounds b = chunks.bounds(c);
            const std::size_t n = b.end - b.begin;
            std::vector<std::uint64_t> fingerprints(n);
            plan.rows(view.offset() + b.begin, view.offset() + b.end,
                      fingerprints.data());
            PartialIndex local;
            local.reserve(n);
            for (std::size_t i = 0; i < n; ++i) {
                local[fingerprints[i]].push_back(
                    static_cast<std::uint32_t>(b.begin + i));
            }
            return local;
        },
        [](PartialIndex& acc, PartialIndex&& part) {
            if (acc.empty()) {
                acc = std::move(part);
                return;
            }
            for (auto& [fp, rows] : part) {
                std::vector<std::uint32_t>& bucket = acc[fp];
                bucket.insert(bucket.end(), rows.begin(), rows.end());
            }
        });
#if XRPL_CONTRACTS_ENABLED
    // Bucket consistency: the buckets partition the record range —
    // every record indexed exactly once, every stored index in range.
    // O(n) sweep, so contract builds only.
    std::size_t indexed = 0;
    for (const auto& [fp, rows] : index_) {
        indexed += rows.size();
        for (const std::uint32_t row : rows) {
            XRPL_INVARIANT(row < view.size(),
                           "attack-index buckets must reference real records");
        }
    }
    XRPL_INVARIANT(indexed == view.size(),
                   "attack-index buckets must partition the record range");
#endif
}

const std::vector<std::uint32_t>& AttackIndex::matches(
    const ledger::TxRecord& observation) const {
    const auto it = index_.find(fingerprint(observation, config_));
    return it == index_.end() ? kNoMatches : it->second;
}

std::vector<ledger::AccountID> AttackIndex::candidate_senders(
    const ledger::TxRecord& observation) const {
    const ledger::PaymentColumns& columns = view_.columns();
    std::vector<ledger::AccountID> senders;
    for (const std::uint32_t i : matches(observation)) {
        const ledger::AccountID& sender =
            columns.accounts.at(columns.sender_id[view_.offset() + i]);
        if (std::find(senders.begin(), senders.end(), sender) == senders.end()) {
            senders.push_back(sender);
        }
    }
    return senders;
}

}  // namespace xrpl::core
