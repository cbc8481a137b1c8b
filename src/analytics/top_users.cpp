#include "analytics/top_users.hpp"

#include <algorithm>

#include "exec/parallel.hpp"
#include "obs/metrics.hpp"

namespace xrpl::analytics {

namespace {

std::vector<std::pair<ledger::AccountID, std::uint64_t>> ranked(
    const std::unordered_map<ledger::AccountID, std::uint64_t>& counts) {
    std::vector<std::pair<ledger::AccountID, std::uint64_t>> entries(
        counts.begin(), counts.end());
    std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
        if (a.second != b.second) return a.second > b.second;
        return a.first < b.first;
    });
    return entries;
}

}  // namespace

std::vector<TopUser> top_intermediaries(
    const std::unordered_map<ledger::AccountID, std::uint64_t>& intermediary_counts,
    const ledger::LedgerState& ledger, std::size_t k,
    const std::function<double(ledger::Currency)>& rate_to_reference,
    const std::function<std::string(const ledger::AccountID&)>& label_of) {
    const auto entries = ranked(intermediary_counts);

    std::vector<TopUser> out;
    out.reserve(std::min(k, entries.size()));
    for (std::size_t i = 0; i < entries.size() && i < k; ++i) {
        TopUser user;
        user.account = entries[i].first;
        user.times_intermediate = entries[i].second;
        user.label = label_of(user.account);
        if (const ledger::AccountRoot* root = ledger.account(user.account)) {
            user.is_gateway = root->is_gateway;
        }
        const ledger::LedgerState::TrustSummary trust =
            ledger.trust_summary(user.account, rate_to_reference);
        user.trust_received = trust.received;
        user.trust_given = trust.given;
        user.balance = ledger.net_iou_balance(user.account, rate_to_reference);
        out.push_back(std::move(user));
    }
    return out;
}

double coverage_of_top(
    const std::unordered_map<ledger::AccountID, std::uint64_t>& intermediary_counts,
    std::size_t k) {
    const auto entries = ranked(intermediary_counts);
    std::uint64_t total = 0;
    std::uint64_t covered = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        total += entries[i].second;
        if (i < k) covered += entries[i].second;
    }
    return total == 0 ? 0.0
                      : static_cast<double>(covered) / static_cast<double>(total);
}

std::unordered_map<ledger::AccountID, std::uint64_t> sender_activity(
    ledger::PaymentView view) {
    static obs::Counter& scans = obs::counter("analytics.scans");
    scans.add();
    const ledger::PaymentColumns& columns = view.columns();
    const std::size_t offset = view.offset();

    // Per-chunk partials stay sparse — (interned id, count) pairs
    // sorted by id, at most one per row — so memory scales with the
    // chunk, not with the account dictionary. Two sorted runs merge
    // like a merge sort pass.
    using Partial = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
    const Partial merged = exec::map_reduce<Partial>(
        view.size(), exec::kDefaultChunkRows,
        [&](std::size_t begin, std::size_t end) {
            std::unordered_map<std::uint32_t, std::uint64_t> local;
            local.reserve(end - begin);
            for (std::size_t r = begin; r < end; ++r) {
                ++local[columns.sender_id[offset + r]];
            }
            Partial sparse(local.begin(), local.end());
            std::sort(sparse.begin(), sparse.end());
            return sparse;
        },
        [](Partial& acc, Partial&& part) {
            Partial combined;
            combined.reserve(acc.size() + part.size());
            std::size_t a = 0;
            std::size_t p = 0;
            while (a < acc.size() && p < part.size()) {
                if (acc[a].first < part[p].first) {
                    combined.push_back(acc[a++]);
                } else if (part[p].first < acc[a].first) {
                    combined.push_back(part[p++]);
                } else {
                    combined.emplace_back(acc[a].first,
                                          acc[a].second + part[p].second);
                    ++a;
                    ++p;
                }
            }
            combined.insert(combined.end(), acc.begin() + static_cast<std::ptrdiff_t>(a),
                            acc.end());
            combined.insert(combined.end(),
                            part.begin() + static_cast<std::ptrdiff_t>(p),
                            part.end());
            acc = std::move(combined);
        });

    std::unordered_map<ledger::AccountID, std::uint64_t> counts;
    counts.reserve(merged.size());
    for (const auto& [id, sent] : merged) {
        counts.emplace(columns.accounts.at(id), sent);
    }
    return counts;
}

}  // namespace xrpl::analytics
