#include "core/clustering.hpp"

#include <unordered_set>

#include "core/fingerprint_groups.hpp"

namespace xrpl::core {

ledger::AccountID AccountClusters::find(const ledger::AccountID& account) const {
    auto it = parent_.find(account);
    if (it == parent_.end()) return account;
    // Path compression: point every node on the chain at the root.
    std::vector<ledger::AccountID> chain;
    ledger::AccountID cursor = account;
    while (true) {
        const auto parent_it = parent_.find(cursor);
        if (parent_it == parent_.end() || parent_it->second == cursor) break;
        chain.push_back(cursor);
        cursor = parent_it->second;
    }
    for (const ledger::AccountID& node : chain) parent_[node] = cursor;
    return cursor;
}

void AccountClusters::link(const ledger::AccountID& a, const ledger::AccountID& b) {
    parent_.try_emplace(a, a);
    parent_.try_emplace(b, b);
    size_.try_emplace(a, 1);
    size_.try_emplace(b, 1);

    ledger::AccountID root_a = find(a);
    ledger::AccountID root_b = find(b);
    if (root_a == root_b) return;
    // Union by size.
    if (size_[root_a] < size_[root_b]) std::swap(root_a, root_b);
    parent_[root_b] = root_a;
    size_[root_a] += size_[root_b];
}

ledger::AccountID AccountClusters::representative(
    const ledger::AccountID& account) const {
    return find(account);
}

std::size_t AccountClusters::cluster_count() const {
    std::unordered_set<ledger::AccountID> roots;
    for (const auto& [account, parent] : parent_) roots.insert(find(account));
    return roots.size();
}

std::vector<std::vector<ledger::AccountID>> AccountClusters::clusters(
    std::size_t min_size) const {
    std::unordered_map<ledger::AccountID, std::vector<ledger::AccountID>> groups;
    for (const auto& [account, parent] : parent_) {
        groups[find(account)].push_back(account);
    }
    std::vector<std::vector<ledger::AccountID>> out;
    for (auto& [root, members] : groups) {
        if (members.size() >= min_size) out.push_back(std::move(members));
    }
    return out;
}

AccountClusters cluster_by_activation(std::span<const ActivationEdge> edges) {
    AccountClusters clusters;
    for (const ActivationEdge& edge : edges) {
        clusters.link(edge.funder, edge.account);
    }
    return clusters;
}

IgResult clustered_information_gain(ledger::PaymentView view,
                                    const ResolutionConfig& config,
                                    const AccountClusters& clusters) {
    // Resolve each interned account's entity once, on this thread:
    // representative() path-compresses a mutable map, so it must never
    // run inside a pool task. Entities intern to dense owner ids.
    const ledger::PaymentColumns& columns = view.columns();
    ledger::AccountInterner entities;
    std::vector<std::uint32_t> entity_of(columns.accounts.size());
    for (std::uint32_t a = 0; a < entity_of.size(); ++a) {
        entity_of[a] = entities.intern(clusters.representative(columns.accounts.at(a)));
    }
    const std::span<const std::uint32_t> senders = sender_ids(view);
    std::vector<std::uint32_t> owners(senders.size());
    for (std::size_t i = 0; i < senders.size(); ++i) {
        owners[i] = entity_of[senders[i]];
    }
    return ig_of(anonymity_profile(view, owners, config));
}

}  // namespace xrpl::core
