#include "core/mitigation.hpp"

#include <string>

#include "core/fingerprint_groups.hpp"

namespace xrpl::core {

namespace {

/// Deterministic wallet id for (owner, index).
ledger::AccountID wallet_id(const ledger::AccountID& owner, std::size_t index) {
    return ledger::AccountID::from_seed(owner.to_address() + "/wallet/" +
                                        std::to_string(index));
}

}  // namespace

RotatedColumns apply_wallet_rotation(
    const ledger::PaymentColumns& payments, const WalletRotationConfig& config,
    const std::function<std::size_t(const ledger::AccountID&)>& trustlines_of) {
    RotatedColumns out;
    out.payments = payments;
    out.owner_id.assign(payments.sender_id.begin(), payments.sender_id.end());

    const std::size_t pool =
        config.wallets_per_sender == 0 ? 1 : config.wallets_per_sender;

    // Round-robin cursor per owner: rotation "unique to every single
    // transaction" in the limit pool >= payments. The interner makes
    // owners dense, so each owner's wallet pool is built at most once.
    struct OwnerState {
        std::vector<std::uint32_t> wallets;  // interned wallet ids
        std::size_t cursor = 0;
    };
    std::unordered_map<std::uint32_t, OwnerState> state;

    for (std::size_t i = 0; i < out.payments.size(); ++i) {
        const std::uint32_t owner = out.owner_id[i];
        auto [it, inserted] = state.try_emplace(owner);
        OwnerState& owner_state = it->second;
        if (inserted) {
            const ledger::AccountID owner_account = out.payments.accounts.at(owner);
            owner_state.wallets.reserve(pool);
            for (std::size_t k = 0; k < pool; ++k) {
                const ledger::AccountID wallet = wallet_id(owner_account, k);
                owner_state.wallets.push_back(out.payments.accounts.intern(wallet));
                out.wallet_owner.emplace(wallet, owner_account);
            }
        }
        out.payments.sender_id[i] =
            owner_state.wallets[owner_state.cursor++ % pool];
    }

    // Bootstrap pricing: every owner activates `pool` wallets, each of
    // which must re-create the owner's trust lines to be able to pay
    // (and to be paid — the paper notes the receiver must trust it too,
    // which this lower bound does not even include).
    for (const auto& [owner, owner_state] : state) {
        const std::size_t lines = trustlines_of(out.payments.accounts.at(owner));
        out.wallets_created += pool;
        out.trustlines_created += pool * lines;
        out.xrp_reserve_cost +=
            static_cast<double>(pool) * config.xrp_reserve_per_wallet +
            static_cast<double>(pool * lines) * config.xrp_reserve_per_trustline;
    }
    return out;
}

IgResult linked_information_gain(const RotatedColumns& rotated,
                                 const ResolutionConfig& config) {
    // The attacker clusters wallets by activator: the owner column is
    // exactly the identity it recovers.
    return ig_of(anonymity_profile(rotated.payments.view(), rotated.owner_id,
                                   config));
}

MitigationReport evaluate_wallet_rotation(
    const ledger::PaymentColumns& payments, const ResolutionConfig& resolution,
    const WalletRotationConfig& config,
    const std::function<std::size_t(const ledger::AccountID&)>& trustlines_of) {
    MitigationReport report;

    const Deanonymizer baseline(payments);
    report.baseline = baseline.information_gain(resolution);

    const RotatedColumns rotated =
        apply_wallet_rotation(payments, config, trustlines_of);
    const Deanonymizer after(rotated.payments);
    report.rotated = after.information_gain(resolution);
    report.linked = linked_information_gain(rotated, resolution);

    report.wallets_created = rotated.wallets_created;
    report.trustlines_created = rotated.trustlines_created;
    report.xrp_reserve_cost = rotated.xrp_reserve_cost;
    return report;
}

}  // namespace xrpl::core
