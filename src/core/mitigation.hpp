// Wallet-rotation countermeasure — the defence §V-B discusses and
// dismisses, implemented so its failure can be measured.
//
// "A possible solution is to create multiple Bitcoin wallets unique
// to every single transaction ... a similar approach is difficult to
// achieve in Ripple due to its underlying trust backbone — every new
// wallet would need to create enough new trustlines ... This makes
// the bootstrapping very complex and expensive ... possibly allowing
// the different wallets to be linked back together."
//
// This module (1) rewrites a history so every sender rotates across k
// wallets, (2) prices the bootstrap (trust lines and XRP reserves per
// wallet), and (3) runs the linkage attack the paper anticipates:
// wallets are clustered by the account that activated them (the
// Moreno-Sanchez et al. heuristic the paper cites), which collapses
// the defence entirely.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "core/deanonymizer.hpp"
#include "core/features.hpp"
#include "ledger/payment_columns.hpp"

namespace xrpl::core {

struct WalletRotationConfig {
    /// Wallets each sender rotates across (1 disables the defence).
    std::size_t wallets_per_sender = 4;
    /// XRP locked per activated account (the 2015-era base reserve).
    double xrp_reserve_per_wallet = 20.0;
    /// XRP locked per trust line the wallet must re-create.
    double xrp_reserve_per_trustline = 5.0;
};

/// Outcome of rewriting a history under wallet rotation: the wallet
/// accounts are appended to the interner and the sender column is
/// remapped.
struct RotatedColumns {
    ledger::PaymentColumns payments;
    /// wallet -> owner: the owner activated the wallet, so these are
    /// the activation edges the linkage attack clusters.
    std::unordered_map<ledger::AccountID, ledger::AccountID> wallet_owner;
    std::uint64_t wallets_created = 0;
    std::uint64_t trustlines_created = 0;
    double xrp_reserve_cost = 0.0;
};

/// Spread each sender's payments round-robin across its wallet pool
/// (each owner's pool is derived once). `trustlines_of` reports how
/// many trust lines an owner holds: each wallet must re-create them
/// to be able to pay at all.
[[nodiscard]] RotatedColumns apply_wallet_rotation(
    const ledger::PaymentColumns& payments, const WalletRotationConfig& config,
    const std::function<std::size_t(const ledger::AccountID&)>& trustlines_of);

/// The full before/after/linked comparison for one resolution config.
struct MitigationReport {
    IgResult baseline;        // original history
    IgResult rotated;         // after wallet rotation
    /// After the linkage attack: the wallets are clustered by their
    /// activator (cluster_by_activation over wallet_owner) and the IG
    /// is taken per cluster, so a fingerprint is "unique" when all its
    /// payments come from ONE owner. Each cluster is one owner and its
    /// wallets, so this equals the original IG.
    IgResult linked;
    std::uint64_t wallets_created = 0;
    std::uint64_t trustlines_created = 0;
    double xrp_reserve_cost = 0.0;
};

[[nodiscard]] MitigationReport evaluate_wallet_rotation(
    const ledger::PaymentColumns& payments, const ResolutionConfig& resolution,
    const WalletRotationConfig& config,
    const std::function<std::size_t(const ledger::AccountID&)>& trustlines_of);

}  // namespace xrpl::core
