// Fundamental identifier types of the XRP ledger model.
//
// AccountID is the 160-bit account identifier; its human-readable
// form is the base58check "r..." address. Currency is a 3-letter
// code (ISO-4217 style, plus the made-up codes the paper observes:
// CCK, MTL, ...). Issue pairs a currency with the gateway account
// that issued it.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace xrpl::ledger {

/// 160-bit account identifier.
struct AccountID {
    std::array<std::uint8_t, 20> bytes{};

    /// Deterministically derive an account from a seed string
    /// (first 20 bytes of sha256(seed)). Stand-in for real key
    /// generation: the study never needs private keys, only stable,
    /// semantic-free identifiers — exactly what the paper relies on.
    [[nodiscard]] static AccountID from_seed(std::string_view seed);

    /// The all-zero account: Ripple's ACCOUNT_ZERO, whose secret key
    /// is public knowledge and which spammers abused (paper, App. A).
    [[nodiscard]] static AccountID zero() noexcept { return AccountID{}; }

    [[nodiscard]] bool is_zero() const noexcept;

    /// Full base58check address ("r...").
    [[nodiscard]] std::string to_address() const;

    /// Abbreviated display form "rp2PaY...X1mEx7" as in the paper's plots.
    [[nodiscard]] std::string short_display() const;

    /// Parse an "r..." address; nullopt on bad checksum/characters.
    [[nodiscard]] static std::optional<AccountID> from_address(std::string_view address);

    friend auto operator<=>(const AccountID&, const AccountID&) = default;
};

/// Three-letter currency code. XRP is the special native currency.
struct Currency {
    std::array<char, 3> code{{'X', 'R', 'P'}};

    /// Build from a code string; only the first three characters are
    /// used, shorter codes are space-padded.
    [[nodiscard]] static Currency from_code(std::string_view code_text) noexcept;

    [[nodiscard]] static Currency xrp() noexcept { return Currency{}; }
    [[nodiscard]] bool is_xrp() const noexcept {
        return code[0] == 'X' && code[1] == 'R' && code[2] == 'P';
    }

    [[nodiscard]] std::string to_string() const;

    friend auto operator<=>(const Currency&, const Currency&) = default;
};

/// A currency as issued by a particular gateway.
struct Issue {
    Currency currency;
    AccountID issuer;  // ignored when currency is XRP

    friend auto operator<=>(const Issue&, const Issue&) = default;
};

/// 256-bit hashes for transactions and ledger pages.
struct Hash256 {
    std::array<std::uint8_t, 32> bytes{};

    [[nodiscard]] std::string to_hex() const;
    friend auto operator<=>(const Hash256&, const Hash256&) = default;
};

/// FNV-1a over a byte range — shared by the std::hash specializations
/// of AccountID and Currency (and through them Issue and the paths
/// keys). Their unordered containers are iterated on the way to the
/// pinned goldens, so their bucket order must not change.
[[nodiscard]] std::size_t hash_bytes(const std::uint8_t* data, std::size_t size) noexcept;

}  // namespace xrpl::ledger

template <>
struct std::hash<xrpl::ledger::AccountID> {
    std::size_t operator()(const xrpl::ledger::AccountID& id) const noexcept {
        return xrpl::ledger::hash_bytes(id.bytes.data(), id.bytes.size());
    }
};

template <>
struct std::hash<xrpl::ledger::Currency> {
    std::size_t operator()(const xrpl::ledger::Currency& c) const noexcept {
        return xrpl::ledger::hash_bytes(
            reinterpret_cast<const std::uint8_t*>(c.code.data()), c.code.size());
    }
};

/// Hash256 values are SHA-256 outputs, already uniform: folding the
/// four 64-bit words is a full-quality bucket hash, and much cheaper
/// than FNV-1a's 32 dependent multiplies. No container keyed by
/// Hash256 is iterated, so its bucket order reaches no output.
template <>
struct std::hash<xrpl::ledger::Hash256> {
    std::size_t operator()(const xrpl::ledger::Hash256& h) const noexcept {
        std::array<std::uint64_t, 4> words{};
        std::memcpy(words.data(), h.bytes.data(), sizeof(words));
        return static_cast<std::size_t>(words[0] ^ words[1] ^ words[2] ^ words[3]);
    }
};

template <>
struct std::hash<xrpl::ledger::Issue> {
    std::size_t operator()(const xrpl::ledger::Issue& issue) const noexcept {
        std::size_t seed = std::hash<xrpl::ledger::Currency>{}(issue.currency);
        seed ^= std::hash<xrpl::ledger::AccountID>{}(issue.issuer) +
                0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
        return seed;
    }
};
