// Columnar payment dataset — THE in-memory representation of a
// payment history.
//
// The de-anonymization study scans the same 23M-payment history once
// per resolution configuration. Storing payments as an array of
// TxRecord structs wastes both space (two 20-byte AccountIDs per row,
// repeated for every payment a hub sends) and time (every scan
// re-folds those 20 bytes into hash words). PaymentColumns stores the
// five ⟨S, A, T, C, D⟩ features as separate columns of dense ids:
// accounts and currencies are interned once into dictionary tables,
// rows carry 4-byte (account) / 2-byte (currency) ids, and amounts
// split into their decimal mantissa/exponent pair. Per-column
// precomputation (rounding a currency group once, truncating the time
// column once, hashing each distinct account once) then amortizes
// across all 23M rows.
//
// TxRecord is only the row type at the store's edges: push_back and
// from_records intern rows in, row(i) reconstructs one row out.
// PaymentView is a zero-copy (store, offset, count) window that every
// scan takes; scans read the columns through columns()/offset().
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ledger/transaction.hpp"
#include "util/contract.hpp"
#include "util/sha256.hpp"

namespace xrpl::ledger {

/// Dictionary-encodes 20-byte AccountIDs into dense u32 ids.
/// Ids are assigned in first-seen order and never change.
class AccountInterner {
public:
    /// Id of `id`, interning it if new.
    std::uint32_t intern(const AccountID& id);

    /// Id of `id` if already interned.
    [[nodiscard]] std::optional<std::uint32_t> find(const AccountID& id) const;

    [[nodiscard]] const AccountID& at(std::uint32_t index) const noexcept {
        XRPL_ASSERT(index < ids_.size(),
                    "account id must come from this interner");
        return ids_[index];
    }
    [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }

private:
    std::vector<AccountID> ids_;
    std::unordered_map<AccountID, std::uint32_t> index_;
};

/// Dictionary-encodes 3-char currency codes into dense u16 ids.
class CurrencyInterner {
public:
    std::uint16_t intern(const Currency& currency);

    [[nodiscard]] std::optional<std::uint16_t> find(const Currency& currency) const;

    [[nodiscard]] const Currency& at(std::uint16_t index) const noexcept {
        XRPL_ASSERT(index < currencies_.size(),
                    "currency id must come from this interner");
        return currencies_[index];
    }
    [[nodiscard]] std::size_t size() const noexcept { return currencies_.size(); }

private:
    std::vector<Currency> currencies_;
    std::unordered_map<Currency, std::uint16_t> index_;
};

class PaymentView;

/// Structure-of-arrays payment store. One entry per payment across
/// all columns; account/currency columns hold interned ids.
struct PaymentColumns {
    std::vector<std::uint32_t> sender_id;       // S
    std::vector<std::uint32_t> dest_id;         // D
    std::vector<std::uint16_t> currency_id;     // C
    std::vector<std::int64_t> amount_mantissa;  // A (normalized decimal
    std::vector<std::int8_t> amount_exponent;   //    mantissa/exponent)
    std::vector<std::int64_t> time_seconds;     // T (Ripple epoch)

    AccountInterner accounts;
    CurrencyInterner currencies;

    [[nodiscard]] std::size_t size() const noexcept { return sender_id.size(); }
    [[nodiscard]] bool empty() const noexcept { return sender_id.empty(); }

    void reserve(std::size_t n);
    void push_back(const TxRecord& record);

    /// Reconstruct row `i` as a TxRecord.
    [[nodiscard]] TxRecord row(std::size_t i) const noexcept;

    /// Zero-copy row view over all payments.
    [[nodiscard]] PaymentView view() const noexcept;

    [[nodiscard]] static PaymentColumns from_records(
        std::span<const TxRecord> records);
};

/// Storage type of one payment column — the schema vocabulary the
/// XCOL snapshot codec (src/snap/) embeds in its header so an
/// artifact written against a different column layout is rejected
/// instead of misparsed.
enum class ColumnKind : std::uint8_t {
    kU32 = 1,  // interned account ids
    kU16 = 2,  // interned currency ids
    kI64 = 3,  // mantissa / timestamps
    kI8 = 4,   // decimal exponents
};

struct ColumnInfo {
    const char* name;  // struct field name, stable across versions
    ColumnKind kind;
};

/// The PaymentColumns schema in canonical storage order:
/// sender_id, dest_id, currency_id, amount_mantissa, amount_exponent,
/// time_seconds. Any layout change here is a snapshot format break —
/// bump snap::kXcolVersion in the same commit.
[[nodiscard]] std::span<const ColumnInfo> payment_schema() noexcept;

/// sha256 over the canonical little-endian serialization of every
/// column plus both interner tables. Any drift — a reordered row, a
/// different first-seen interning order, a timestamp off by one —
/// changes the digest. This is THE history fingerprint: the pinned
/// generator regression value, the determinism suites, and the
/// snapshot round-trip tests all compare it.
[[nodiscard]] util::Sha256Digest columns_digest(const PaymentColumns& columns);

/// columns_digest rendered as lowercase hex.
[[nodiscard]] std::string columns_fingerprint(const PaymentColumns& columns);

/// Zero-copy window [offset, offset+count) over a PaymentColumns.
/// Scans reach the rows through columns()/offset().
class PaymentView {
public:
    PaymentView() noexcept = default;
    PaymentView(const PaymentColumns& columns, std::size_t offset,
                std::size_t count) noexcept
        : columns_(&columns), offset_(offset), count_(count) {}

    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

    /// The first `n` rows (clamped).
    [[nodiscard]] PaymentView prefix(std::size_t n) const noexcept {
        return PaymentView(*columns_, offset_, n < count_ ? n : count_);
    }

    /// The window [offset, offset + count) of THIS view (offsets are
    /// view-relative). The chunked-scan runtime windows each chunk
    /// through here.
    [[nodiscard]] PaymentView subview(std::size_t offset,
                                      std::size_t count) const noexcept {
        XRPL_ASSERT(offset <= count_ && count <= count_ - offset,
                    "subview must lie inside its parent view");
        return PaymentView(*columns_, offset_ + offset, count);
    }

    [[nodiscard]] const PaymentColumns& columns() const noexcept {
        return *columns_;
    }
    [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

private:
    const PaymentColumns* columns_ = nullptr;
    std::size_t offset_ = 0;
    std::size_t count_ = 0;
};

inline PaymentView PaymentColumns::view() const noexcept {
    return PaymentView(*this, 0, size());
}

}  // namespace xrpl::ledger
