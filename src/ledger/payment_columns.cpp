#include "ledger/payment_columns.hpp"

namespace xrpl::ledger {

std::uint32_t AccountInterner::intern(const AccountID& id) {
    XRPL_ASSERT(ids_.size() < UINT32_MAX,
                "account dictionary must fit 32-bit ids");
    const auto [it, inserted] =
        index_.try_emplace(id, static_cast<std::uint32_t>(ids_.size()));
    if (inserted) ids_.push_back(id);
    // table<->map bijection: every dense id names exactly one account.
    XRPL_INVARIANT(ids_.size() == index_.size(),
                   "interner table and index must stay in bijection");
    return it->second;
}

std::optional<std::uint32_t> AccountInterner::find(const AccountID& id) const {
    const auto it = index_.find(id);
    if (it == index_.end()) return std::nullopt;
    return it->second;
}

std::uint16_t CurrencyInterner::intern(const Currency& currency) {
    // The u16 id column caps the dictionary; past 65535 distinct
    // currencies the cast below would silently alias ids.
    XRPL_ASSERT(currencies_.size() <= UINT16_MAX,
                "currency dictionary must fit 16-bit ids");
    const auto [it, inserted] =
        index_.try_emplace(currency, static_cast<std::uint16_t>(currencies_.size()));
    if (inserted) currencies_.push_back(currency);
    XRPL_INVARIANT(currencies_.size() == index_.size(),
                   "interner table and index must stay in bijection");
    return it->second;
}

std::optional<std::uint16_t> CurrencyInterner::find(
    const Currency& currency) const {
    const auto it = index_.find(currency);
    if (it == index_.end()) return std::nullopt;
    return it->second;
}

void PaymentColumns::reserve(std::size_t n) {
    sender_id.reserve(n);
    dest_id.reserve(n);
    currency_id.reserve(n);
    amount_mantissa.reserve(n);
    amount_exponent.reserve(n);
    time_seconds.reserve(n);
}

void PaymentColumns::push_back(const TxRecord& record) {
    sender_id.push_back(accounts.intern(record.sender));
    dest_id.push_back(accounts.intern(record.destination));
    currency_id.push_back(currencies.intern(record.currency));
    amount_mantissa.push_back(record.amount.mantissa());
    // IouAmount exponents live in [-96, 80]: int8_t holds them exactly.
    amount_exponent.push_back(static_cast<std::int8_t>(record.amount.exponent()));
    time_seconds.push_back(record.time.seconds);
    // All six columns describe the same rows; a length skew means some
    // column silently dropped or duplicated a payment.
    XRPL_INVARIANT(dest_id.size() == sender_id.size() &&
                       currency_id.size() == sender_id.size() &&
                       amount_mantissa.size() == sender_id.size() &&
                       amount_exponent.size() == sender_id.size() &&
                       time_seconds.size() == sender_id.size(),
                   "payment columns must stay equal length");
}

TxRecord PaymentColumns::row(std::size_t i) const noexcept {
    XRPL_ASSERT(i < size(), "row index must be within the store");
    TxRecord record;
    record.sender = accounts.at(sender_id[i]);
    record.destination = accounts.at(dest_id[i]);
    record.currency = currencies.at(currency_id[i]);
    record.amount = IouAmount::from_mantissa_exponent(amount_mantissa[i],
                                                      amount_exponent[i]);
    record.time = util::RippleTime{time_seconds[i]};
    return record;
}

PaymentColumns PaymentColumns::from_records(std::span<const TxRecord> records) {
    PaymentColumns columns;
    columns.reserve(records.size());
    for (const TxRecord& record : records) columns.push_back(record);
    return columns;
}

std::span<const ColumnInfo> payment_schema() noexcept {
    static constexpr ColumnInfo kSchema[] = {
        {"sender_id", ColumnKind::kU32},
        {"dest_id", ColumnKind::kU32},
        {"currency_id", ColumnKind::kU16},
        {"amount_mantissa", ColumnKind::kI64},
        {"amount_exponent", ColumnKind::kI8},
        {"time_seconds", ColumnKind::kI64},
    };
    return kSchema;
}

namespace {

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
        out.push_back(static_cast<std::uint8_t>(value >> shift));
    }
}

}  // namespace

util::Sha256Digest columns_digest(const PaymentColumns& columns) {
    // The serialization below IS the fingerprint contract: the pinned
    // generator-regression hash was computed over exactly these bytes.
    // Widening ids to u64 wastes space but keeps the layout trivially
    // unambiguous; do not "optimize" it — that re-pins every golden.
    std::vector<std::uint8_t> bytes;
    bytes.reserve(columns.size() * 41 + columns.accounts.size() * 20 +
                  columns.currencies.size() * 3 + 24);
    append_u64(bytes, columns.size());
    for (std::size_t i = 0; i < columns.size(); ++i) {
        append_u64(bytes, columns.sender_id[i]);
        append_u64(bytes, columns.dest_id[i]);
        append_u64(bytes, columns.currency_id[i]);
        append_u64(bytes, static_cast<std::uint64_t>(columns.amount_mantissa[i]));
        bytes.push_back(static_cast<std::uint8_t>(columns.amount_exponent[i]));
        append_u64(bytes, static_cast<std::uint64_t>(columns.time_seconds[i]));
    }
    append_u64(bytes, columns.accounts.size());
    for (std::size_t i = 0; i < columns.accounts.size(); ++i) {
        const auto& id = columns.accounts.at(static_cast<std::uint32_t>(i));
        bytes.insert(bytes.end(), id.bytes.begin(), id.bytes.end());
    }
    append_u64(bytes, columns.currencies.size());
    for (std::size_t i = 0; i < columns.currencies.size(); ++i) {
        const auto& code =
            columns.currencies.at(static_cast<std::uint16_t>(i)).code;
        bytes.insert(bytes.end(), code.begin(), code.end());
    }
    return util::sha256(std::span<const std::uint8_t>(bytes));
}

std::string columns_fingerprint(const PaymentColumns& columns) {
    return util::to_hex(columns_digest(columns));
}

}  // namespace xrpl::ledger
