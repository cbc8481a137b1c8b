#include "core/fingerprint.hpp"

#include "core/resolution.hpp"
#include "exec/chunked_view.hpp"
#include "exec/parallel.hpp"
#include "ledger/types.hpp"
#include "obs/metrics.hpp"
#include "util/contract.hpp"
#include "util/ripple_time.hpp"

namespace xrpl::core {

namespace {

// Per-field domain tags, XORed into the first word a field mixes.
// All four are distinct, so the mixed stream of one feature subset can
// never reproduce the stream of another (⟨A,−,−,−⟩ vs ⟨−,T,−,−⟩ used
// to be separated only by mix count; ⟨−,−,C,−⟩ carried the lone tag).
constexpr std::uint64_t kAmountDomain = 0xa24baed4963ee407ULL;
constexpr std::uint64_t kTimeDomain = 0x9fb21c651e98df25ULL;
constexpr std::uint64_t kCurrencyDomain = 0x4000000000000000ULL;  // 1<<62, as before
constexpr std::uint64_t kDestinationDomain = 0x2b7e151628aed2a6ULL;

std::uint64_t avalanche(std::uint64_t x) noexcept {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

std::uint64_t account_word(const ledger::AccountID& id) noexcept {
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        word = (word << 8) | id.bytes[i];
    }
    // The remaining 12 bytes, folded in.
    std::uint64_t rest = 0;
    for (std::size_t i = 8; i < id.bytes.size(); ++i) {
        rest = rest * 131 + id.bytes[i];
    }
    return word ^ avalanche(rest);
}

std::uint64_t currency_word(const ledger::Currency& currency) noexcept {
    std::uint64_t code = 0;
    for (const char c : currency.code) {
        code = (code << 8) | static_cast<unsigned char>(c);
    }
    return code;
}

void mix_amount(FingerprintHasher& hasher, const ledger::IouAmount& rounded) noexcept {
    hasher.mix(static_cast<std::uint64_t>(rounded.mantissa()) ^ kAmountDomain);
    hasher.mix(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(rounded.exponent())));
}

/// The per-configuration context fingerprint_column amortizes:
/// destination hash words (each distinct account folded once) and
/// per-currency code word + Table I rounding unit. Built once per
/// (store, config); rows() then fingerprints any absolute row range.
class FingerprintPlan {
public:
    FingerprintPlan(const ledger::PaymentColumns& columns,
                    const ResolutionConfig& config);

    /// Fingerprints of rows [begin, end) of the store (absolute row
    /// indices) into out[0 .. end-begin). Read-only on the store and
    /// the plan: safe to call concurrently.
    void rows(std::size_t begin, std::size_t end, std::uint64_t* out) const;

private:
    struct CurrencyContext {
        std::uint64_t word = 0;  // code word ^ kCurrencyDomain
        RoundingUnit unit;       // Table I unit (amount configs only)
    };

    const ledger::PaymentColumns* columns_;
    ResolutionConfig config_;
    std::vector<std::uint64_t> dest_words_;  // tagged, by interned account id
    std::vector<CurrencyContext> currency_context_;  // by interned currency id
};

}  // namespace

void FingerprintHasher::mix(std::uint64_t value) noexcept {
    state_ = avalanche(state_ ^ avalanche(value));
}

std::uint64_t fingerprint(const ledger::TxRecord& record,
                          const ResolutionConfig& config) noexcept {
    FingerprintHasher hasher;

    if (config.amount) {
        mix_amount(hasher,
                   round_amount(record.amount, record.currency, *config.amount));
    }
    if (config.time) {
        const util::RippleTime truncated = util::truncate(record.time, *config.time);
        hasher.mix(static_cast<std::uint64_t>(truncated.seconds) ^ kTimeDomain);
    }
    if (config.use_currency) {
        hasher.mix(currency_word(record.currency) ^ kCurrencyDomain);
    }
    if (config.use_destination) {
        hasher.mix(account_word(record.destination) ^ kDestinationDomain);
    }
    return hasher.digest();
}

FingerprintPlan::FingerprintPlan(const ledger::PaymentColumns& columns,
                                 const ResolutionConfig& config)
    : columns_(&columns), config_(config) {
    // Destination hash words: fold each distinct account once instead
    // of re-folding 20 bytes per payment.
    if (config_.use_destination) {
        dest_words_.resize(columns.accounts.size());
        for (std::uint32_t a = 0; a < dest_words_.size(); ++a) {
            dest_words_[a] =
                account_word(columns.accounts.at(a)) ^ kDestinationDomain;
        }
    }

    // Per-currency context: code word and Table I rounding unit, each
    // resolved once per currency group instead of once per payment.
    currency_context_.resize(columns.currencies.size());
    for (std::uint16_t c = 0; c < currency_context_.size(); ++c) {
        const ledger::Currency& currency = columns.currencies.at(c);
        currency_context_[c].word = currency_word(currency) ^ kCurrencyDomain;
        if (config_.amount) {
            currency_context_[c].unit = rounding_unit(currency, *config_.amount);
        }
    }
}

void FingerprintPlan::rows(std::size_t begin, std::size_t end,
                           std::uint64_t* out) const {
    const ledger::PaymentColumns& columns = *columns_;
    // The range and every interned id it dereferences must lie inside
    // the backing store; the per-row loop below indexes columns and
    // dictionary tables unchecked on that strength.
    XRPL_ASSERT(begin <= end && end <= columns.size(),
                "fingerprint row range must lie inside the store");

    // One striped add per RANGE, not per row — the row loop below is
    // the hottest code in the repo.
    static obs::Counter& rows_hashed = obs::counter("core.fingerprint.rows");
    rows_hashed.add(end - begin);

    for (std::size_t r = begin; r < end; ++r) {
        XRPL_ASSERT(columns.currency_id[r] < currency_context_.size() &&
                        (!config_.use_destination ||
                         columns.dest_id[r] < dest_words_.size()),
                    "interned column ids must resolve in their dictionaries");
        FingerprintHasher hasher;
        if (config_.amount) {
            const ledger::IouAmount amount =
                ledger::IouAmount::from_mantissa_exponent(
                    columns.amount_mantissa[r], columns.amount_exponent[r]);
            mix_amount(hasher,
                       round_amount(
                           amount, currency_context_[columns.currency_id[r]].unit));
        }
        if (config_.time) {
            const util::RippleTime truncated = util::truncate(
                util::RippleTime{columns.time_seconds[r]}, *config_.time);
            hasher.mix(static_cast<std::uint64_t>(truncated.seconds) ^ kTimeDomain);
        }
        if (config_.use_currency) {
            hasher.mix(currency_context_[columns.currency_id[r]].word);
        }
        if (config_.use_destination) {
            hasher.mix(dest_words_[columns.dest_id[r]]);
        }
        out[r - begin] = hasher.digest();
    }
}

std::vector<std::uint64_t> fingerprint_column(const ledger::PaymentView& view,
                                              const ResolutionConfig& config) {
    const std::size_t offset = view.offset();
    const std::size_t n = view.size();
    std::vector<std::uint64_t> fingerprints(n);
    if (n == 0) return fingerprints;
    XRPL_ASSERT(offset + n <= view.columns().size(),
                "payment view window must lie inside its columns");

    const FingerprintPlan plan(view.columns(), config);
    // Chunks write disjoint slices of one output vector: bit-identical
    // for every thread count, no merge step needed.
    exec::parallel_for(n, exec::kDefaultChunkRows,
                       [&](std::size_t begin, std::size_t end) {
                           plan.rows(offset + begin, offset + end,
                                     fingerprints.data() + begin);
                       });
    return fingerprints;
}

}  // namespace xrpl::core
