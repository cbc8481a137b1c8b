// XCOL codec — round-trip fidelity, thread-width byte stability, and
// the corruption-rejection taxonomy.
//
// The round-trip suite uses the SAME pinned generator config as the
// sharded-determinism suite, so `load(save(history))` is checked
// against the pinned golden fingerprint — a snapshot that decodes to
// anything but the exact generated store cannot pass.
//
// The corruption suite flips/truncates real encoded bytes and asserts
// each damage class maps to ITS OWN LoadError: corruption must be
// understood (attributed to a region), not merely detected.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "datagen/history.hpp"
#include "exec/chunked_view.hpp"
#include "exec/thread_pool.hpp"
#include "ledger/payment_columns.hpp"
#include "snap/xcol.hpp"
#include "util/crc32c.hpp"
#include "util/sha256.hpp"

namespace xrpl::snap {
namespace {

/// The sharded-determinism pinned config (four slices, fingerprint
/// pinned in test_sharded_determinism.cpp).
datagen::GeneratorConfig pinned_config() {
    datagen::GeneratorConfig config;
    config.seed = 20170605;
    config.num_users = 400;
    config.num_gateways = 12;
    config.num_market_makers = 20;
    config.num_merchants = 60;
    config.num_hubs = 6;
    config.target_payments = 6'000;
    config.payments_per_slice = 1'500;
    return config;
}

constexpr char kPinnedFingerprint[] =
    "4d926cb63c2c15263ab354e6cc54eeebf82f38d127f2ef0ecc69b58e10e5ee6c";

/// A small synthetic store with interesting values: negative
/// mantissas, extreme exponents, non-monotonic timestamps, repeated
/// accounts — and enough rows to span multiple chunks.
ledger::PaymentColumns synthetic_columns(std::size_t rows) {
    ledger::PaymentColumns columns;
    columns.reserve(rows);
    for (std::size_t i = 0; i < rows; ++i) {
        ledger::TxRecord record;
        record.sender = ledger::AccountID::from_seed(
            "sender" + std::to_string(i % 97));
        record.destination = ledger::AccountID::from_seed(
            "dest" + std::to_string(i % 31));
        record.currency = ledger::Currency::from_code(
            i % 3 == 0 ? "USD" : (i % 3 == 1 ? "BTC" : "XRP"));
        record.amount = ledger::IouAmount::from_mantissa_exponent(
            i % 2 == 0 ? static_cast<std::int64_t>(i) * 1'000'003
                       : -static_cast<std::int64_t>(i) * 7,
            static_cast<std::int32_t>(static_cast<int>(i % 40) - 20));
        record.time.seconds =
            static_cast<std::int64_t>(i * 5) - (i % 11 == 0 ? 40 : 0);
        columns.push_back(record);
    }
    return columns;
}

TEST(XcolRoundTripTest, EmptyStoreRoundTrips) {
    const ledger::PaymentColumns empty;
    const std::vector<std::uint8_t> bytes = encode_columns(empty);
    const LoadResult result = decode_columns(bytes);
    ASSERT_TRUE(result.ok()) << result.detail;
    EXPECT_EQ(result.columns.size(), 0u);
    EXPECT_EQ(ledger::columns_fingerprint(result.columns),
              ledger::columns_fingerprint(empty));
}

TEST(XcolRoundTripTest, SyntheticStoreRoundTripsExactly) {
    // > 2 chunks, with a ragged tail chunk.
    const ledger::PaymentColumns columns =
        synthetic_columns(2 * exec::kDefaultChunkRows + 1'234);
    const LoadResult result = decode_columns(encode_columns(columns));
    ASSERT_TRUE(result.ok()) << result.detail;
    EXPECT_EQ(ledger::columns_fingerprint(result.columns),
              ledger::columns_fingerprint(columns));
}

TEST(XcolRoundTripTest, EncodedBytesIdenticalAcrossThreadWidths) {
    const ledger::PaymentColumns columns =
        synthetic_columns(3 * exec::kDefaultChunkRows + 77);
    std::vector<std::uint8_t> serial;
    {
        exec::ScopedParallelism width(1);
        serial = encode_columns(columns);
    }
    for (const std::size_t width : {2u, 8u}) {
        exec::ScopedParallelism pool(width);
        EXPECT_EQ(encode_columns(columns), serial) << "width " << width;
    }
}

TEST(XcolRoundTripTest, GeneratedHistoryReproducesPinnedFingerprint) {
    // The acceptance check: save -> load reproduces the generator's
    // pinned golden fingerprint at every pool width.
    const datagen::GeneratedHistory history =
        datagen::generate_history(pinned_config());
    ASSERT_EQ(ledger::columns_fingerprint(history.payments),
              kPinnedFingerprint);
    std::vector<std::uint8_t> serial_bytes;
    for (const std::size_t width : {1u, 2u, 8u}) {
        exec::ScopedParallelism pool(width);
        const std::vector<std::uint8_t> bytes =
            encode_columns(history.payments);
        if (width == 1) {
            serial_bytes = bytes;
        } else {
            EXPECT_EQ(bytes, serial_bytes) << "width " << width;
        }
        const LoadResult result = decode_columns(bytes);
        ASSERT_TRUE(result.ok()) << result.detail;
        EXPECT_EQ(ledger::columns_fingerprint(result.columns),
                  kPinnedFingerprint)
            << "width " << width;
    }
}

TEST(XcolInfoTest, ReadsHeaderWithoutDecoding) {
    const ledger::PaymentColumns columns = synthetic_columns(10'000);
    const std::vector<std::uint8_t> bytes = encode_columns(columns);
    const auto info = read_info(bytes);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->version, kXcolVersion);
    EXPECT_EQ(info->rows, 10'000u);
    EXPECT_EQ(info->chunk_rows, kXcolChunkRows);
    EXPECT_EQ(info->chunk_count, 2u);
    EXPECT_EQ(info->accounts, columns.accounts.size());
    EXPECT_EQ(info->currencies, columns.currencies.size());
    EXPECT_EQ(info->total_bytes, bytes.size());
    EXPECT_EQ(info->seal_hex.size(), 64u);
}

// --- corruption taxonomy -------------------------------------------

class XcolCorruptionTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        bytes_ = new std::vector<std::uint8_t>(
            encode_columns(synthetic_columns(exec::kDefaultChunkRows + 500)));
    }
    static void TearDownTestSuite() {
        delete bytes_;
        bytes_ = nullptr;
    }

    static LoadError expect_rejected(const std::vector<std::uint8_t>& bytes) {
        const LoadResult result = decode_columns(bytes);
        EXPECT_FALSE(result.ok());
        EXPECT_FALSE(result.detail.empty());
        return result.error.value_or(LoadError::kIoError);
    }

    static std::vector<std::uint8_t>* bytes_;
};

std::vector<std::uint8_t>* XcolCorruptionTest::bytes_ = nullptr;

TEST_F(XcolCorruptionTest, PristineBytesStillDecode) {
    EXPECT_TRUE(decode_columns(*bytes_).ok());
}

TEST_F(XcolCorruptionTest, TruncationAnywhereIsTruncated) {
    for (const double fraction : {0.0, 0.1, 0.5, 0.9}) {
        std::vector<std::uint8_t> cut(
            bytes_->begin(),
            bytes_->begin() + static_cast<std::ptrdiff_t>(
                                  fraction *
                                  static_cast<double>(bytes_->size())));
        EXPECT_EQ(expect_rejected(cut), LoadError::kTruncated)
            << "fraction " << fraction;
    }
    // One byte short of valid is still truncated.
    std::vector<std::uint8_t> cut(*bytes_);
    cut.pop_back();
    EXPECT_EQ(expect_rejected(cut), LoadError::kTruncated);
}

TEST_F(XcolCorruptionTest, WrongMagicIsBadMagic) {
    std::vector<std::uint8_t> bad(*bytes_);
    bad[0] = 'Z';
    EXPECT_EQ(expect_rejected(bad), LoadError::kBadMagic);
}

TEST_F(XcolCorruptionTest, StaleVersionIsBadVersion) {
    std::vector<std::uint8_t> bad(*bytes_);
    bad[4] = static_cast<std::uint8_t>(kXcolVersion + 1);
    EXPECT_EQ(expect_rejected(bad), LoadError::kBadVersion);
}

TEST_F(XcolCorruptionTest, FlippedHeaderFieldIsHeaderCorrupt) {
    std::vector<std::uint8_t> bad(*bytes_);
    bad[8] ^= 0x01;  // row_count low byte; header CRC no longer matches
    EXPECT_EQ(expect_rejected(bad), LoadError::kHeaderCorrupt);
}

TEST_F(XcolCorruptionTest, FlippedChunkByteIsChunkCorrupt) {
    // The file midpoint lands inside a chunk body for this store
    // (two chunks of payments dwarf the dictionaries).
    std::vector<std::uint8_t> bad(*bytes_);
    bad[bad.size() / 2] ^= 0x40;
    const LoadResult result = decode_columns(bad);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(*result.error, LoadError::kChunkCorrupt);
    // The error names the damaged chunk.
    EXPECT_NE(result.detail.find("chunk"), std::string::npos);
}

TEST_F(XcolCorruptionTest, FlippedDictionaryByteIsDictCorrupt) {
    // The account dictionary sits just before its CRC + currency dict
    // + its CRC + the 32-byte seal.
    std::vector<std::uint8_t> bad(*bytes_);
    bad[bad.size() - 32 - 4 - 3 - 4 - 10] ^= 0x10;
    EXPECT_EQ(expect_rejected(bad), LoadError::kDictCorrupt);
}

TEST_F(XcolCorruptionTest, FlippedSealIsSealMismatch) {
    // Damage only the trailer: every local CRC still passes, so the
    // mismatch cannot be attributed to a region.
    std::vector<std::uint8_t> bad(*bytes_);
    bad[bad.size() - 1] ^= 0x01;
    EXPECT_EQ(expect_rejected(bad), LoadError::kSealMismatch);
}

TEST_F(XcolCorruptionTest, TrailingGarbageIsMalformed) {
    std::vector<std::uint8_t> bad(*bytes_);
    bad.push_back(0xAB);
    EXPECT_EQ(expect_rejected(bad), LoadError::kMalformed);
}

/// XCOL bytes whose header claims `rows` rows in `chunk_count` chunks
/// of `chunk_rows`, each chunk a one-byte body, with every CRC and the
/// seal correct: only a check of the rows against the chunk bytes can
/// reject it.
std::vector<std::uint8_t> crafted_file(std::uint64_t rows,
                                       std::uint32_t chunk_rows,
                                       std::uint32_t chunk_count) {
    std::vector<std::uint8_t> out;
    const auto put = [&out](std::uint64_t value, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
        }
    };
    const auto put_crc_from = [&](std::size_t begin) {
        put(util::crc32c(std::span<const std::uint8_t>(out).subspan(begin)), 4);
    };
    const auto schema = ledger::payment_schema();
    put(kXcolMagic, 4);
    put(kXcolVersion, 2);
    put(0, 2);  // flags
    put(rows, 8);
    put(chunk_rows, 4);
    put(chunk_count, 4);
    put(1, 8);  // accounts
    put(1, 8);  // currencies
    put(schema.size(), 1);
    for (const ledger::ColumnInfo& column : schema) {
        put(static_cast<std::uint8_t>(column.kind), 1);
    }
    put_crc_from(0);
    const std::size_t table = out.size();
    for (std::uint32_t c = 0; c < chunk_count; ++c) put(1 + 4, 4);  // body + CRC
    put_crc_from(table);
    for (std::uint32_t c = 0; c < chunk_count; ++c) {
        const std::size_t body = out.size();
        put(0, 1);
        put_crc_from(body);
    }
    const std::size_t accounts = out.size();
    out.insert(out.end(), 20, 0x11);
    put_crc_from(accounts);
    const std::size_t currencies = out.size();
    out.insert(out.end(), {'U', 'S', 'D'});
    put_crc_from(currencies);
    const util::Sha256Digest seal = util::sha256(out);
    out.insert(out.end(), seal.begin(), seal.end());
    return out;
}

TEST_F(XcolCorruptionTest, RowCountBeyondChunkBytesIsMalformed) {
    // 2^40 rows in 257 chunks of 2^32 - 1: unchecked, decode sizes
    // six columns for them.
    const std::vector<std::uint8_t> huge =
        crafted_file(std::uint64_t{1} << 40, UINT32_MAX, 257);
    EXPECT_EQ(huge.size(), 2'431u);
    EXPECT_EQ(expect_rejected(huge), LoadError::kMalformed);
    // 2^64 - 1 rows in no chunks: the rounded-up chunk count must not
    // wrap to zero.
    EXPECT_EQ(expect_rejected(crafted_file(UINT64_MAX, 2, 0)),
              LoadError::kMalformed);

    // The bound is tight: a row whose every field takes one byte
    // still round-trips.
    ledger::TxRecord record;
    record.sender = ledger::AccountID::from_seed("alice");
    record.destination = ledger::AccountID::from_seed("bob");
    record.currency = ledger::Currency::from_code("USD");
    ledger::PaymentColumns tight;
    tight.push_back(record);
    const LoadResult result = decode_columns(encode_columns(tight));
    ASSERT_TRUE(result.ok()) << result.detail;
    EXPECT_EQ(ledger::columns_fingerprint(result.columns),
              ledger::columns_fingerprint(tight));
}

TEST_F(XcolCorruptionTest, MissingFileIsIoError) {
    const LoadResult result =
        load_columns("definitely/not/a/real/path.xcol");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(*result.error, LoadError::kIoError);
}

TEST_F(XcolCorruptionTest, EveryErrorHasAStableName) {
    for (const LoadError error :
         {LoadError::kIoError, LoadError::kTruncated, LoadError::kBadMagic,
          LoadError::kBadVersion, LoadError::kHeaderCorrupt,
          LoadError::kBadSchema, LoadError::kChunkCorrupt,
          LoadError::kDictCorrupt, LoadError::kSealMismatch,
          LoadError::kMalformed}) {
        EXPECT_STRNE(load_error_name(error), "unknown");
    }
}

}  // namespace
}  // namespace xrpl::snap
