#include "snap/xcol.hpp"

#include <algorithm>
#include <cstring>

#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/stopwatch.hpp"
#include "util/contract.hpp"
#include "util/crc32c.hpp"
#include "util/file_io.hpp"
#include "util/sha256.hpp"

namespace xrpl::snap {

namespace {

// Fixed header prefix: magic(4) version(2) flags(2) rows(8)
// chunk_rows(4) chunk_count(4) accounts(8) currencies(8) columns(1).
constexpr std::size_t kHeaderPrefixSize = 4 + 2 + 2 + 8 + 4 + 4 + 8 + 8 + 1;
constexpr std::size_t kCrcSize = 4;
constexpr std::size_t kSealSize = 32;
constexpr std::size_t kAccountBytes = 20;
constexpr std::size_t kCurrencyBytes = 3;
// LEB128 on u64 never exceeds ten bytes; an eleventh continuation
// byte is corruption, not a long value.
constexpr int kMaxVarintBytes = 10;
// The fewest body bytes a row can take: four one-byte varints (sender,
// destination, currency, mantissa), the exponent byte and a one-byte
// time delta.
constexpr std::uint64_t kMinRowBytes = 6;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

std::uint16_t get_u16(const std::uint8_t* p) {
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>((v & 0x7F) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

[[nodiscard]] std::uint64_t zigzag(std::int64_t v) noexcept {
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] std::int64_t unzigzag(std::uint64_t v) noexcept {
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Bounds-checked LEB128 reader over one chunk body.
class VarintReader {
public:
    explicit VarintReader(std::span<const std::uint8_t> bytes) noexcept
        : bytes_(bytes) {}

    [[nodiscard]] bool read(std::uint64_t& out) noexcept {
        std::uint64_t value = 0;
        for (int i = 0; i < kMaxVarintBytes; ++i) {
            if (pos_ >= bytes_.size()) return false;
            const std::uint8_t byte = bytes_[pos_++];
            value |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
            if ((byte & 0x80) == 0) {
                out = value;
                return true;
            }
        }
        return false;  // continuation bit past ten bytes
    }

    [[nodiscard]] bool read_byte(std::uint8_t& out) noexcept {
        if (pos_ >= bytes_.size()) return false;
        out = bytes_[pos_++];
        return true;
    }

    [[nodiscard]] bool exhausted() const noexcept {
        return pos_ == bytes_.size();
    }

private:
    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
};

/// One chunk's rows, column-major, varint/delta-encoded, with the
/// body CRC32C appended — the complete on-disk chunk blob. Pure
/// function of (columns, begin, end): pool workers each build their
/// own blob into a private slot.
std::vector<std::uint8_t> encode_chunk(const ledger::PaymentColumns& columns,
                                       std::size_t begin, std::size_t end) {
    std::vector<std::uint8_t> blob;
    blob.reserve((end - begin) * 12);
    for (std::size_t i = begin; i < end; ++i) {
        put_varint(blob, columns.sender_id[i]);
    }
    for (std::size_t i = begin; i < end; ++i) {
        put_varint(blob, columns.dest_id[i]);
    }
    for (std::size_t i = begin; i < end; ++i) {
        put_varint(blob, columns.currency_id[i]);
    }
    for (std::size_t i = begin; i < end; ++i) {
        put_varint(blob, zigzag(columns.amount_mantissa[i]));
    }
    for (std::size_t i = begin; i < end; ++i) {
        blob.push_back(static_cast<std::uint8_t>(columns.amount_exponent[i]));
    }
    // Timestamps are near-monotonic (~4.5 s page cadence), so chunk-
    // local deltas collapse most rows to two-byte varints.
    std::int64_t previous = 0;
    for (std::size_t i = begin; i < end; ++i) {
        put_varint(blob, zigzag(columns.time_seconds[i] - previous));
        previous = columns.time_seconds[i];
    }
    put_u32(blob, util::crc32c(blob));
    return blob;
}

/// Decode one chunk blob (CRC already verified, CRC bytes excluded)
/// into rows [begin, end) of the output columns. Writes only its own
/// row range. Returns "" on success, a detail message on corruption.
std::string decode_chunk_into(std::span<const std::uint8_t> body,
                              std::size_t chunk_index, std::size_t begin,
                              std::size_t end,
                              ledger::PaymentColumns& columns,
                              std::uint64_t account_count,
                              std::uint64_t currency_count) {
    const std::string where = "chunk " + std::to_string(chunk_index);
    VarintReader reader(body);
    std::uint64_t value = 0;
    for (std::size_t i = begin; i < end; ++i) {
        if (!reader.read(value) || value >= account_count) {
            return where + ": bad sender id";
        }
        columns.sender_id[i] = static_cast<std::uint32_t>(value);
    }
    for (std::size_t i = begin; i < end; ++i) {
        if (!reader.read(value) || value >= account_count) {
            return where + ": bad destination id";
        }
        columns.dest_id[i] = static_cast<std::uint32_t>(value);
    }
    for (std::size_t i = begin; i < end; ++i) {
        if (!reader.read(value) || value >= currency_count) {
            return where + ": bad currency id";
        }
        columns.currency_id[i] = static_cast<std::uint16_t>(value);
    }
    for (std::size_t i = begin; i < end; ++i) {
        if (!reader.read(value)) return where + ": bad mantissa";
        columns.amount_mantissa[i] = unzigzag(value);
    }
    for (std::size_t i = begin; i < end; ++i) {
        std::uint8_t byte = 0;
        if (!reader.read_byte(byte)) return where + ": bad exponent";
        columns.amount_exponent[i] = static_cast<std::int8_t>(byte);
    }
    std::int64_t previous = 0;
    for (std::size_t i = begin; i < end; ++i) {
        if (!reader.read(value)) return where + ": bad timestamp";
        previous += unzigzag(value);
        columns.time_seconds[i] = previous;
    }
    if (!reader.exhausted()) return where + ": trailing bytes";
    return std::string();
}

LoadResult fail(LoadError error, std::string detail) {
    static obs::Counter& errors = obs::counter("snap.load.errors");
    errors.add();
    LoadResult result;
    result.error = error;
    result.detail = std::move(detail);
    return result;
}

/// Offsets of every region, derived from a validated header + chunk
/// table. All bounds are checked by the caller before decode.
struct Regions {
    std::size_t table_begin = 0;   // chunk length table
    std::size_t chunks_begin = 0;  // first chunk blob
    std::vector<std::size_t> chunk_offsets;  // per chunk, absolute
    std::vector<std::size_t> chunk_sizes;    // blob size incl. CRC
    std::size_t accounts_begin = 0;
    std::size_t currencies_begin = 0;
    std::size_t seal_begin = 0;
    std::size_t total = 0;
};

}  // namespace

const char* load_error_name(LoadError error) noexcept {
    switch (error) {
        case LoadError::kIoError: return "io_error";
        case LoadError::kTruncated: return "truncated";
        case LoadError::kBadMagic: return "bad_magic";
        case LoadError::kBadVersion: return "bad_version";
        case LoadError::kHeaderCorrupt: return "header_corrupt";
        case LoadError::kBadSchema: return "bad_schema";
        case LoadError::kChunkCorrupt: return "chunk_corrupt";
        case LoadError::kDictCorrupt: return "dict_corrupt";
        case LoadError::kSealMismatch: return "seal_mismatch";
        case LoadError::kMalformed: return "malformed";
    }
    return "unknown";
}

std::vector<std::uint8_t> encode_columns(
    const ledger::PaymentColumns& columns) {
    const obs::Stopwatch clock;
    const std::size_t rows = columns.size();
    const std::size_t chunks = exec::chunk_count_for(rows, kXcolChunkRows);
    const auto schema = ledger::payment_schema();

    // Chunk bodies in parallel: slot writes only, merged in chunk
    // order below — the byte stream never depends on XRPL_THREADS.
    std::vector<std::vector<std::uint8_t>> blobs(chunks);
    exec::ThreadPool::shared().run(chunks, [&](std::size_t c) {
        const std::size_t begin = c * kXcolChunkRows;
        const std::size_t end =
            begin + kXcolChunkRows < rows ? begin + kXcolChunkRows : rows;
        blobs[c] = encode_chunk(columns, begin, end);
    });

    std::size_t blob_bytes = 0;
    for (const auto& blob : blobs) blob_bytes += blob.size();

    std::vector<std::uint8_t> out;
    out.reserve(kHeaderPrefixSize + schema.size() + kCrcSize +
                chunks * 4 + kCrcSize + blob_bytes +
                columns.accounts.size() * kAccountBytes + kCrcSize +
                columns.currencies.size() * kCurrencyBytes + kCrcSize +
                kSealSize);

    // Header.
    put_u32(out, kXcolMagic);
    put_u16(out, kXcolVersion);
    put_u16(out, 0);  // flags
    put_u64(out, rows);
    put_u32(out, kXcolChunkRows);
    put_u32(out, static_cast<std::uint32_t>(chunks));
    put_u64(out, columns.accounts.size());
    put_u64(out, columns.currencies.size());
    out.push_back(static_cast<std::uint8_t>(schema.size()));
    for (const ledger::ColumnInfo& column : schema) {
        out.push_back(static_cast<std::uint8_t>(column.kind));
    }
    put_u32(out, util::crc32c(out));

    // Chunk length table (blob sizes, CRC included in each size).
    const std::size_t table_begin = out.size();
    for (const auto& blob : blobs) {
        put_u32(out, static_cast<std::uint32_t>(blob.size()));
    }
    put_u32(out, util::crc32c(std::span<const std::uint8_t>(
                     out.data() + table_begin, out.size() - table_begin)));

    // Chunk blobs, in chunk order.
    for (const auto& blob : blobs) {
        out.insert(out.end(), blob.begin(), blob.end());
    }

    // Dictionaries.
    const std::size_t accounts_begin = out.size();
    for (std::size_t i = 0; i < columns.accounts.size(); ++i) {
        const auto& id = columns.accounts.at(static_cast<std::uint32_t>(i));
        out.insert(out.end(), id.bytes.begin(), id.bytes.end());
    }
    put_u32(out, util::crc32c(std::span<const std::uint8_t>(
                     out.data() + accounts_begin,
                     out.size() - accounts_begin)));
    const std::size_t currencies_begin = out.size();
    for (std::size_t i = 0; i < columns.currencies.size(); ++i) {
        const auto& code =
            columns.currencies.at(static_cast<std::uint16_t>(i)).code;
        for (const char c : code) {
            out.push_back(static_cast<std::uint8_t>(c));
        }
    }
    put_u32(out, util::crc32c(std::span<const std::uint8_t>(
                     out.data() + currencies_begin,
                     out.size() - currencies_begin)));

    // Whole-file seal.
    const util::Sha256Digest seal = util::sha256(out);
    out.insert(out.end(), seal.begin(), seal.end());

    static obs::Counter& saved_bytes = obs::counter("snap.encode.bytes");
    static obs::Counter& saved_chunks = obs::counter("snap.encode.chunks");
    static obs::Histogram& encode_ns = obs::histogram("snap.encode_ns");
    saved_bytes.add(out.size());
    saved_chunks.add(chunks);
    encode_ns.record(clock.elapsed_ns());
    return out;
}

LoadResult decode_columns(std::span<const std::uint8_t> bytes) {
    const obs::Stopwatch clock;

    // --- header: magic, version, CRC, schema — in that order, so a
    // foreign file says "bad magic", not "corrupt header". ------------
    if (bytes.size() < 4) return fail(LoadError::kTruncated, "no magic");
    if (get_u32(bytes.data()) != kXcolMagic) {
        return fail(LoadError::kBadMagic, "not an XCOL file");
    }
    if (bytes.size() < 6) return fail(LoadError::kTruncated, "no version");
    const std::uint16_t version = get_u16(bytes.data() + 4);
    if (version != kXcolVersion) {
        return fail(LoadError::kBadVersion,
                    "format version " + std::to_string(version) +
                        ", expected " + std::to_string(kXcolVersion));
    }
    if (bytes.size() < kHeaderPrefixSize) {
        return fail(LoadError::kTruncated, "header cut short");
    }
    const std::size_t column_count = bytes[kHeaderPrefixSize - 1];
    const std::size_t header_size =
        kHeaderPrefixSize + column_count + kCrcSize;
    if (bytes.size() < header_size) {
        return fail(LoadError::kTruncated, "schema bytes cut short");
    }
    const std::size_t header_body = header_size - kCrcSize;
    if (get_u32(bytes.data() + header_body) !=
        util::crc32c(bytes.subspan(0, header_body))) {
        return fail(LoadError::kHeaderCorrupt, "header CRC mismatch");
    }
    const auto schema = ledger::payment_schema();
    bool schema_matches = column_count == schema.size();
    for (std::size_t i = 0; schema_matches && i < column_count; ++i) {
        schema_matches = bytes[kHeaderPrefixSize + i] ==
                         static_cast<std::uint8_t>(schema[i].kind);
    }
    if (!schema_matches) {
        return fail(LoadError::kBadSchema,
                    "column layout differs from payment_schema()");
    }

    const std::uint64_t rows = get_u64(bytes.data() + 8);
    const std::uint32_t chunk_rows = get_u32(bytes.data() + 16);
    const std::uint32_t chunk_count = get_u32(bytes.data() + 20);
    const std::uint64_t account_count = get_u64(bytes.data() + 24);
    const std::uint64_t currency_count = get_u64(bytes.data() + 32);
    // Rounded-up division written so that no row count can wrap it.
    if (chunk_rows == 0 ||
        chunk_count != rows / chunk_rows + (rows % chunk_rows != 0 ? 1u : 0u)) {
        return fail(LoadError::kMalformed, "row/chunk counts disagree");
    }
    if (account_count > UINT32_MAX || currency_count > UINT16_MAX) {
        return fail(LoadError::kMalformed, "dictionary too large for ids");
    }

    // --- chunk table + derived region offsets. -----------------------
    Regions regions;
    regions.table_begin = header_size;
    const std::size_t table_size = std::size_t{chunk_count} * 4 + kCrcSize;
    if (bytes.size() < regions.table_begin + table_size) {
        return fail(LoadError::kTruncated, "chunk table cut short");
    }
    if (get_u32(bytes.data() + regions.table_begin + table_size - kCrcSize) !=
        util::crc32c(
            bytes.subspan(regions.table_begin, table_size - kCrcSize))) {
        return fail(LoadError::kHeaderCorrupt, "chunk table CRC mismatch");
    }
    regions.chunks_begin = regions.table_begin + table_size;
    regions.chunk_offsets.resize(chunk_count);
    regions.chunk_sizes.resize(chunk_count);
    std::size_t offset = regions.chunks_begin;
    for (std::size_t c = 0; c < chunk_count; ++c) {
        const std::uint32_t size =
            get_u32(bytes.data() + regions.table_begin + c * 4);
        // The header's row count sizes the columns below, and the CRCs
        // and seal are unkeyed: bound it by the bytes that back it.
        const std::uint64_t rows_here =
            std::min<std::uint64_t>(chunk_rows, rows - c * chunk_rows);
        if (size < kCrcSize + kMinRowBytes * rows_here) {
            return fail(LoadError::kMalformed,
                        "chunk " + std::to_string(c) + " too small for " +
                            std::to_string(rows_here) + " rows");
        }
        regions.chunk_offsets[c] = offset;
        regions.chunk_sizes[c] = size;
        offset += size;
    }
    regions.accounts_begin = offset;
    regions.currencies_begin = regions.accounts_begin +
                               static_cast<std::size_t>(account_count) *
                                   kAccountBytes +
                               kCrcSize;
    regions.seal_begin = regions.currencies_begin +
                         static_cast<std::size_t>(currency_count) *
                             kCurrencyBytes +
                         kCrcSize;
    regions.total = regions.seal_begin + kSealSize;
    if (bytes.size() < regions.total) {
        return fail(LoadError::kTruncated,
                    "file is " + std::to_string(bytes.size()) +
                        " bytes, format promises " +
                        std::to_string(regions.total));
    }
    if (bytes.size() > regions.total) {
        return fail(LoadError::kMalformed, "trailing bytes after seal");
    }

    // --- local CRCs before the seal, so a flipped byte is attributed
    // to its region instead of reported as a global mismatch. ---------
    std::vector<std::uint8_t> chunk_ok(chunk_count, 0);
    exec::ThreadPool::shared().run(chunk_count, [&](std::size_t c) {
        const std::size_t body = regions.chunk_sizes[c] - kCrcSize;
        const auto blob = bytes.subspan(regions.chunk_offsets[c],
                                        regions.chunk_sizes[c]);
        chunk_ok[c] = static_cast<std::uint8_t>(
            get_u32(blob.data() + body) == util::crc32c(blob.subspan(0, body))
                ? 1
                : 0);
    });
    for (std::size_t c = 0; c < chunk_count; ++c) {
        if (!chunk_ok[c]) {
            return fail(LoadError::kChunkCorrupt,
                        "chunk " + std::to_string(c) + " CRC mismatch");
        }
    }
    const std::size_t accounts_body =
        regions.currencies_begin - kCrcSize - regions.accounts_begin;
    if (get_u32(bytes.data() + regions.currencies_begin - kCrcSize) !=
        util::crc32c(bytes.subspan(regions.accounts_begin, accounts_body))) {
        return fail(LoadError::kDictCorrupt, "account dictionary CRC mismatch");
    }
    const std::size_t currencies_body =
        regions.seal_begin - kCrcSize - regions.currencies_begin;
    if (get_u32(bytes.data() + regions.seal_begin - kCrcSize) !=
        util::crc32c(
            bytes.subspan(regions.currencies_begin, currencies_body))) {
        return fail(LoadError::kDictCorrupt,
                    "currency dictionary CRC mismatch");
    }
    const util::Sha256Digest seal =
        util::sha256(bytes.subspan(0, regions.seal_begin));
    if (std::memcmp(seal.data(), bytes.data() + regions.seal_begin,
                    kSealSize) != 0) {
        return fail(LoadError::kSealMismatch, "whole-file sha256 mismatch");
    }

    // --- rebuild the store: dictionaries first (serial; id order IS
    // first-seen order), then chunk bodies in parallel slot writes. ---
    LoadResult result;
    ledger::PaymentColumns& columns = result.columns;
    for (std::uint64_t i = 0; i < account_count; ++i) {
        ledger::AccountID id;
        std::memcpy(id.bytes.data(),
                    bytes.data() + regions.accounts_begin +
                        static_cast<std::size_t>(i) * kAccountBytes,
                    kAccountBytes);
        columns.accounts.intern(id);
    }
    for (std::uint64_t i = 0; i < currency_count; ++i) {
        const std::uint8_t* p = bytes.data() + regions.currencies_begin +
                                static_cast<std::size_t>(i) * kCurrencyBytes;
        ledger::Currency currency;
        currency.code = {static_cast<char>(p[0]), static_cast<char>(p[1]),
                         static_cast<char>(p[2])};
        columns.currencies.intern(currency);
    }
    if (columns.accounts.size() != account_count ||
        columns.currencies.size() != currency_count) {
        // A duplicate dictionary entry interned to one id: row ids
        // would silently alias.
        return fail(LoadError::kMalformed, "duplicate dictionary entry");
    }

    columns.sender_id.resize(rows);
    columns.dest_id.resize(rows);
    columns.currency_id.resize(rows);
    columns.amount_mantissa.resize(rows);
    columns.amount_exponent.resize(rows);
    columns.time_seconds.resize(rows);
    std::vector<std::string> chunk_errors(chunk_count);
    exec::ThreadPool::shared().run(chunk_count, [&](std::size_t c) {
        const std::size_t begin = c * chunk_rows;
        const std::size_t end = begin + chunk_rows < rows
                                    ? begin + chunk_rows
                                    : static_cast<std::size_t>(rows);
        chunk_errors[c] = decode_chunk_into(
            bytes.subspan(regions.chunk_offsets[c],
                          regions.chunk_sizes[c] - kCrcSize),
            c, begin, end, columns, account_count, currency_count);
    });
    for (std::size_t c = 0; c < chunk_count; ++c) {
        if (!chunk_errors[c].empty()) {
            return fail(LoadError::kMalformed, chunk_errors[c]);
        }
    }

    static obs::Counter& loaded_bytes = obs::counter("snap.decode.bytes");
    static obs::Counter& loaded_chunks = obs::counter("snap.decode.chunks");
    static obs::Counter& loaded_rows = obs::counter("snap.decode.rows");
    static obs::Histogram& decode_ns = obs::histogram("snap.decode_ns");
    loaded_bytes.add(bytes.size());
    loaded_chunks.add(chunk_count);
    loaded_rows.add(rows);
    decode_ns.record(clock.elapsed_ns());
    return result;
}

bool save_columns(const std::string& path,
                  const ledger::PaymentColumns& columns) {
    const obs::Phase phase("snap.save");
    return util::write_file_bytes(path, encode_columns(columns));
}

LoadResult load_columns(const std::string& path) {
    const obs::Phase phase("snap.load");
    const auto bytes = util::read_file_bytes(path);
    if (!bytes) {
        LoadResult result;
        result.error = LoadError::kIoError;
        result.detail = "cannot read " + path;
        return result;
    }
    return decode_columns(*bytes);
}

std::optional<XcolInfo> read_info(std::span<const std::uint8_t> bytes) {
    if (bytes.size() < kHeaderPrefixSize) return std::nullopt;
    if (get_u32(bytes.data()) != kXcolMagic) return std::nullopt;
    const std::size_t column_count = bytes[kHeaderPrefixSize - 1];
    const std::size_t header_size =
        kHeaderPrefixSize + column_count + kCrcSize;
    if (bytes.size() < header_size) return std::nullopt;
    const std::size_t header_body = header_size - kCrcSize;
    if (get_u32(bytes.data() + header_body) !=
        util::crc32c(bytes.subspan(0, header_body))) {
        return std::nullopt;
    }

    XcolInfo info;
    info.version = get_u16(bytes.data() + 4);
    info.rows = get_u64(bytes.data() + 8);
    info.chunk_rows = get_u32(bytes.data() + 16);
    info.chunk_count = get_u32(bytes.data() + 20);
    info.accounts = get_u64(bytes.data() + 24);
    info.currencies = get_u64(bytes.data() + 32);
    info.total_bytes = bytes.size();
    if (bytes.size() >= kSealSize) {
        util::Sha256Digest seal;
        std::memcpy(seal.data(), bytes.data() + bytes.size() - kSealSize,
                    kSealSize);
        info.seal_hex = util::to_hex(seal);
    }
    return info;
}

std::optional<XcolInfo> read_file_info(const std::string& path) {
    const auto bytes = util::read_file_bytes(path);
    if (!bytes) return std::nullopt;
    return read_info(*bytes);
}

}  // namespace xrpl::snap
