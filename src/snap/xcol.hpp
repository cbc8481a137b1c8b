// XCOL — the versioned columnar snapshot container for
// PaymentColumns.
//
// A 250K-payment bench history takes seconds to regenerate and
// milliseconds to read back; at the paper's 23M scale the gap is
// minutes versus a couple of seconds. XCOL is the on-disk shape that
// closes it: each column is chunked into runs of kXcolChunkRows rows
// (the exec::ChunkedView grain, so a loaded store chunks exactly like
// a generated one), chunk bodies are varint/delta encoded (timestamps
// delta within the chunk, interned ids and mantissas as LEB128), and
// the interner dictionaries ride along verbatim so the loaded store is
// id-for-id identical to the saved one — columns_fingerprint round-
// trips bit-exactly.
//
// Layout (all integers little-endian):
//
//   header     magic "XCOL", version, flags, row_count, chunk_rows,
//              chunk_count, dict sizes, schema kind bytes, CRC32C
//   table      chunk_count × u32 blob length, CRC32C
//   chunks     per chunk: encoded body + CRC32C of the body
//   dicts      accounts (20 B each) + CRC32C, currencies (3 B) + CRC32C
//   seal       sha256 over everything above
//
// Every region carries its own CRC32C so decode_columns can say WHICH
// bytes rotted (LoadError below), and the whole-file seal catches
// anything the local checks cannot attribute. Encode and decode fan
// chunks out on the shared exec pool with slot-writes only and merge
// on the calling thread, so bytes and loaded stores are identical at
// every XRPL_THREADS.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "exec/chunked_view.hpp"
#include "ledger/payment_columns.hpp"

namespace xrpl::snap {

/// "XCOL" read as a little-endian u32.
inline constexpr std::uint32_t kXcolMagic = 0x4C4F4358u;

/// Format version. Bump on ANY layout change — including a
/// ledger::payment_schema() change, which alters chunk bodies.
inline constexpr std::uint16_t kXcolVersion = 1;

/// Rows per chunk — pinned to the scan grain so a loaded store
/// re-chunks identically under exec::ChunkedView.
inline constexpr std::uint32_t kXcolChunkRows =
    static_cast<std::uint32_t>(exec::kDefaultChunkRows);

/// Why a load was rejected. Each corruption mode maps to a distinct
/// value so tests (and `snapctl verify`) can assert the failure is
/// understood, not merely detected.
enum class LoadError : std::uint8_t {
    kIoError = 1,       // file missing / unreadable
    kTruncated,         // fewer bytes than the format promises
    kBadMagic,          // not an XCOL file at all
    kBadVersion,        // stale or future format version
    kHeaderCorrupt,     // header or chunk-table CRC mismatch
    kBadSchema,         // column layout differs from payment_schema()
    kChunkCorrupt,      // a chunk body failed its CRC
    kDictCorrupt,       // an interner dictionary failed its CRC
    kSealMismatch,      // whole-file sha256 trailer mismatch
    kMalformed,         // CRCs pass but the encoding is inconsistent
};

/// Stable lowercase name ("truncated", "bad_magic", ...) for logs and
/// snapctl output.
[[nodiscard]] const char* load_error_name(LoadError error) noexcept;

/// Outcome of decode_columns / load_columns: either a store or a
/// classified error with a human-readable detail line.
struct LoadResult {
    [[nodiscard]] bool ok() const noexcept { return !error.has_value(); }

    std::optional<LoadError> error;
    std::string detail;               // e.g. "chunk 3 CRC mismatch"
    ledger::PaymentColumns columns;   // meaningful only when ok()
};

/// Header + seal summary, readable without decoding any chunk —
/// `snapctl info` in struct form.
struct XcolInfo {
    std::uint16_t version = 0;
    std::uint64_t rows = 0;
    std::uint32_t chunk_rows = 0;
    std::uint32_t chunk_count = 0;
    std::uint64_t accounts = 0;
    std::uint64_t currencies = 0;
    std::uint64_t total_bytes = 0;  // size of the bytes read_info was given
    std::string seal_hex;           // sha256 trailer, lowercase hex
};

/// Serialize `columns` into XCOL bytes. Chunk bodies are encoded in
/// parallel on the shared pool; the byte stream is identical at every
/// thread width.
[[nodiscard]] std::vector<std::uint8_t> encode_columns(
    const ledger::PaymentColumns& columns);

/// Parse and verify XCOL bytes back into a PaymentColumns. All CRC
/// regions and the seal are checked before any chunk is trusted;
/// chunk decode runs in parallel with slot writes only.
[[nodiscard]] LoadResult decode_columns(std::span<const std::uint8_t> bytes);

/// encode_columns + atomic write. Returns false on I/O failure.
bool save_columns(const std::string& path,
                  const ledger::PaymentColumns& columns);

/// Whole-file read + decode_columns (kIoError when unreadable).
[[nodiscard]] LoadResult load_columns(const std::string& path);

/// Header/seal summary of XCOL bytes; nullopt when the bytes are not
/// a structurally sane XCOL header (truncated, wrong magic, bad CRC).
[[nodiscard]] std::optional<XcolInfo> read_info(
    std::span<const std::uint8_t> bytes);

/// read_info over a file.
[[nodiscard]] std::optional<XcolInfo> read_file_info(const std::string& path);

}  // namespace xrpl::snap
