// SHA-256 implemented from scratch (FIPS 180-4).
//
// Used for ledger page hashes, transaction IDs, and Ripple
// base58check address checksums. Streaming interface plus one-shot
// helpers.
//
// Two compression kernels compute the same function: a portable one,
// and on x86 one built on the SHA extensions. The process picks the
// hardware kernel once, when the CPU has the extensions; nothing else
// selects it (DESIGN.md, "Consensus rounds and hashing").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace xrpl::util {

/// A 32-byte SHA-256 digest.
using Sha256Digest = std::array<std::uint8_t, 32>;

class Sha256;

namespace detail {

/// The compression kernels.
enum class Sha256Kernel : std::uint8_t { kPortable, kX86Sha };

/// Test hooks, not a configuration surface. Whether `kernel` can run
/// here: kX86Sha needs an x86 build and a CPU with the extensions.
[[nodiscard]] bool sha256_kernel_available(Sha256Kernel kernel) noexcept;
/// A hasher bound to `kernel`, which must be available.
[[nodiscard]] Sha256 sha256_with_kernel(Sha256Kernel kernel) noexcept;

}  // namespace detail

/// The kernel this process hashes with: "x86-sha" or "portable".
[[nodiscard]] const char* sha256_kernel_name() noexcept;

/// Incremental SHA-256 hasher.
///
/// Usage:
///   Sha256 h;
///   h.update(bytes_a);
///   h.update(bytes_b);
///   Sha256Digest d = h.finish();
///
/// After finish() the hasher must not be reused; construct a new one.
class Sha256 {
public:
    Sha256() noexcept;

    /// Absorb `data` into the hash state.
    void update(std::span<const std::uint8_t> data) noexcept;
    /// Convenience overload for text.
    void update(std::string_view text) noexcept;

    /// Pad, finalize, and return the digest.
    [[nodiscard]] Sha256Digest finish() noexcept;

private:
    /// Absorbs `blocks` consecutive 64-byte blocks at `data` into `state`.
    using Compress = void (*)(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks) noexcept;

    explicit Sha256(Compress compress) noexcept;
    friend Sha256 detail::sha256_with_kernel(detail::Sha256Kernel kernel) noexcept;

    Compress compress_;
    std::array<std::uint32_t, 8> state_;
    // Two blocks: finish() pads a tail of 56..63 bytes into the second.
    // Not zero-filled: update() and finish() write every byte a kernel
    // reads, and the fill would lengthen each digest's store-to-load
    // stall (~10 ns a digest).
    std::array<std::uint8_t, 128> buffer_;
    std::size_t buffer_len_ = 0;
    std::uint64_t total_bytes_ = 0;
};

/// One-shot hash of a byte span.
[[nodiscard]] Sha256Digest sha256(std::span<const std::uint8_t> data) noexcept;

/// One-shot hash of text.
[[nodiscard]] Sha256Digest sha256(std::string_view text) noexcept;

/// sha256(sha256(data)) — Ripple/Bitcoin "hash256" used for checksums.
[[nodiscard]] Sha256Digest sha256d(std::span<const std::uint8_t> data) noexcept;

/// Lowercase hex rendering of a digest.
[[nodiscard]] std::string to_hex(const Sha256Digest& digest);

}  // namespace xrpl::util
