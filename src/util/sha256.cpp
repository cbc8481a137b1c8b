#include "util/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "util/hex.hpp"

namespace xrpl::util {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

std::uint32_t load_be32(const std::uint8_t* p) noexcept {
    return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
           (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
}

void store_be64(std::uint8_t* p, std::uint64_t v) noexcept {
    store_be32(p, static_cast<std::uint32_t>(v >> 32));
    store_be32(p + 4, static_cast<std::uint32_t>(v));
}

void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) noexcept {
    for (; blocks > 0; --blocks, data += 64) {
        std::array<std::uint32_t, 64> w;
        for (int i = 0; i < 16; ++i) {
            w[static_cast<std::size_t>(i)] = load_be32(data + 4 * i);
        }
        for (std::size_t i = 16; i < 64; ++i) {
            const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0];
        std::uint32_t b = state[1];
        std::uint32_t c = state[2];
        std::uint32_t d = state[3];
        std::uint32_t e = state[4];
        std::uint32_t f = state[5];
        std::uint32_t g = state[6];
        std::uint32_t h = state[7];

        for (std::size_t i = 0; i < 64; ++i) {
            const std::uint32_t s1 = std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
            const std::uint32_t s0 = std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#if defined(__x86_64__) || defined(__i386__)

// The SHA extensions keep the state as two lanes of four words,
// {A,B,E,F} and {C,D,G,H} (each high word first), and run two rounds
// per sha256rnds2 on message words already summed with their round
// constants. sha256msg1/sha256msg2 compute the message schedule four
// words at a time.
#define XRPL_SHA_TARGET __attribute__((target("sha,sse4.1")))

/// Four big-endian message words at `p`.
XRPL_SHA_TARGET inline __m128i load_words(const std::uint8_t* p) noexcept {
    const __m128i swap_bytes = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
    return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), swap_bytes);
}

/// Rounds i..i+3: `msg` holds W[i..i+3]; `k` points at K[i].
XRPL_SHA_TARGET inline void rounds4(__m128i& abef, __m128i& cdgh, __m128i msg,
                                    const std::uint32_t* k) noexcept {
    msg = _mm_add_epi32(msg, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
}

/// W[i..i+3] from the sixteen words before it, four per argument
/// (`w0` oldest): W[i] = σ1(W[i-2]) + W[i-7] + σ0(W[i-15]) + W[i-16].
XRPL_SHA_TARGET inline __m128i schedule(__m128i w0, __m128i w1, __m128i w2,
                                        __m128i w3) noexcept {
    const __m128i partial =
        _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
    return _mm_sha256msg2_epu32(partial, w3);
}

XRPL_SHA_TARGET void compress_x86_sha(std::uint32_t* state, const std::uint8_t* data,
                                      std::size_t blocks) noexcept {
    const std::uint32_t* k = kRoundConstants.data();

    // {A,B,C,D} and {E,F,G,H} into {A,B,E,F} and {C,D,G,H}.
    const __m128i dcba = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
    const __m128i efgh = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
    __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);

    for (; blocks > 0; --blocks, data += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        __m128i w0 = load_words(data);
        __m128i w1 = load_words(data + 16);
        __m128i w2 = load_words(data + 32);
        __m128i w3 = load_words(data + 48);
        rounds4(abef, cdgh, w0, k);
        rounds4(abef, cdgh, w1, k + 4);
        rounds4(abef, cdgh, w2, k + 8);
        rounds4(abef, cdgh, w3, k + 12);
        for (std::size_t i = 16; i < 64; i += 16) {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(abef, cdgh, w0, k + i);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(abef, cdgh, w1, k + i + 4);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(abef, cdgh, w2, k + i + 8);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(abef, cdgh, w3, k + i + 12);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    // Back to {A,B,C,D} and {E,F,G,H}.
    const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#undef XRPL_SHA_TARGET

bool x86_sha_supported() noexcept {
    __builtin_cpu_init();  // the feature bits may be read before static constructors run
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

#else

bool x86_sha_supported() noexcept { return false; }

#endif

using KernelFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t) noexcept;

KernelFn kernel_for(detail::Sha256Kernel kernel) noexcept {
#if defined(__x86_64__) || defined(__i386__)
    if (kernel == detail::Sha256Kernel::kX86Sha) return compress_x86_sha;
#endif
    (void)kernel;
    return compress_portable;
}

detail::Sha256Kernel active_kernel() noexcept {
    // Picked once per process; a function-local static so hashing in
    // another translation unit's static initializer still sees it.
    static const detail::Sha256Kernel kernel = x86_sha_supported()
                                                   ? detail::Sha256Kernel::kX86Sha
                                                   : detail::Sha256Kernel::kPortable;
    return kernel;
}

}  // namespace

namespace detail {

bool sha256_kernel_available(Sha256Kernel kernel) noexcept {
    return kernel == Sha256Kernel::kPortable || x86_sha_supported();
}

Sha256 sha256_with_kernel(Sha256Kernel kernel) noexcept {
    return Sha256(kernel_for(kernel));
}

}  // namespace detail

const char* sha256_kernel_name() noexcept {
    return active_kernel() == detail::Sha256Kernel::kX86Sha ? "x86-sha" : "portable";
}

Sha256::Sha256() noexcept : Sha256(kernel_for(active_kernel())) {}

Sha256::Sha256(Compress compress) noexcept
    : compress_(compress), state_(kInitialState) {}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
    if (data.empty()) return;
    total_bytes_ += data.size();
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();

    if (buffer_len_ > 0) {
        const std::size_t take = std::min(n, 64 - buffer_len_);
        std::memcpy(buffer_.data() + buffer_len_, p, take);
        buffer_len_ += take;
        if (buffer_len_ < 64) return;
        compress_(state_.data(), buffer_.data(), 1);
        buffer_len_ = 0;
        p += take;
        n -= take;
    }

    // Every whole block of the input in one kernel call.
    const std::size_t blocks = n / 64;
    if (blocks > 0) {
        compress_(state_.data(), p, blocks);
        p += blocks * 64;
        n -= blocks * 64;
    }

    if (n > 0) {
        std::memcpy(buffer_.data(), p, n);
        buffer_len_ = n;
    }
}

void Sha256::update(std::string_view text) noexcept {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

Sha256Digest Sha256::finish() noexcept {
    // Pad in place: 0x80, zeros up to 8 bytes short of a block end,
    // then the message length in bits. A tail of 56..63 bytes leaves
    // no room for the length in its block, so the padding spills into
    // a second one.
    const std::size_t padded = buffer_len_ < 56 ? 64 : 128;
    buffer_[buffer_len_] = 0x80;
    std::memset(buffer_.data() + buffer_len_ + 1, 0, padded - 8 - buffer_len_ - 1);
    store_be64(buffer_.data() + padded - 8, total_bytes_ * 8);
    compress_(state_.data(), buffer_.data(), padded / 64);

    Sha256Digest digest;
    for (std::size_t i = 0; i < 8; ++i) {
        store_be32(digest.data() + 4 * i, state_[i]);
    }
    return digest;
}

Sha256Digest sha256(std::span<const std::uint8_t> data) noexcept {
    Sha256 h;
    h.update(data);
    return h.finish();
}

Sha256Digest sha256(std::string_view text) noexcept {
    Sha256 h;
    h.update(text);
    return h.finish();
}

Sha256Digest sha256d(std::span<const std::uint8_t> data) noexcept {
    const Sha256Digest first = sha256(data);
    return sha256(std::span<const std::uint8_t>(first));
}

std::string to_hex(const Sha256Digest& digest) {
    return hex_encode(std::span<const std::uint8_t>(digest));
}

}  // namespace xrpl::util
