#include "util/sha256.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace xrpl::util {
namespace {

TEST(Sha256Test, EmptyStringMatchesFipsVector) {
    EXPECT_EQ(to_hex(sha256("")),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, AbcMatchesFipsVector) {
    EXPECT_EQ(to_hex(sha256("abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessageMatchesFipsVector) {
    EXPECT_EQ(to_hex(sha256(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAsMatchesFipsVector) {
    const std::string input(1'000'000, 'a');
    EXPECT_EQ(to_hex(sha256(input)),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingEqualsOneShot) {
    const std::string text = "the quick brown fox jumps over the lazy dog";
    for (std::size_t split = 0; split <= text.size(); ++split) {
        Sha256 hasher;
        hasher.update(text.substr(0, split));
        hasher.update(text.substr(split));
        EXPECT_EQ(hasher.finish(), sha256(text)) << "split at " << split;
    }
}

TEST(Sha256Test, StreamingManySmallChunksEqualsOneShot) {
    const std::string text(1000, 'x');
    Sha256 hasher;
    for (const char c : text) hasher.update(std::string_view(&c, 1));
    EXPECT_EQ(hasher.finish(), sha256(text));
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
    EXPECT_NE(sha256("a"), sha256("b"));
    EXPECT_NE(sha256(""), sha256(std::string(1, '\0')));
}

TEST(Sha256Test, ProcessRunsTheHardwareKernelWhenItCan) {
    const bool hardware = detail::sha256_kernel_available(detail::Sha256Kernel::kX86Sha);
    EXPECT_EQ(std::string(sha256_kernel_name()), hardware ? "x86-sha" : "portable");
}

TEST(Sha256Test, DoubleHashDiffersFromSingle) {
    const std::string text = "checksum body";
    const std::vector<std::uint8_t> bytes(text.begin(), text.end());
    EXPECT_NE(sha256d(bytes), sha256(text));
}

// Boundary lengths around the 64-byte block and 56-byte padding edge.
class Sha256LengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256LengthTest, StreamingMatchesOneShotAtBoundary) {
    const std::string text(GetParam(), 'q');
    Sha256 hasher;
    const std::size_t half = text.size() / 2;
    hasher.update(text.substr(0, half));
    hasher.update(text.substr(half));
    EXPECT_EQ(hasher.finish(), sha256(text));
}

INSTANTIATE_TEST_SUITE_P(PaddingBoundaries, Sha256LengthTest,
                         ::testing::Values(0, 1, 54, 55, 56, 57, 63, 64, 65, 119,
                                           120, 127, 128, 129, 255, 256));

// Each compression kernel, reached through the detail test hook, must
// produce the published digests on its own: the streaming tests above
// run only the process's kernel, and all of them share one padding
// routine, so a bug common to both sides of a comparison would pass.
class Sha256KernelTest : public ::testing::TestWithParam<detail::Sha256Kernel> {
protected:
    void SetUp() override {
        if (!detail::sha256_kernel_available(GetParam())) {
            GTEST_SKIP() << "this CPU lacks the x86 SHA extensions";
        }
    }

    [[nodiscard]] Sha256 hasher() const { return detail::sha256_with_kernel(GetParam()); }

    [[nodiscard]] std::string digest_hex(std::span<const std::uint8_t> data) const {
        Sha256 h = hasher();
        h.update(data);
        return to_hex(h.finish());
    }
};

std::vector<std::uint8_t> mod251_bytes(std::size_t n) {
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i % 251);
    return out;
}

std::span<const std::uint8_t> as_bytes(const std::string& text) {
    return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

TEST_P(Sha256KernelTest, MatchesFipsVectors) {
    EXPECT_EQ(digest_hex(as_bytes("")),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(digest_hex(as_bytes("abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(digest_hex(as_bytes(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(digest_hex(as_bytes(std::string(1'000'000, 'a'))),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Digests of bytes i % 251 for i in [0, n), produced once with
// Python's hashlib: the lengths straddle the one- and two-block
// padding edges (55/56, 63/64/65, 119/120), and 1 MiB is about the
// size of the XCOL seal.
TEST_P(Sha256KernelTest, MatchesHashlibDigestsAtPaddingEdges) {
    const std::vector<std::pair<std::size_t, const char*>> known = {
        {55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59"},
        {56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562"},
        {63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488"},
        {64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108"},
        {65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781"},
        {119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6"},
        {120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c"},
        {1 << 20, "631b84027d6b9e52b539c4e8373622d23032dfadc64d60af87339c9037e4f769"},
    };
    for (const auto& [length, hex] : known) {
        EXPECT_EQ(digest_hex(mod251_bytes(length)), hex) << "length " << length;
    }
}

TEST_P(Sha256KernelTest, StreamedMebibyteMatchesHashlib) {
    // Uneven pieces leave a partial block buffered before most kernel
    // calls, so whole-block runs start mid-piece.
    const std::vector<std::uint8_t> data = mod251_bytes(1 << 20);
    const std::array<std::size_t, 8> pieces = {1, 63, 64, 65, 127, 1000, 4096, 8191};
    Sha256 h = hasher();
    std::size_t offset = 0;
    for (std::size_t i = 0; offset < data.size(); ++i) {
        const std::size_t take = std::min(pieces[i % pieces.size()], data.size() - offset);
        h.update(std::span<const std::uint8_t>(data).subspan(offset, take));
        offset += take;
    }
    EXPECT_EQ(to_hex(h.finish()),
              "631b84027d6b9e52b539c4e8373622d23032dfadc64d60af87339c9037e4f769");
}

TEST_P(Sha256KernelTest, AgreesWithTheOtherKernelAtEveryLengthAndSplit) {
    const detail::Sha256Kernel other = GetParam() == detail::Sha256Kernel::kPortable
                                           ? detail::Sha256Kernel::kX86Sha
                                           : detail::Sha256Kernel::kPortable;
    if (!detail::sha256_kernel_available(other)) {
        GTEST_SKIP() << "this CPU lacks the x86 SHA extensions";
    }
    util::Rng rng = util::RngStream(20130101).rng();
    std::vector<std::uint8_t> stream(300);
    for (std::uint8_t& byte : stream) byte = static_cast<std::uint8_t>(rng.next());
    for (std::size_t length = 0; length <= stream.size(); ++length) {
        const std::span<const std::uint8_t> message(stream.data(), length);
        Sha256 reference = detail::sha256_with_kernel(other);
        reference.update(message);
        const Sha256Digest expected = reference.finish();
        const std::array<std::size_t, 6> splits = {0, 1, length / 3, length / 2, 64,
                                                   length};
        for (const std::size_t split : splits) {
            const std::size_t cut = std::min(split, length);
            Sha256 h = hasher();
            h.update(message.first(cut));
            h.update(message.subspan(cut));
            EXPECT_EQ(h.finish(), expected) << "length " << length << ", split " << cut;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, Sha256KernelTest,
                         ::testing::Values(detail::Sha256Kernel::kPortable,
                                           detail::Sha256Kernel::kX86Sha),
                         [](const ::testing::TestParamInfo<detail::Sha256Kernel>& info) {
                             return info.param == detail::Sha256Kernel::kPortable
                                        ? std::string("Portable")
                                        : std::string("X86Sha");
                         });

}  // namespace
}  // namespace xrpl::util
