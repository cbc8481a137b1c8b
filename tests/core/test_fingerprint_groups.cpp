#include "core/fingerprint_groups.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/fingerprint.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "util/rng.hpp"

namespace xrpl::core {
namespace {

using ledger::AccountID;
using ledger::Currency;
using ledger::IouAmount;
using ledger::PaymentColumns;
using ledger::PaymentView;
using ledger::TxRecord;

constexpr std::size_t kChunk = exec::kDefaultChunkRows;

// A mix of small and large groups: 200 senders and 40 destinations
// over a few currencies, amounts and seconds.
PaymentColumns make_payments(std::size_t n) {
    static const char* const kCodes[] = {"USD", "EUR", "BTC", "XRP"};
    util::Rng rng(20130101);
    std::vector<TxRecord> records(n);
    for (TxRecord& r : records) {
        r.sender = AccountID::from_seed("s" + std::to_string(rng.uniform_u64(0, 199)));
        r.destination =
            AccountID::from_seed("d" + std::to_string(rng.uniform_u64(0, 39)));
        r.currency = Currency::from_code(kCodes[rng.uniform_u64(0, 3)]);
        r.amount = IouAmount::from_double(
            10.0 * static_cast<double>(rng.uniform_u64(1, 30)));
        r.time = util::RippleTime{static_cast<std::int64_t>(rng.uniform_u64(0, 4000))};
    }
    return PaymentColumns::from_records(records);
}

// The attacker who knows nothing: every row has the same fingerprint,
// so all of them land in one bucket and form one group.
ResolutionConfig blind() {
    ResolutionConfig config;
    config.amount = std::nullopt;
    config.time = std::nullopt;
    config.use_currency = false;
    config.use_destination = false;
    return config;
}

// Low-resolution amounts only: a few dozen groups, most shared by
// many senders.
ResolutionConfig coarse() {
    ResolutionConfig config = blind();
    config.amount = AmountResolution::kLow;
    return config;
}

std::vector<std::uint32_t> row_keys(std::size_t n) {
    std::vector<std::uint32_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) keys[i] = static_cast<std::uint32_t>(i);
    return keys;
}

// The grouping as one whole-array sort of the row pairs.
std::vector<KeyedFingerprint> reference_sorted(PaymentView view,
                                               std::span<const std::uint32_t> keys,
                                               const ResolutionConfig& config) {
    const std::vector<std::uint64_t> fingerprints = fingerprint_column(view, config);
    std::vector<KeyedFingerprint> pairs(fingerprints.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        pairs[i] = {fingerprints[i], keys[i]};
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
}

// Anonymity sets without sorting: each fingerprint's owner set.
AnonymityProfile reference_profile(PaymentView view,
                                   std::span<const std::uint32_t> owners,
                                   const ResolutionConfig& config) {
    const std::vector<std::uint64_t> fingerprints = fingerprint_column(view, config);
    std::map<std::uint64_t, std::pair<std::set<std::uint32_t>, std::uint64_t>> groups;
    for (std::size_t i = 0; i < fingerprints.size(); ++i) {
        auto& [distinct, payments] = groups[fingerprints[i]];
        distinct.insert(owners[i]);
        ++payments;
    }
    AnonymityProfile profile;
    for (const auto& [fingerprint, group] : groups) {
        profile.add(static_cast<std::uint32_t>(group.first.size()), group.second);
    }
    return profile;
}

// Every field of every entry, and the profile's histogram, equal the
// references at pool widths 1, 2 and 8.
void expect_matches_reference(PaymentView view, std::span<const std::uint32_t> keys) {
    for (const ResolutionConfig& config : {full_resolution(), coarse(), blind()}) {
        SCOPED_TRACE(config.label());
        const std::vector<KeyedFingerprint> want = reference_sorted(view, keys, config);
        const AnonymityProfile want_profile = reference_profile(view, keys, config);
        for (const std::size_t width : {1, 2, 8}) {
            SCOPED_TRACE("width " + std::to_string(width));
            const exec::ScopedParallelism pool(width);
            const std::vector<KeyedFingerprint> got =
                sorted_by_fingerprint(view, keys, config);
            ASSERT_EQ(got.size(), want.size());
            const auto mismatch = std::mismatch(got.begin(), got.end(), want.begin());
            EXPECT_TRUE(mismatch.first == got.end())
                << "first difference at entry " << (mismatch.first - got.begin());

            const AnonymityProfile profile = anonymity_profile(view, keys, config);
            EXPECT_EQ(profile.histogram(), want_profile.histogram());
            EXPECT_EQ(profile.total_payments(), view.size());
        }
    }
}

TEST(FingerprintGroupsTest, EmptyView) {
    const PaymentColumns payments;
    const PaymentView view = payments.view();
    EXPECT_TRUE(sorted_by_fingerprint(view, {}, full_resolution()).empty());
    EXPECT_EQ(anonymity_profile(view, {}, full_resolution()).total_payments(), 0u);
    expect_matches_reference(view, {});
}

TEST(FingerprintGroupsTest, SingleRow) {
    const PaymentColumns payments = make_payments(1);
    expect_matches_reference(payments.view(), sender_ids(payments.view()));
}

TEST(FingerprintGroupsTest, LessThanOneChunk) {
    const PaymentColumns payments = make_payments(kChunk / 2 + 3);
    expect_matches_reference(payments.view(), sender_ids(payments.view()));
}

TEST(FingerprintGroupsTest, ExactlyOneChunk) {
    const PaymentColumns payments = make_payments(kChunk);
    expect_matches_reference(payments.view(), sender_ids(payments.view()));
}

TEST(FingerprintGroupsTest, ThreeChunksAndOneRow) {
    const PaymentColumns payments = make_payments(3 * kChunk + 1);
    expect_matches_reference(payments.view(), sender_ids(payments.view()));
    expect_matches_reference(payments.view(), row_keys(payments.size()));
}

TEST(FingerprintGroupsTest, SubviewWithOffset) {
    const PaymentColumns payments = make_payments(3 * kChunk + 1);
    const PaymentView view = payments.view().subview(1'000, 2 * kChunk + 77);
    expect_matches_reference(view, sender_ids(view));
    expect_matches_reference(view, row_keys(view.size()));
}

TEST(FingerprintGroupsTest, AllFeaturesOffIsOneGroup) {
    // One fingerprint, one bucket: its sort and its walk span every
    // chunk and every slice.
    const PaymentColumns payments = make_payments(3 * kChunk + 1);
    const PaymentView view = payments.view();
    const std::vector<KeyedFingerprint> sorted =
        sorted_by_fingerprint(view, sender_ids(view), blind());
    ASSERT_EQ(sorted.size(), view.size());
    EXPECT_EQ(sorted.front().fingerprint, sorted.back().fingerprint);
    const AnonymityProfile profile = anonymity_profile(view, sender_ids(view), blind());
    ASSERT_EQ(profile.histogram().size(), 1u);
    EXPECT_EQ(profile.histogram().begin()->first, 200u);
    EXPECT_EQ(profile.histogram().begin()->second, view.size());
}

TEST(FingerprintGroupsTest, DescendingKeys) {
    // Keys run against row order, so each group's keys must be
    // reordered inside its bucket, not just carried along.
    const PaymentColumns payments = make_payments(3 * kChunk + 1);
    std::vector<std::uint32_t> keys = row_keys(payments.size());
    std::reverse(keys.begin(), keys.end());
    expect_matches_reference(payments.view(), keys);
}

}  // namespace
}  // namespace xrpl::core
