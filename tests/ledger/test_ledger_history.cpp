#include "ledger/ledger_history.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/contract.hpp"
#include "util/sha256.hpp"

namespace xrpl::ledger {
namespace {

Hash256 tx_hash(int i) {
    Hash256 h;
    h.bytes[0] = static_cast<std::uint8_t>(i);
    h.bytes[1] = static_cast<std::uint8_t>(i >> 8);
    return h;
}

TEST(LedgerHistoryTest, AppendsSequentialPages) {
    LedgerHistory history;
    EXPECT_TRUE(history.empty());
    history.append(util::RippleTime{100}, {tx_hash(1)});
    history.append(util::RippleTime{105}, {tx_hash(2), tx_hash(3)});
    EXPECT_EQ(history.size(), 2u);
    EXPECT_EQ(history.page(0).sequence, 1u);
    EXPECT_EQ(history.page(1).sequence, 2u);
    EXPECT_EQ(history.last().tx_ids.size(), 2u);
}

TEST(LedgerHistoryTest, PagesChainByParentHash) {
    LedgerHistory history;
    history.append(util::RippleTime{100}, {});
    history.append(util::RippleTime{105}, {});
    EXPECT_EQ(history.page(0).parent_hash, Hash256{});
    EXPECT_EQ(history.page(1).parent_hash, history.page(0).hash);
}

TEST(LedgerHistoryTest, VerifyChainAcceptsHonestHistory) {
    LedgerHistory history;
    for (int i = 0; i < 50; ++i) {
        history.append(util::RippleTime{100 + i * 5}, {tx_hash(i)});
    }
    EXPECT_EQ(history.verify_chain(), history.size());
}

TEST(LedgerHistoryTest, HashCoversCloseTime) {
    const Hash256 a = compute_page_hash(1, Hash256{}, util::RippleTime{100}, {});
    const Hash256 b = compute_page_hash(1, Hash256{}, util::RippleTime{101}, {});
    EXPECT_NE(a, b);
}

TEST(LedgerHistoryTest, HashCoversSequenceAndParent) {
    const Hash256 base = compute_page_hash(1, Hash256{}, util::RippleTime{100}, {});
    EXPECT_NE(compute_page_hash(2, Hash256{}, util::RippleTime{100}, {}), base);
    Hash256 parent;
    parent.bytes[5] = 0x77;
    EXPECT_NE(compute_page_hash(1, parent, util::RippleTime{100}, {}), base);
}

TEST(LedgerHistoryTest, HashCoversTransactionsAndTheirOrder) {
    const std::vector<Hash256> forward = {tx_hash(1), tx_hash(2)};
    const std::vector<Hash256> reversed = {tx_hash(2), tx_hash(1)};
    const Hash256 a = compute_page_hash(1, Hash256{}, util::RippleTime{100}, forward);
    const Hash256 b = compute_page_hash(1, Hash256{}, util::RippleTime{100}, reversed);
    EXPECT_NE(a, b);
    const Hash256 c = compute_page_hash(1, Hash256{}, util::RippleTime{100}, {});
    EXPECT_NE(a, c);
}

TEST(LedgerHistoryTest, DistinctHistoriesDistinctHeads) {
    LedgerHistory a;
    LedgerHistory b;
    a.append(util::RippleTime{100}, {tx_hash(1)});
    b.append(util::RippleTime{100}, {tx_hash(2)});
    EXPECT_NE(a.last().hash, b.last().hash);
}

TEST(LedgerHistoryTest, CandidateIsTheNextPageAndLeavesTheHistoryAlone) {
    LedgerHistory history;
    history.append(util::RippleTime{100}, {tx_hash(1)});
    const ClosedLedger next = history.candidate(util::RippleTime{105}, {tx_hash(2)});
    EXPECT_EQ(history.size(), 1u);
    EXPECT_EQ(next.sequence, 2u);
    EXPECT_EQ(next.parent_hash, history.last().hash);
    EXPECT_EQ(next.close_time.seconds, 105);
    EXPECT_EQ(next.hash, compute_page_hash(2, history.last().hash, util::RippleTime{105},
                                           {tx_hash(2)}));
}

TEST(LedgerHistoryTest, AppendSealsTheCandidateItWasGiven) {
    LedgerHistory by_candidate;
    LedgerHistory by_contents;
    for (int i = 0; i < 5; ++i) {
        const util::RippleTime close{100 + 5 * i};
        const Hash256 signed_hash = by_candidate.candidate(close, {tx_hash(i)}).hash;
        const ClosedLedger& sealed =
            by_candidate.append(by_candidate.candidate(close, {tx_hash(i)}));
        EXPECT_EQ(sealed.hash, signed_hash);
        EXPECT_EQ(&sealed, &by_candidate.last());
        by_contents.append(close, {tx_hash(i)});
        EXPECT_EQ(by_candidate.last().hash, by_contents.last().hash);
    }
    EXPECT_EQ(by_candidate.verify_chain(), by_candidate.size());
}

TEST(LedgerHistoryTest, AppendRejectsAPageThatDoesNotContinueTheChain) {
    LedgerHistory history;
    const ClosedLedger stale = history.candidate(util::RippleTime{100}, {tx_hash(1)});
    history.append(util::RippleTime{100}, {tx_hash(2)});
    // Built before page 1 sealed: it claims sequence 1 again.
    EXPECT_THROW(history.append(stale), std::invalid_argument);

    // The right sequence on top of another chain's tip.
    LedgerHistory other;
    other.append(util::RippleTime{100}, {tx_hash(3)});
    EXPECT_THROW(history.append(other.candidate(util::RippleTime{105}, {})),
                 std::invalid_argument);

    // The right parent under a sequence that skips one.
    ClosedLedger skipping = history.candidate(util::RippleTime{105}, {});
    ++skipping.sequence;
    EXPECT_THROW(history.append(skipping), std::invalid_argument);
    EXPECT_EQ(history.size(), 1u);
    EXPECT_EQ(history.verify_chain(), 1u);
}

#if XRPL_CONTRACTS_ENABLED
TEST(LedgerHistoryDeathTest, AppendAssertsTheHashCoversTheContents) {
    LedgerHistory history;
    ClosedLedger page = history.candidate(util::RippleTime{100}, {tx_hash(1)});
    page.tx_ids.push_back(tx_hash(2));
    EXPECT_DEATH(history.append(page), "a sealed page's hash must cover its contents");
}
#endif

// Page hashes computed once, as of this test's introduction: a
// 20-transaction page (a full node's largest: 684 bytes over eleven
// blocks) and the tip of a 20-page chain of growing pages.
TEST(LedgerHistoryTest, PageHashesArePinned) {
    std::vector<Hash256> ids;
    for (int i = 0; i < 20; ++i) {
        const util::Sha256Digest digest = util::sha256("tx-" + std::to_string(i));
        Hash256 id;
        std::copy(digest.begin(), digest.end(), id.bytes.begin());
        ids.push_back(id);
    }
    Hash256 parent;
    for (std::size_t i = 0; i < parent.bytes.size(); ++i) {
        parent.bytes[i] = static_cast<std::uint8_t>(0xa0 + i);
    }
    EXPECT_EQ(compute_page_hash(7, parent, util::RippleTime{500000000}, ids).to_hex(),
              "3a16efb27097c9e4f872f77e0f76a34cef003536a1960597d06033c04ccf3efc");

    LedgerHistory history;
    for (int i = 0; i < 20; ++i) {
        history.append(util::RippleTime{100 + 5 * i},
                       std::vector<Hash256>(ids.begin(), ids.begin() + i));
    }
    EXPECT_EQ(history.last().hash.to_hex(),
              "f95ba647a7968869bf6707b0df3f5d736abdaf0120497f3ca93237b5700b5ab7");
}

}  // namespace
}  // namespace xrpl::ledger
