// ChunkedView: the partition must cover the view exactly, with bounds
// that depend only on (size, chunk_rows) — never on the thread count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/chunked_view.hpp"
#include "ledger/payment_columns.hpp"

namespace xrpl::exec {
namespace {

ledger::PaymentColumns make_columns(std::size_t n) {
    ledger::PaymentColumns columns;
    columns.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        ledger::TxRecord r;
        r.sender = ledger::AccountID::from_seed("s" + std::to_string(i % 7));
        r.destination = ledger::AccountID::from_seed("d" + std::to_string(i % 5));
        r.currency = ledger::Currency::from_code(i % 2 == 0 ? "USD" : "BTC");
        r.amount = ledger::IouAmount::from_double(1.0 + static_cast<double>(i));
        r.time = util::RippleTime{static_cast<std::int64_t>(i)};
        columns.push_back(r);
    }
    return columns;
}

TEST(ChunkedViewTest, PartitionsExactlyWithRemainder) {
    const ledger::PaymentColumns columns = make_columns(25);
    const ChunkedView chunks(columns.view(), 10);
    EXPECT_EQ(chunks.size(), 25u);
    EXPECT_EQ(chunks.chunk_rows(), 10u);
    ASSERT_EQ(chunks.chunk_count(), 3u);

    std::size_t covered = 0;
    for (std::size_t c = 0; c < chunks.chunk_count(); ++c) {
        const ChunkedView::Bounds b = chunks.bounds(c);
        EXPECT_EQ(b.begin, covered) << "chunk " << c << " must start where "
                                    << "its predecessor ended";
        EXPECT_LT(b.begin, b.end);
        covered = b.end;
    }
    EXPECT_EQ(covered, 25u);
    EXPECT_EQ(chunks.bounds(2).end - chunks.bounds(2).begin, 5u);
}

TEST(ChunkedViewTest, ExactMultipleHasNoRaggedTail) {
    const ledger::PaymentColumns columns = make_columns(30);
    const ChunkedView chunks(columns.view(), 10);
    ASSERT_EQ(chunks.chunk_count(), 3u);
    for (std::size_t c = 0; c < 3; ++c) {
        const ChunkedView::Bounds b = chunks.bounds(c);
        EXPECT_EQ(b.end - b.begin, 10u);
    }
}

TEST(ChunkedViewTest, EmptyViewHasNoChunks) {
    const ledger::PaymentColumns columns = make_columns(0);
    const ChunkedView chunks(columns.view());
    EXPECT_EQ(chunks.chunk_count(), 0u);
}

TEST(ChunkedViewTest, ChunkWindowsAliasTheParentRows) {
    const ledger::PaymentColumns columns = make_columns(25);
    const ChunkedView chunks(columns.view(), 10);
    const ledger::PaymentView tail = chunks.chunk(2);
    ASSERT_EQ(tail.size(), 5u);
    EXPECT_EQ(tail.offset(), 20u);
    EXPECT_EQ(&tail.columns(), &columns);
    EXPECT_EQ(columns.row(tail.offset()).time.seconds, 20);
}

TEST(ChunkedViewTest, SubviewOffsetsStayViewRelative) {
    // Chunking a suffix window: bounds are relative to the window, and
    // the chunk views land on the right absolute rows.
    const ledger::PaymentColumns columns = make_columns(30);
    const ledger::PaymentView suffix = columns.view().subview(12, 18);
    const ChunkedView chunks(suffix, 10);
    ASSERT_EQ(chunks.chunk_count(), 2u);
    EXPECT_EQ(chunks.bounds(0).begin, 0u);
    EXPECT_EQ(chunks.chunk(0).offset(), 12u);
    EXPECT_EQ(chunks.chunk(1).offset(), 22u);
    EXPECT_EQ(columns.row(chunks.chunk(1).offset()).time.seconds, 22);
}

}  // namespace
}  // namespace xrpl::exec
