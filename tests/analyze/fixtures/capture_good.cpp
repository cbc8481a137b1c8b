// Analyzer fixture: the sanctioned shapes — disjoint per-slot writes,
// body-owned locals, chunk partials for the ordered merge, an
// annotated deliberately-shared histogram, and a local that shares
// its name with another function's static. The capture pass must stay
// silent. Never compiled; tools/analyze --self-test pins this.
#include <cstddef>
#include <vector>

namespace fixture {

std::vector<std::size_t> doubled(const std::vector<std::size_t>& rows) {
    std::vector<std::size_t> out(rows.size());
    static obs::Histogram& chunk_ns = obs::histogram("fixture.chunk_ns");
    exec::parallel_for(rows.size(), 8192,
                       [&](std::size_t begin, std::size_t end) {
                           // analyze-shared: order-free histogram; record is striped-atomic
                           const obs::ScopedTimer timer(chunk_ns);
                           for (std::size_t r = begin; r < end; ++r) {
                               out[r] = rows[r] * 2;  // disjoint slot
                           }
                       });
    return out;
}

std::size_t folded(const std::vector<std::size_t>& rows) {
    return exec::map_reduce<std::size_t>(
        4,
        [&](std::size_t c) {
            std::size_t local = 0;
            local += rows[c];  // body-owned partial
            return local;
        },
        [](std::size_t& acc, std::size_t&& part) { acc += part; });
}

std::size_t counted(std::size_t n) {
    static obs::Counter& chunks = obs::counter("fixture.chunks");
    chunks.add();
    return n;
}

// `chunks` here is this function's own const local, not counted()'s
// static: a function-local static is invisible outside its function.
std::size_t chunk_rows(ledger::PaymentView view) {
    const exec::ChunkedView chunks(view);
    return exec::map_reduce<std::size_t>(
        chunks.chunk_count(),
        [&](std::size_t c) {
            const exec::ChunkedView::Bounds b = chunks.bounds(c);
            return b.end - b.begin;
        },
        [](std::size_t& acc, std::size_t&& part) { acc += part; });
}

}  // namespace fixture
