// Analyzer fixture: the benign namespace-scope shapes — constants,
// functions, types, aliases, annotated globals, and a function-local
// static (pass 2's jurisdiction, not this pass's). Must stay silent.
// Never compiled.
#include <cstddef>
#include <vector>

namespace fixture {

inline constexpr std::size_t kChunkRows = 8192;
constexpr double kRatio = 0.5;
const std::size_t kTableBytes = sizeof(std::size_t) * kChunkRows;
constexpr unsigned kBucketBits = 10;
constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;

struct Stats {
    std::size_t rows = 0;
};

enum class Mode { kSerial, kChunked };

using RowVector = std::vector<std::size_t>;

std::size_t cached_parallelism();

inline std::size_t add_pair(std::size_t a, std::size_t b) { return a + b; }

// An `=` in a parameter list or a template head leaves a function
// body a body: each global after one is still seen, so its annotation
// is used, not stale.
inline std::size_t scaled(std::size_t rows, std::size_t factor = 2) {
    return rows * factor;
}
// analyze-shared: fixture — must be seen past the default argument
std::size_t g_after_default_argument = 0;

template <typename T = std::size_t>
T twice(T value) {
    return value * 2;
}
// analyze-shared: fixture — must be seen past the template head
std::size_t g_after_template_head = 0;

std::size_t cached_parallelism() {
    static std::size_t width = add_pair(1, 3);
    return width;
}

}  // namespace fixture
