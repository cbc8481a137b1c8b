// Analyzer fixture: hidden mutable globals written with brace
// initializers — every declaration below must trigger [global-state]
// (and nothing else). Never compiled.
#include <cstddef>

namespace fixture {

std::size_t g_rows{1};                  // direct-list-initialized
std::size_t g_chunks = std::size_t{1};  // copied from a braced temporary

}  // namespace fixture
