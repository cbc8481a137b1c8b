// Simple integer-keyed and log-bucketed histograms used by the
// appendix analyses.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace xrpl::analytics {

/// Histogram over small non-negative integer keys (hop counts,
/// parallel-path counts).
class CountHistogram {
public:
    void add(std::uint32_t key, std::uint64_t weight = 1);

    [[nodiscard]] std::uint64_t count(std::uint32_t key) const noexcept;
    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
    [[nodiscard]] double share(std::uint32_t key) const noexcept;

    /// All (key, count) pairs with nonzero count, ascending by key.
    [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint64_t>> items() const;

private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/// Histogram over log10-sized buckets of positive doubles.
class LogHistogram {
public:
    void add(double value, std::uint64_t weight = 1);

    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
    /// (decade exponent, count) ascending.
    [[nodiscard]] std::vector<std::pair<int, std::uint64_t>> items() const;

private:
    std::map<int, std::uint64_t> buckets_;
    std::uint64_t total_ = 0;
};

}  // namespace xrpl::analytics
