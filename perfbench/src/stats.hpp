// Small statistics helpers shared by the workloads: exact percentiles of a
// sample vector, and a lock-free log-scale histogram for the per-frame
// timings the traced run records from many threads at once.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The q-quantile (0..1) of `v` by nearest rank; 0 for an empty vector.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  return v[static_cast<size_t>(rank + 0.5)];
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Histogram of non-negative integer values (nanoseconds) with 64
/// sub-buckets per power of two: a reported quantile is within 1/64 of the
/// true sample. (obs::Histogram has one bucket per power of two, too coarse
/// to show a change of less than 2x.) Recording is one relaxed atomic
/// increment, so any thread may record concurrently. Quantiles are taken
/// over the difference of two snapshots, which bounds them to a measured
/// window.
class LogHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;
  using Snapshot = std::vector<uint64_t>;

  void record(int64_t value) {
    counts_[index(value < 0 ? 0 : static_cast<uint64_t>(value))].fetch_add(
        1, std::memory_order_relaxed);
  }

  Snapshot snapshot() const {
    Snapshot s(kBuckets);
    for (int i = 0; i < kBuckets; ++i) {
      s[i] = counts_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

  /// The q-quantile of the values recorded between `before` and `after`
  /// (bucket midpoint); 0 when nothing was recorded.
  static double quantile(const Snapshot& before, const Snapshot& after,
                         double q) {
    uint64_t total = 0;
    for (int i = 0; i < kBuckets; ++i) total += after[i] - before[i];
    if (total == 0) return 0;
    const auto target =
        static_cast<uint64_t>(q * static_cast<double>(total - 1));
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += after[i] - before[i];
      if (seen > target) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

 private:
  static int index(uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    const int exp = 63 - std::countl_zero(v);  // >= kSubBits
    const int sub = static_cast<int>((v >> (exp - kSubBits)) & (kSub - 1));
    return (exp - kSubBits + 1) * kSub + sub;
  }

  static double midpoint(int i) {
    if (i < kSub) return i;
    const int exp = i / kSub + kSubBits - 1;
    const double width = static_cast<double>(uint64_t{1} << (exp - kSubBits));
    const double low = static_cast<double>(uint64_t{1} << exp) +
                       static_cast<double>(i % kSub) * width;
    return low + width / 2;
  }

  std::array<std::atomic<uint64_t>, kBuckets> counts_{};
};

}  // namespace perfbench
