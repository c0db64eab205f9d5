// AppendTable: a dense index -> value table for read-mostly registries.
//
// The engine names applications, thread collections, flow graphs and
// workers by small dense ids that are published once, before any envelope
// can carry them, and then looked up on every token. An AppendTable lets
// those lookups run without a lock while registration stays under the
// owner's mutex:
//
//   * entries live in segments that never move (segment k holds 8 << k
//     slots), so the table grows without a capacity limit and an address
//     handed to a reader stays valid while writers append;
//   * a writer fills slot size() and then publishes the new size with a
//     release store; a reader that loads the size with acquire sees every
//     slot below it fully written.
//
// Writers must be serialized by the owner. A slot is written once; a value
// that changes after publication must itself be atomic (T = std::atomic<P*>).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <memory>
#include <utility>

namespace dps {

template <class T>
class AppendTable {
 public:
  AppendTable() = default;
  AppendTable(const AppendTable&) = delete;
  AppendTable& operator=(const AppendTable&) = delete;

  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// The published slot `i`, or null when i >= size(). Lock-free.
  const T* find(size_t i) const {
    return i < size() ? &slot(i) : nullptr;
  }
  T* find(size_t i) { return i < size() ? &slot(i) : nullptr; }

  /// Fills the next slot with `value`, publishes it and returns its index.
  /// Callers serialize appends.
  template <class U>
  size_t push_back(U&& value) {
    const size_t i = size_.load(std::memory_order_relaxed);
    auto& seg = segs_[segment(i)];
    if (!seg) seg = std::make_unique<T[]>(kFirst << segment(i));
    slot(i) = std::forward<U>(value);
    size_.store(i + 1, std::memory_order_release);
    return i;
  }

 private:
  static constexpr size_t kFirstBits = 3;
  static constexpr size_t kFirst = size_t{1} << kFirstBits;
  static constexpr size_t kSegments = 64 - kFirstBits + 1;

  /// Segment k covers indices [kFirst * (2^k - 1), kFirst * (2^(k+1) - 1)).
  static size_t segment(size_t i) {
    return std::bit_width((i >> kFirstBits) + 1) - 1;
  }
  T& slot(size_t i) const {
    const size_t k = segment(i);
    return segs_[k][i + kFirst - (kFirst << k)];
  }

  std::unique_ptr<T[]> segs_[kSegments];
  std::atomic<size_t> size_{0};
};

}  // namespace dps
