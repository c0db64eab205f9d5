// Free-list pool for the engine's frame buffers.
//
// Every envelope crossing a node boundary is encoded into one exact-size
// byte vector (Envelope::encoded_size() + Writer::reserve), and every
// received frame lands in one pooled payload vector. The transmit side
// returns its buffer once the bytes are on the wire (the TCP sender after
// its writev, the shm producer after its ring copy); the receive side
// returns the payload once the controller has decoded the frame. The next
// acquire on any thread reuses the capacity instead of hitting the
// allocator. The pool is a process-wide singleton because buffers migrate
// between threads (worker encodes, sender releases) and between in-process
// "nodes".
//
// Two tiers keep the per-token path free of a process-wide lock:
//   * a per-thread cache, consulted first by acquire and filled first by
//     release, with no lock at all. Threads that both acquire and release
//     (a shm worker, an rx thread decoding its own frames) recycle entirely
//     inside it;
//   * a shared list behind one mutex, reached only when the cache misses
//     (refilling the cache with several buffers at once) or overflows
//     (spilling half of it at once), so threads that only release (the TCP
//     sender) feed threads that only acquire (the TCP worker) at one lock
//     per batch rather than per buffer. A thread's cache spills into the
//     shared list when the thread exits.
//
// The pool is deliberately small and bounded: it is a capacity cache, not
// an arena. Each tier is capped in buffer count and in bytes, so retention
// cannot grow with thread count × the largest retained buffer. Dropping a
// buffer on the floor is always correct — acquire/release need not pair up.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/thread_annotations.hpp"

namespace dps {

class BufferPool {
 public:
  static BufferPool& instance();

  /// An empty vector with capacity >= size_hint, recycled when possible.
  std::vector<std::byte> acquire(size_t size_hint);

  /// Returns a buffer's capacity to the pool (contents are discarded).
  /// Buffers beyond the retention caps are simply freed.
  void release(std::vector<std::byte> buf);

  /// Counters, kept per thread and summed on read: exact once the threads
  /// that acquire and release have synchronized with the reader (joined, or
  /// handed off through a lock).
  struct Stats {
    uint64_t acquires = 0;  ///< total acquire() calls
    uint64_t reuses = 0;    ///< acquires satisfied without an allocation
    uint64_t releases = 0;  ///< buffers retained by a release()
    uint64_t dropped = 0;   ///< releases rejected by the retention caps
    uint64_t encode_growths = 0;  ///< Writer reallocations noted via
                                  ///< note_growth — zero when every encode
                                  ///< got an exact-size buffer
  };
  Stats stats() const;
  void reset_stats();

  /// Folds a Writer::growth_count() into the stats; callers report it after
  /// finishing an encode so tests can assert the zero-realloc invariant.
  void note_growth(uint32_t growths);

  /// Frees every buffer of the shared list and of the calling thread's
  /// cache (tests; leak-checker hygiene). Other threads' caches are theirs.
  void trim();

  /// Buffers and bytes of capacity held by the calling thread's cache.
  size_t cached_buffers() const;
  size_t cached_bytes() const;

  // Caps chosen for the engine's working set. A thread's cache holds a
  // typical receive batch of small frames (an shm ring delivery averages
  // ~9 1 kB frames) and no more: every thread that touches the pool has
  // one, and what they hold idle counts in the process's RSS. The shared
  // list holds a burst of in-flight frames: a split that posts a few
  // hundred 1 kB blocks into one TCP link queues that many encode buffers,
  // which its sender returns all at once. Oversized one-off buffers
  // (multi-MB tokens) are not retained, so a single huge transfer can't
  // pin memory.
  static constexpr size_t kCacheBuffers = 16;
  static constexpr size_t kCacheBytes = 32 << 10;
  static constexpr size_t kMaxFreeBuffers = 1024;
  static constexpr size_t kMaxFreeBytes = 8 << 20;
  static constexpr size_t kMaxRetainedCapacity = 1 << 20;

 private:
  /// A LIFO of retained buffers, capped in count and in bytes of capacity.
  class Stack {
   public:
    Stack(size_t max_buffers, size_t max_bytes);
    bool fits(size_t capacity) const {
      return bufs_.size() < max_buffers_ && bytes_ + capacity <= max_bytes_;
    }
    /// Callers check fits() first.
    void push(std::vector<std::byte> buf);
    /// Moves a buffer of capacity >= size_hint into `out` (the newest one
    /// at most twice the hint, else the smallest that fits); false when
    /// none fits.
    bool take(size_t size_hint, std::vector<std::byte>& out);
    std::vector<std::byte> pop();
    size_t size() const { return bufs_.size(); }
    size_t bytes() const { return bytes_; }
    size_t back_capacity() const { return bufs_.back().capacity(); }
    void clear();

   private:
    std::vector<std::vector<std::byte>> bufs_;
    size_t bytes_ = 0;
    size_t max_buffers_;
    size_t max_bytes_;
  };
  class Cache;

  /// Event counts of one thread (or of the exited threads). A thread's
  /// counts are written only by that thread, with a relaxed load and store
  /// rather than a locked add, so counting touches no cache line another
  /// thread writes; one shared set would be bumped three times per frame
  /// buffer by every sender and receiver.
  struct Counts {
    std::atomic<uint64_t> acquires{0};
    std::atomic<uint64_t> reuses{0};
    std::atomic<uint64_t> releases{0};
    std::atomic<uint64_t> dropped{0};
    std::atomic<uint64_t> encode_growths{0};
    void add_to(Stats& s) const;
  };

  BufferPool() = default;
  /// The calling thread's cache; null once the thread's cache is gone
  /// (thread exit), when both tiers degrade to the shared list.
  static Cache* cache();
  /// Adds `n` to one counter of `c`'s thread, or of `exited_` when the
  /// thread's cache is gone.
  void count(Cache* c, std::atomic<uint64_t> Counts::*field, uint64_t n = 1);
  /// Sum over every thread that ever counted (caller holds mu_).
  Stats total() const DPS_REQUIRES(mu_);

  /// Cache miss: takes a shared buffer that fits into `out` (returns false
  /// when none does) and refills `c` up to half its count cap.
  bool take_shared(Cache* c, size_t size_hint, std::vector<std::byte>& out);
  /// Cache full: retains `buf` in the shared list if it has room and moves
  /// cached buffers along until `c` is at most half full in count and in
  /// bytes.
  void spill(Cache* c, std::vector<std::byte> buf);
  /// Thread start: lists `c` so stats() can read its counts.
  void adopt(Cache& c);
  /// Thread exit: moves what fits of `c` into the shared list and its
  /// counts into `exited_`.
  void absorb(Cache& c);

  mutable Mutex mu_;
  Stack shared_ DPS_GUARDED_BY(mu_){kMaxFreeBuffers, kMaxFreeBytes};
  /// Live threads' caches, each carrying its thread's counts.
  std::vector<const Cache*> caches_ DPS_GUARDED_BY(mu_);
  /// Counts of exited threads, and of calls made during a thread's exit
  /// after its cache is gone (rare; the only counts bumped with a locked
  /// add, since several exiting threads may bump them at once).
  Counts exited_;
  /// total() at the last reset_stats(); stats() reports the difference.
  Stats base_ DPS_GUARDED_BY(mu_);
};

}  // namespace dps
