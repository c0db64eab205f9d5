#include "serial/buffer_pool.hpp"

#include <utility>

namespace dps {

namespace {
// Set by the calling thread's cache destructor: a release during the rest
// of that thread's exit goes straight to the shared list.
thread_local bool t_cache_gone = false;
}  // namespace

BufferPool::Stack::Stack(size_t max_buffers, size_t max_bytes)
    : max_buffers_(max_buffers), max_bytes_(max_bytes) {
  bufs_.reserve(max_buffers);
}

void BufferPool::Stack::push(std::vector<std::byte> buf) {
  bytes_ += buf.capacity();
  bufs_.push_back(std::move(buf));
}

bool BufferPool::Stack::take(size_t size_hint, std::vector<std::byte>& out) {
  size_t best = bufs_.size();
  for (size_t i = bufs_.size(); i-- > 0;) {
    const size_t cap = bufs_[i].capacity();
    if (cap < size_hint) continue;
    if (best == bufs_.size() || cap < bufs_[best].capacity()) best = i;
    if (cap / 2 <= size_hint) break;  // a close fit: stop scanning
  }
  if (best == bufs_.size()) return false;
  out = std::move(bufs_[best]);
  if (best != bufs_.size() - 1) bufs_[best] = std::move(bufs_.back());
  bufs_.pop_back();
  bytes_ -= out.capacity();
  return true;
}

std::vector<std::byte> BufferPool::Stack::pop() {
  std::vector<std::byte> buf = std::move(bufs_.back());
  bufs_.pop_back();
  bytes_ -= buf.capacity();
  return buf;
}

void BufferPool::Stack::clear() {
  bufs_.clear();
  bytes_ = 0;
}

/// One thread's private tier. Touched only by its own thread; hands what
/// it holds to the shared list when the thread exits.
class BufferPool::Cache : public Stack {
 public:
  Cache() : Stack(kCacheBuffers, kCacheBytes) {
    BufferPool::instance().adopt(*this);
  }
  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;
  ~Cache() {
    t_cache_gone = true;
    BufferPool::instance().absorb(*this);
  }

  Counts counts;  ///< this thread's; others only read them
};

BufferPool& BufferPool::instance() {
  // Immortal: threads still exiting after static destruction flush their
  // caches into it.
  static BufferPool* const pool = new BufferPool();
  return *pool;
}

BufferPool::Cache* BufferPool::cache() {
  if (t_cache_gone) return nullptr;
  thread_local Cache c;
  return &c;
}

void BufferPool::count(Cache* c, std::atomic<uint64_t> Counts::*field,
                       uint64_t n) {
  if (c == nullptr) {
    (exited_.*field).fetch_add(n, std::memory_order_relaxed);
    return;
  }
  std::atomic<uint64_t>& v = c->counts.*field;
  v.store(v.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

std::vector<std::byte> BufferPool::acquire(size_t size_hint) {
  Cache* c = cache();
  count(c, &Counts::acquires);
  std::vector<std::byte> buf;
  if ((c != nullptr && c->take(size_hint, buf)) ||
      take_shared(c, size_hint, buf)) {
    count(c, &Counts::reuses);
    return buf;
  }
  buf.reserve(size_hint);
  return buf;
}

bool BufferPool::take_shared(Cache* c, size_t size_hint,
                             std::vector<std::byte>& out) {
  MutexLock lock(mu_);
  const bool found = shared_.take(size_hint, out);
  // Refill the cache so the next misses of this thread stay lock-free.
  while (c != nullptr && shared_.size() > 0 &&
         c->size() < kCacheBuffers / 2 && c->fits(shared_.back_capacity())) {
    c->push(shared_.pop());
  }
  return found;
}

void BufferPool::release(std::vector<std::byte> buf) {
  if (buf.capacity() == 0) return;
  Cache* c = cache();
  if (buf.capacity() > kMaxRetainedCapacity) {
    count(c, &Counts::dropped);
    return;  // buf destructs outside the pool
  }
  buf.clear();
  if (c != nullptr && c->fits(buf.capacity())) {
    c->push(std::move(buf));
    count(c, &Counts::releases);
    return;
  }
  spill(c, std::move(buf));
}

void BufferPool::spill(Cache* c, std::vector<std::byte> buf) {
  {
    MutexLock lock(mu_);
    if (shared_.fits(buf.capacity())) {
      shared_.push(std::move(buf));
      count(c, &Counts::releases);
    } else {
      count(c, &Counts::dropped);
    }
    while (c != nullptr && c->size() > 0 &&
           (c->size() > kCacheBuffers / 2 || c->bytes() > kCacheBytes / 2) &&
           shared_.fits(c->back_capacity())) {
      shared_.push(c->pop());
    }
  }
  // A rejected buf destructs here, outside the lock.
}

void BufferPool::adopt(Cache& c) {
  MutexLock lock(mu_);
  caches_.push_back(&c);
}

void BufferPool::absorb(Cache& c) {
  MutexLock lock(mu_);
  while (c.size() > 0 && shared_.fits(c.back_capacity())) {
    shared_.push(c.pop());
  }
  // What does not fit is freed with the cache.
  for (auto field : {&Counts::acquires, &Counts::reuses, &Counts::releases,
                     &Counts::dropped, &Counts::encode_growths}) {
    (exited_.*field)
        .fetch_add((c.counts.*field).load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }
  for (const Cache*& live : caches_) {
    if (live == &c) {
      live = caches_.back();
      caches_.pop_back();
      break;
    }
  }
}

void BufferPool::Counts::add_to(Stats& s) const {
  s.acquires += acquires.load(std::memory_order_relaxed);
  s.reuses += reuses.load(std::memory_order_relaxed);
  s.releases += releases.load(std::memory_order_relaxed);
  s.dropped += dropped.load(std::memory_order_relaxed);
  s.encode_growths += encode_growths.load(std::memory_order_relaxed);
}

BufferPool::Stats BufferPool::total() const {
  Stats s;
  exited_.add_to(s);
  for (const Cache* c : caches_) c->counts.add_to(s);
  return s;
}

BufferPool::Stats BufferPool::stats() const {
  MutexLock lock(mu_);
  Stats s = total();
  s.acquires -= base_.acquires;
  s.reuses -= base_.reuses;
  s.releases -= base_.releases;
  s.dropped -= base_.dropped;
  s.encode_growths -= base_.encode_growths;
  return s;
}

void BufferPool::reset_stats() {
  MutexLock lock(mu_);
  base_ = total();
}

void BufferPool::note_growth(uint32_t growths) {
  if (growths == 0) return;
  count(cache(), &Counts::encode_growths, growths);
}

void BufferPool::trim() {
  if (Cache* c = cache()) c->clear();
  MutexLock lock(mu_);
  shared_.clear();
}

size_t BufferPool::cached_buffers() const {
  const Cache* c = cache();
  return c != nullptr ? c->size() : 0;
}

size_t BufferPool::cached_bytes() const {
  const Cache* c = cache();
  return c != nullptr ? c->bytes() : 0;
}

}  // namespace dps
