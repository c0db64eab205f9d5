#include "net/shm_fabric.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serial/buffer_pool.hpp"
#include "util/error.hpp"

namespace dps {
namespace {

constexpr uint32_t kShmMagic = 0x4450534d;  // "DPSM"
constexpr uint32_t kShmVersion = 1;
constexpr size_t kBatchBytes = 64 * 1024;  // mirrors FrameReader's chunk
constexpr size_t kRecordHeader = 8;
constexpr int kParkTimeoutMs = 100;  // dead-peer degradation bound

/// In-ring frame record header. Always memcpy'd: the ring is a byte
/// stream, so records are unaligned after a wrap.
struct RecordHeader {
  uint32_t length;  ///< payload bytes following this header
  uint16_t kind;    ///< FrameKind
  uint16_t pad;
};
static_assert(sizeof(RecordHeader) == kRecordHeader);
static_assert(std::is_trivially_copyable_v<RecordHeader>);

/// Segment-wide control block. The doorbell futex word is bumped by a
/// producer only when it observed the consumer's parked flag (Dekker-style
/// store-load fences on both sides make a missed wake impossible); the
/// consumer captures the doorbell *before* scanning rings so a publish
/// racing its park flips the futex compare and the wait returns at once.
struct alignas(64) SegHeader {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t peers = 0;
  uint32_t pad0 = 0;
  uint64_t ring_bytes = 0;
  alignas(64) std::atomic<uint32_t> doorbell{0};
  std::atomic<uint32_t> consumer_parked{0};
  /// Set once by the consumer on stop(): producers fail sends instead of
  /// parking on a ring nobody will drain again.
  alignas(64) std::atomic<uint32_t> closed{0};
};

/// One SPSC byte ring. head/tail are monotonically increasing byte counts;
/// position-in-ring is pos & (ring_bytes - 1). The producer owns head
/// (release), the consumer owns tail (release); each reads the other's
/// word with acquire — this is the whole cross-process protocol, and it is
/// exactly the pattern TSan models.
struct alignas(64) RingHeader {
  alignas(64) std::atomic<uint64_t> head{0};
  alignas(64) std::atomic<uint64_t> tail{0};
  /// Space futex word, bumped by the consumer after freeing space while
  /// the producer's parked flag is up.
  alignas(64) std::atomic<uint32_t> space_seq{0};
  std::atomic<uint32_t> producer_parked{0};
};

#if defined(__linux__)
void futex_wait_ms(std::atomic<uint32_t>* word, uint32_t expected, int ms) {
  timespec ts{ms / 1000, static_cast<long>(ms % 1000) * 1000000L};
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAIT, expected,
          &ts, nullptr, 0);
}
void futex_wake_one(std::atomic<uint32_t>* word) {
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAKE, 1, nullptr,
          nullptr, 0);
}
#else
// No futex off Linux: parked sides nap briefly and recheck. Correctness is
// unchanged (the park paths always recheck state), only wake latency.
void futex_wait_ms(std::atomic<uint32_t>* word, uint32_t expected, int ms) {
  (void)ms;
  if (word->load(std::memory_order_acquire) == expected) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}
void futex_wake_one(std::atomic<uint32_t>*) {}
#endif

size_t round_up_pow2(size_t v) {
  size_t p = 64;
  while (p < v) p <<= 1;
  return p;
}

size_t align_up(size_t v, size_t a) { return (v + a - 1) & ~(a - 1); }

/// Copies n bytes out of a ring starting at absolute position pos,
/// splitting at the wrap point.
void copy_out(std::byte* dst, const std::byte* ring, uint64_t pos, size_t n,
              uint64_t cap) {
  const uint64_t off = pos & (cap - 1);
  const size_t first = static_cast<size_t>(std::min<uint64_t>(n, cap - off));
  std::memcpy(dst, ring + off, first);
  if (n > first) std::memcpy(dst + first, ring, n - first);
}

/// Copies n bytes into a ring starting at absolute position pos.
void copy_in(std::byte* ring, uint64_t pos, const std::byte* src, size_t n,
             uint64_t cap) {
  const uint64_t off = pos & (cap - 1);
  const size_t first = static_cast<size_t>(std::min<uint64_t>(n, cap - off));
  std::memcpy(ring + off, src, first);
  if (n > first) std::memcpy(ring, src + first, n - first);
}

}  // namespace

/// A mapped POSIX segment: SegHeader, then peers RingHeaders, then peers
/// ring data arrays. The creator (consumer side) initializes the layout;
/// openers (producers) validate magic/version and adopt it.
class ShmSegment {
 public:
  static std::unique_ptr<ShmSegment> create(const std::string& name,
                                            uint32_t peers,
                                            size_t ring_bytes) {
    ring_bytes = round_up_pow2(ring_bytes);
    const size_t data_off =
        align_up(sizeof(SegHeader) + peers * sizeof(RingHeader), 64);
    const size_t total = data_off + peers * ring_bytes;
    int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0 && errno == EEXIST) {  // stale leftover of a crashed run
      ::shm_unlink(name.c_str());
      fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    }
    if (fd < 0) {
      raise(Errc::kNetwork, "shm_open(" + name + "): " + std::strerror(errno));
    }
    if (::ftruncate(fd, static_cast<off_t>(total)) != 0) {
      const int err = errno;
      ::close(fd);
      ::shm_unlink(name.c_str());
      raise(Errc::kNetwork, "ftruncate(" + name + "): " + std::strerror(err));
    }
    void* base =
        ::mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
      ::shm_unlink(name.c_str());
      raise(Errc::kNetwork, "mmap(" + name + "): " + std::strerror(errno));
    }
    auto seg = std::unique_ptr<ShmSegment>(new ShmSegment(name, base, total));
    auto* h = new (base) SegHeader();
    for (uint32_t r = 0; r < peers; ++r) {
      new (static_cast<std::byte*>(base) + sizeof(SegHeader) +
           r * sizeof(RingHeader)) RingHeader();
    }
    h->peers = peers;
    h->ring_bytes = ring_bytes;
    h->version = kShmVersion;
    // Published last: an opener that wins a race with initialization sees
    // a zero magic and rejects the segment.
    h->magic = kShmMagic;
    return seg;
  }

  static std::unique_ptr<ShmSegment> open(const std::string& name) {
    const int fd = ::shm_open(name.c_str(), O_RDWR, 0);
    if (fd < 0) {
      raise(Errc::kNetwork, "shm_open(" + name + "): " + std::strerror(errno));
    }
    struct stat st {};
    if (::fstat(fd, &st) != 0 || st.st_size < static_cast<off_t>(
                                                  sizeof(SegHeader))) {
      ::close(fd);
      raise(Errc::kNetwork, "shm segment " + name + " too small");
    }
    const size_t total = static_cast<size_t>(st.st_size);
    void* base =
        ::mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
      raise(Errc::kNetwork, "mmap(" + name + "): " + std::strerror(errno));
    }
    auto seg = std::unique_ptr<ShmSegment>(new ShmSegment(name, base, total));
    const SegHeader& h = seg->header();
    if (h.magic != kShmMagic || h.version != kShmVersion || h.peers == 0) {
      raise(Errc::kNetwork, "shm segment " + name + " failed validation");
    }
    return seg;
  }

  ~ShmSegment() {
    if (base_ != nullptr) ::munmap(base_, size_);
  }
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;

  SegHeader& header() { return *static_cast<SegHeader*>(base_); }
  const SegHeader& header() const {
    return *static_cast<const SegHeader*>(base_);
  }
  uint32_t peers() const { return header().peers; }
  uint64_t ring_bytes() const { return header().ring_bytes; }

  RingHeader& ring(uint32_t r) {
    return *reinterpret_cast<RingHeader*>(static_cast<std::byte*>(base_) +
                                          sizeof(SegHeader) +
                                          r * sizeof(RingHeader));
  }
  std::byte* ring_data(uint32_t r) {
    const size_t data_off =
        align_up(sizeof(SegHeader) + peers() * sizeof(RingHeader), 64);
    return static_cast<std::byte*>(base_) + data_off + r * ring_bytes();
  }

  const std::string& name() const { return name_; }
  void unlink() { ::shm_unlink(name_.c_str()); }  // idempotent

 private:
  ShmSegment(std::string name, void* base, size_t size)
      : name_(std::move(name)), base_(base), size_(size) {}

  std::string name_;
  void* base_ = nullptr;
  size_t size_ = 0;
};

bool shm_available() {
#if !defined(__linux__) && !defined(__APPLE__)
  return false;
#else
  if (const char* env = std::getenv("DPS_SHM");
      env != nullptr && env[0] == '0') {
    return false;  // explicit opt-out: force the TCP path everywhere
  }
  static const bool ok = [] {
    const std::string name = "/dps-shm-probe-" + std::to_string(::getpid());
    int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0 && errno == EEXIST) {
      ::shm_unlink(name.c_str());
      fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    }
    if (fd < 0) return false;
    bool good = ::ftruncate(fd, 4096) == 0;
    if (good) {
      void* p = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE, MAP_SHARED, fd,
                       0);
      good = p != MAP_FAILED;
      if (good) ::munmap(p, 4096);
    }
    ::close(fd);
    ::shm_unlink(name.c_str());
    return good;
  }();
  return ok;
#endif
}

// ---------------------------------------------------------------------------
// ShmInbox (consumer)

ShmInbox::ShmInbox(std::string segment_name, NodeId self, uint32_t peers,
                   size_t ring_bytes)
    : name_(std::move(segment_name)),
      self_(self),
      seg_(ShmSegment::create(name_, peers, ring_bytes)) {}

ShmInbox::~ShmInbox() { stop(); }

void ShmInbox::start(Deliver deliver) {
  DPS_CHECK(!started_.load(std::memory_order_acquire),
            "ShmInbox::start called twice");
  deliver_ = std::move(deliver);
  started_.store(true, std::memory_order_release);
  rx_ = std::thread([this] { rx_loop(); });
}

void ShmInbox::stop() {
  if (!seg_) return;
  SegHeader& sh = seg_->header();
  sh.closed.store(1, std::memory_order_release);
  stop_.store(true, std::memory_order_release);
  // Wake ourselves if parked on the doorbell, and every producer parked on
  // a full ring — they observe `closed` and fail their sends.
  sh.doorbell.fetch_add(1, std::memory_order_release);
  futex_wake_one(&sh.doorbell);
  for (uint32_t r = 0; r < seg_->peers(); ++r) {
    RingHeader& rh = seg_->ring(r);
    rh.space_seq.fetch_add(1, std::memory_order_release);
    futex_wake_one(&rh.space_seq);
  }
  if (rx_.joinable()) rx_.join();
  seg_->unlink();
}

void ShmInbox::rx_loop() {
  if (obs::tracing_active()) {
    obs::Trace::instance().set_thread_name("shm rx " + std::to_string(self_));
  }
  SegHeader& sh = seg_->header();
  const uint32_t peers = seg_->peers();
  const uint64_t cap = seg_->ring_bytes();

  /// Reassembly state of one ring: a frame may arrive across many head
  /// publishes (streamed oversized frames) and its record header may
  /// itself straddle a publish boundary.
  struct Pending {
    size_t hdr_filled = 0;
    std::byte hdr[kRecordHeader];
    bool active = false;  ///< header complete, collecting payload
    RecordHeader rec{};
    size_t filled = 0;
    std::vector<std::byte> buf;
  };
  std::vector<Pending> pending(peers);

  std::vector<NodeMessage> batch;
  size_t batch_bytes = 0;

  auto flush = [&] {
    if (batch.empty()) return;
    if (obs::tracing_active()) {
      obs::Trace::record(obs::EventKind::kShmBatch, self_, batch.size(),
                         batch_bytes, 0, 0);
      static obs::Counter& batches =
          obs::Metrics::instance().counter("dps.shm.rx_batches");
      batches.inc();
      static obs::Counter& frames =
          obs::Metrics::instance().counter("dps.shm.rx_frames");
      frames.inc(batch.size());
      static obs::Counter& bytes =
          obs::Metrics::instance().counter("dps.shm.rx_bytes");
      bytes.inc(batch_bytes);
    }
    deliver_(std::move(batch));
    batch.clear();  // moved-from: back to a known-empty state
    batch_bytes = 0;
  };

  // Frees ring space and wakes the producer if it parked on the ring being
  // full. The fence pairs with the producer's park-side fence so the wake
  // cannot be missed (see SegHeader comment).
  auto advance_tail = [&](RingHeader& rh, uint64_t t) {
    rh.tail.store(t, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // exchange for the same reason as the doorbell: one wake per park, not
    // one per tail advance while the producer waits to be scheduled.
    if (rh.producer_parked.exchange(0, std::memory_order_relaxed) != 0) {
      rh.space_seq.fetch_add(1, std::memory_order_release);
      futex_wake_one(&rh.space_seq);
    }
  };

  auto drain_ring = [&](uint32_t r) {
    RingHeader& rh = seg_->ring(r);
    const std::byte* data = seg_->ring_data(r);
    Pending& p = pending[r];
    bool consumed = false;
    uint64_t tail = rh.tail.load(std::memory_order_relaxed);
    for (;;) {
      uint64_t avail = rh.head.load(std::memory_order_acquire) - tail;
      if (avail == 0) break;
      consumed = true;
      if (!p.active) {
        const size_t k = static_cast<size_t>(
            std::min<uint64_t>(avail, kRecordHeader - p.hdr_filled));
        copy_out(p.hdr + p.hdr_filled, data, tail, k, cap);
        tail += k;
        p.hdr_filled += k;
        advance_tail(rh, tail);
        if (p.hdr_filled < kRecordHeader) continue;
        std::memcpy(&p.rec, p.hdr, kRecordHeader);
        p.hdr_filled = 0;
        p.active = true;
        p.filled = 0;
        p.buf = BufferPool::instance().acquire(p.rec.length);
        p.buf.resize(p.rec.length);
        if (p.rec.length != 0) continue;
        // fall through: zero-payload frame completes immediately
      } else {
        const size_t k = static_cast<size_t>(
            std::min<uint64_t>(avail, p.rec.length - p.filled));
        copy_out(p.buf.data() + p.filled, data, tail, k, cap);
        tail += k;
        p.filled += k;
        advance_tail(rh, tail);
        if (p.filled < p.rec.length) continue;
      }
      batch_bytes += kRecordHeader + p.rec.length;
      batch.push_back(NodeMessage{static_cast<NodeId>(r),
                                  static_cast<FrameKind>(p.rec.kind),
                                  std::move(p.buf)});
      p.active = false;
      p.buf = {};
      if (batch_bytes >= kBatchBytes) flush();
    }
    return consumed;
  };

  while (!stop_.load(std::memory_order_acquire)) {
    const uint32_t captured = sh.doorbell.load(std::memory_order_acquire);
    bool any = false;
    for (uint32_t r = 0; r < peers; ++r) {
      if (drain_ring(r)) any = true;
    }
    flush();
    if (any) continue;
    // Park: flag, fence, recheck every ring, then wait on the captured
    // doorbell value. A producer publishing concurrently either makes the
    // recheck see its head, or sees our parked flag and bumps the doorbell
    // (making the futex compare fail) and wakes us.
    sh.consumer_parked.store(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    bool data = stop_.load(std::memory_order_acquire);
    for (uint32_t r = 0; !data && r < peers; ++r) {
      RingHeader& rh = seg_->ring(r);
      data = rh.head.load(std::memory_order_acquire) !=
             rh.tail.load(std::memory_order_relaxed);
    }
    if (!data) futex_wait_ms(&sh.doorbell, captured, kParkTimeoutMs);
    sh.consumer_parked.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// ShmPeerTx (producer)

ShmPeerTx::ShmPeerTx(const std::string& segment_name, NodeId self)
    : seg_(ShmSegment::open(segment_name)), ring_(self) {
  if (ring_ >= seg_->peers()) {
    raise(Errc::kNetwork, "shm segment " + segment_name + " has no ring for node " +
                              std::to_string(self));
  }
}

ShmPeerTx::~ShmPeerTx() = default;

bool ShmPeerTx::send(FrameKind kind, const std::byte* prefix,
                     size_t prefix_len, const std::byte* body,
                     size_t body_len) {
  MutexLock lock(mu_);
  SegHeader& sh = seg_->header();
  if (sh.closed.load(std::memory_order_acquire) != 0) return false;
  RingHeader& rh = seg_->ring(ring_);
  std::byte* data = seg_->ring_data(ring_);
  const uint64_t cap = seg_->ring_bytes();

  uint64_t head = rh.head.load(std::memory_order_relaxed);
  const uint64_t start = head;

  // Publishes everything written so far and, if the consumer parked after
  // its ring scan, bumps the doorbell and wakes it (Dekker fence pair with
  // the consumer's park path).
  auto publish = [&] {
    rh.head.store(head, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // exchange, not load: the consumer stays marked parked from the moment
    // it decides to sleep until the OS actually runs it again, which on a
    // busy host spans many sends. Claiming the flag here means exactly one
    // frame of a burst pays the FUTEX_WAKE syscall; the consumer re-arms
    // the flag the next time it parks.
    if (sh.consumer_parked.exchange(0, std::memory_order_relaxed) != 0) {
      sh.doorbell.fetch_add(1, std::memory_order_release);
      futex_wake_one(&sh.doorbell);
      wakes_.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // Copies one span into the ring, publishing + parking whenever the ring
  // fills — this is how frames larger than the ring stream through it.
  auto write_span = [&](const std::byte* src, size_t n) {
    size_t done = 0;
    while (done < n) {
      const uint64_t used = head - rh.tail.load(std::memory_order_acquire);
      const uint64_t avail = cap - used;
      if (avail == 0) {
        publish();  // consumer must see our bytes to free space
        const uint32_t seq = rh.space_seq.load(std::memory_order_acquire);
        rh.producer_parked.store(1, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (head - rh.tail.load(std::memory_order_acquire) == cap &&
            sh.closed.load(std::memory_order_acquire) == 0) {
          parks_.fetch_add(1, std::memory_order_relaxed);
          futex_wait_ms(&rh.space_seq, seq, kParkTimeoutMs);
        }
        rh.producer_parked.store(0, std::memory_order_relaxed);
        if (sh.closed.load(std::memory_order_acquire) != 0) return false;
        continue;
      }
      const size_t k =
          static_cast<size_t>(std::min<uint64_t>(n - done, avail));
      copy_in(data, head, src + done, k, cap);
      head += k;
      done += k;
    }
    return true;
  };

  RecordHeader rec{static_cast<uint32_t>(prefix_len + body_len),
                   static_cast<uint16_t>(kind), 0};
  std::byte hdr[kRecordHeader];
  std::memcpy(hdr, &rec, kRecordHeader);
  bool ok = write_span(hdr, kRecordHeader);
  if (ok && prefix_len != 0) ok = write_span(prefix, prefix_len);
  if (ok && body_len != 0) ok = write_span(body, body_len);
  if (!ok) {
    // The receiver shut down mid-frame; whatever was published stays in
    // the dead ring. Report the failure so callers stop using this peer.
    return false;
  }
  publish();
  frames_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(head - start, std::memory_order_relaxed);
  return true;
}

ShmTxStats ShmPeerTx::stats() const {
  ShmTxStats s;
  s.frames = frames_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.doorbell_wakes = wakes_.load(std::memory_order_relaxed);
  s.space_parks = parks_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// ShmFabric (standalone, all nodes in this process)

ShmFabric::ShmFabric(size_t node_count, size_t ring_bytes)
    : nodes_(node_count),
      handlers_(node_count),
      batch_handlers_(node_count) {
  // Segment names are unique per process and per fabric instance so
  // overlapping runs (parallel ctest) never collide.
  static std::atomic<uint64_t> instances{0};
  const uint64_t inst = instances.fetch_add(1, std::memory_order_relaxed);
  inboxes_.resize(node_count);
  tx_.resize(node_count * node_count);
  for (size_t i = 0; i < node_count; ++i) {
    const std::string name = "/dps-shm-" + std::to_string(::getpid()) + "-" +
                             std::to_string(inst) + "-n" + std::to_string(i);
    inboxes_[i] =
        std::make_unique<ShmInbox>(name, static_cast<NodeId>(i),
                                   static_cast<uint32_t>(node_count),
                                   ring_bytes);
  }
  for (size_t from = 0; from < node_count; ++from) {
    for (size_t to = 0; to < node_count; ++to) {
      tx_[from * node_count + to] = std::make_unique<ShmPeerTx>(
          inboxes_[to]->segment_name(), static_cast<NodeId>(from));
    }
  }
  for (size_t i = 0; i < node_count; ++i) {
    const NodeId self = static_cast<NodeId>(i);
    inboxes_[i]->start([this, self](std::vector<NodeMessage>&& batch) {
      deliver(self, std::move(batch));
    });
  }
}

ShmFabric::~ShmFabric() { ShmFabric::shutdown(); }

void ShmFabric::attach(NodeId self, Handler handler) {
  MutexLock lock(mu_);
  DPS_CHECK(self < handlers_.size(), "attach: node id out of range");
  handlers_[self] = std::move(handler);
}

void ShmFabric::attach_batch(NodeId self, BatchHandler handler) {
  MutexLock lock(mu_);
  DPS_CHECK(self < batch_handlers_.size(), "attach_batch: node out of range");
  batch_handlers_[self] = std::move(handler);
}

void ShmFabric::deliver(NodeId to, std::vector<NodeMessage>&& batch) {
  BatchHandler bh;
  Handler h;
  {
    MutexLock lock(mu_);
    if (down_.load(std::memory_order_acquire)) return;
    bh = batch_handlers_[to];  // copy so delivery runs outside mu_
    if (!bh) h = handlers_[to];
  }
  if (bh) {
    bh(std::move(batch));
    return;
  }
  if (!h) return;  // attach() not done yet: attach-before-traffic contract
  for (NodeMessage& m : batch) h(std::move(m));
}

void ShmFabric::send(NodeId from, NodeId to, FrameKind kind,
                     std::vector<std::byte> payload) {
  if (down_.load(std::memory_order_acquire)) return;
  DPS_CHECK(from < nodes_ && to < nodes_, "shm send: node id out of range");
  tx_[from * nodes_ + to]->send(kind, payload.data(), payload.size(), nullptr,
                                0);
  BufferPool::instance().release(std::move(payload));
}

void ShmFabric::send_shared(NodeId from, NodeId to, FrameKind kind,
                            std::vector<std::byte> prefix,
                            SharedPayload body) {
  if (down_.load(std::memory_order_acquire)) return;
  DPS_CHECK(from < nodes_ && to < nodes_, "shm send: node id out of range");
  const std::byte* b = body && !body->empty() ? body->data() : nullptr;
  const size_t nb = b != nullptr ? body->size() : 0;
  tx_[from * nodes_ + to]->send(kind, prefix.data(), prefix.size(), b, nb);
  BufferPool::instance().release(std::move(prefix));
}

void ShmFabric::shutdown() {
  if (down_.exchange(true, std::memory_order_acq_rel)) return;
  // Stopping the inboxes marks their segments closed, which unblocks any
  // producer parked on a full ring.
  for (auto& inbox : inboxes_) {
    if (inbox) inbox->stop();
  }
}

uint64_t ShmFabric::bytes_sent() const {
  uint64_t total = 0;
  for (const auto& t : tx_) {
    if (t) total += t->stats().bytes;
  }
  return total;
}

uint64_t ShmFabric::messages_sent() const {
  uint64_t total = 0;
  for (const auto& t : tx_) {
    if (t) total += t->stats().frames;
  }
  return total;
}

}  // namespace dps
