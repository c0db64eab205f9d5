// ShmFabric: POSIX shared-memory transport for DPS kernels on one host.
//
// The paper's several-kernels-on-one-computer deployment pays the full TCP
// stack between co-located kernel processes. This fabric replaces that hop
// with shared memory: every *receiving* node owns one POSIX shm segment
// (its "inbox") holding a strictly single-producer/single-consumer byte
// ring per sending peer plus one futex doorbell word. Producers memcpy
// framed messages straight into their ring and advance a release-ordered
// head; the inbox's RX thread drains all rings into grouped deliveries
// mirroring FrameReader's 64 KB chunk batches, so the engine's
// Controller::on_fabric_batch path is exercised exactly like on TCP.
//
// Blocking is futex-parked on both sides (no spinning): the consumer parks
// on the doorbell when every ring is empty, a producer parks on its ring's
// space word when the ring is full. Both park paths use the classic
// capture/recheck protocol (Dekker-style store-load fences around a parked
// flag) so wakeups cannot be lost, and both wait with a timeout so a dead
// peer degrades into polling instead of a hang.
//
// One segment per *receiver* rather than per peer pair is a deliberate
// deviation from a literal pair-wise layout: a single RX thread can only
// futex-wait on one word, and co-locating the rings lets one doorbell
// cover all peers while each ring stays SPSC at the memory level. Within
// one process, multiple worker threads may send toward the same peer; an
// in-process mutex per ring serializes them, so the cross-process protocol
// still sees exactly one producer.
//
// Frames larger than a ring stream through it: the producer publishes the
// head incrementally as space frees up and the consumer reassembles from
// per-ring partial-frame state, so multi-megabyte tokens need no special
// casing (and no segment as large as the largest token).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/fabric.hpp"
#include "util/thread_annotations.hpp"

namespace dps {

/// True when POSIX shared memory is usable here (probed by creating,
/// mapping and unlinking a small segment). Tests and the tier1 shm stage
/// use it to SKIP gracefully when /dev/shm is absent or unwritable.
bool shm_available();

/// Traffic/parking statistics of one producer ring.
struct ShmTxStats {
  uint64_t frames = 0;
  uint64_t bytes = 0;           ///< ring bytes written (headers included)
  uint64_t doorbell_wakes = 0;  ///< futex wakes issued to a parked consumer
  uint64_t space_parks = 0;     ///< times the producer waited for ring space
};

class ShmSegment;  // mapped segment; layout lives in shm_fabric.cpp

/// Consumer end of one node's shm inbox. Creates and owns the POSIX
/// segment (unlinked again on stop()) and runs the RX thread that drains
/// every peer ring into batched NodeMessage deliveries.
class ShmInbox {
 public:
  using Deliver = std::function<void(std::vector<NodeMessage>&&)>;

  /// Creates segment `segment_name` with `peers` producer rings of
  /// `ring_bytes` each (rounded up to a power of two). Throws
  /// Error(kNetwork) when shared memory is unavailable.
  ShmInbox(std::string segment_name, NodeId self, uint32_t peers,
           size_t ring_bytes);
  ~ShmInbox();
  ShmInbox(const ShmInbox&) = delete;
  ShmInbox& operator=(const ShmInbox&) = delete;

  const std::string& segment_name() const { return name_; }

  /// Spawns the RX thread. `deliver` runs on that thread with batches of
  /// messages in per-peer FIFO order; same non-blocking contract as
  /// Fabric::BatchHandler.
  void start(Deliver deliver);

  /// Stops and joins the RX thread and unlinks the segment. Idempotent.
  void stop();

 private:
  void rx_loop();

  std::string name_;
  NodeId self_;
  std::unique_ptr<ShmSegment> seg_;
  Deliver deliver_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  std::thread rx_;
};

/// Producer end: attaches to a peer's existing inbox segment (same or
/// another process) and writes frames into the ring indexed by `self`.
/// send() may be called from any thread of the owning process; an internal
/// mutex keeps the shared-memory ring single-producer.
class ShmPeerTx {
 public:
  /// Opens `segment_name` created by a peer's ShmInbox. Throws
  /// Error(kNetwork) if the segment does not exist or fails validation.
  ShmPeerTx(const std::string& segment_name, NodeId self);
  ~ShmPeerTx();
  ShmPeerTx(const ShmPeerTx&) = delete;
  ShmPeerTx& operator=(const ShmPeerTx&) = delete;

  /// Writes one frame: `prefix` followed by `body` (either may be empty).
  /// Blocks (futex-parked) while the ring is full; returns false without
  /// sending once the receiving inbox has shut down.
  bool send(FrameKind kind, const std::byte* prefix, size_t prefix_len,
            const std::byte* body, size_t body_len);

  ShmTxStats stats() const;

 private:
  std::unique_ptr<ShmSegment> seg_;
  uint32_t ring_;
  Mutex mu_;  ///< serializes this process's senders; ring stays SPSC
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> wakes_{0};
  std::atomic<uint64_t> parks_{0};
};

/// Standalone Fabric over shm inboxes: `node_count` nodes in one process,
/// every message crossing real /dev/shm bytes. This is the
/// several-kernels-on-one-host mode used by tests and benches; the
/// multi-process deployment reuses ShmInbox/ShmPeerTx directly from the
/// kernel runtime with name-server negotiation (kernel/kernel.cpp).
class ShmFabric : public Fabric {
 public:
  /// Throws Error(kNetwork) when shared memory is unavailable; callers
  /// should probe shm_available() first.
  explicit ShmFabric(size_t node_count, size_t ring_bytes = 1 << 20);
  ~ShmFabric() override;

  void attach(NodeId self, Handler handler) override;
  void attach_batch(NodeId self, BatchHandler handler) override;
  void send(NodeId from, NodeId to, FrameKind kind,
            std::vector<std::byte> payload) override;
  /// Writes prefix + shared body straight into the ring: the multicast
  /// body is copied once per ring and never materialized into an owned
  /// per-destination payload.
  void send_shared(NodeId from, NodeId to, FrameKind kind,
                   std::vector<std::byte> prefix, SharedPayload body) override;
  void shutdown() override;
  uint64_t bytes_sent() const override;
  uint64_t messages_sent() const override;

 private:
  void deliver(NodeId to, std::vector<NodeMessage>&& batch);

  size_t nodes_;
  std::vector<std::unique_ptr<ShmInbox>> inboxes_;       // one per receiver
  std::vector<std::unique_ptr<ShmPeerTx>> tx_;           // from * nodes + to
  mutable Mutex mu_;
  std::vector<Handler> handlers_ DPS_GUARDED_BY(mu_);
  std::vector<BatchHandler> batch_handlers_ DPS_GUARDED_BY(mu_);
  /// Read lock-free by every send; set once by shutdown().
  std::atomic<bool> down_{false};
};

}  // namespace dps
