// ReliableFabric: exactly-once delivery and liveness beacons around any
// Fabric (docs/FAULT_TOLERANCE.md).
//
// A decorator like ChaosFabric, which the Cluster stacks over its fabric
// when fault tolerance is armed under wall-clock time. Each engine frame
// becomes a kReliable frame on its (self, peer) link:
//
//   [u64 seq | u64 cumulative ack | u16 inner kind | payload]
//
// with piggybacked acks, retransmission with backoff and deterministic
// jitter, and duplicate suppression on receive. Only the prefix is
// wrapped: the payload rides as a shared body (Fabric::send_shared), so a
// multicast body and every retransmit reuse the one encoded buffer. kAck
// and kHeartbeat frames end here; every other frame goes up with its inner
// kind and payload, a receive chunk's new frames as one batch. The
// Cluster's monitor thread drives tick(), send_heartbeats() and
// stale_peers().
//
// The link table has one leaf mutex, never held across an inner send or an
// upward delivery: InprocFabric delivers on the sending thread, so a send
// under the lock could re-enter this fabric and self-deadlock.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/fabric.hpp"
#include "util/thread_annotations.hpp"

namespace dps {

/// Fault-tolerance knobs. Both features are wall-clock mechanisms and are
/// ignored (with a warning) under virtual time. Defaults are tuned for
/// loopback/in-process latencies.
struct FaultToleranceConfig {
  /// Reliable envelope delivery: sequence numbers per (src,dst) link,
  /// cumulative acks piggybacked on traffic, retransmission with
  /// exponential backoff + jitter, duplicate suppression on receive.
  bool reliable = false;
  /// Heartbeat failure detection: nodes beacon each other; a silent node
  /// is declared dead and in-flight graph calls fail with Error(kNodeDown).
  bool heartbeat = false;

  double heartbeat_period = 0.02;   ///< seconds between beacons
  int heartbeat_miss = 5;           ///< silent periods before declared dead
  double rto_initial = 0.005;       ///< first retransmit timeout, seconds
  double rto_max = 0.2;             ///< backoff cap, seconds
  int max_retries = 12;             ///< retry budget before peer is suspect
  double tick_interval = 0.002;     ///< monitor thread granularity, seconds

  bool enabled() const { return reliable || heartbeat; }
};

class ReliableFabric : public Fabric {
 public:
  /// With `config.reliable` off, sends pass through unwrapped and only the
  /// heartbeat side (beacons, last_heard, dead links) is active.
  ReliableFabric(std::shared_ptr<Fabric> inner, size_t node_count,
                 const FaultToleranceConfig& config);
  /// Shuts the inner fabric down, so no delivery thread can run into this
  /// object while it is destroyed.
  ~ReliableFabric() override;
  ReliableFabric(const ReliableFabric&) = delete;
  ReliableFabric& operator=(const ReliableFabric&) = delete;

  void attach(NodeId self, Handler handler) override;
  void attach_batch(NodeId self, BatchHandler handler) override;
  void send(NodeId from, NodeId to, FrameKind kind,
            std::vector<std::byte> payload) override;
  void send_shared(NodeId from, NodeId to, FrameKind kind,
                   std::vector<std::byte> prefix, SharedPayload body) override;
  void shutdown() override { inner_->shutdown(); }
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  uint64_t messages_sent() const override { return inner_->messages_sent(); }

  /// Node `self`'s timers: flushes delayed cumulative acks and retransmits
  /// overdue unacked frames. Returns peers whose retry budget is exhausted
  /// (suspects for the caller to adjudicate). Wall-clock `now` from
  /// mono_seconds().
  std::vector<NodeId> tick(NodeId self, double now);

  /// Beacons every live peer of `self`; carries each link's cumulative ack.
  void send_heartbeats(NodeId self);

  /// Peers of `self` not heard from for `threshold` seconds.
  std::vector<NodeId> stale_peers(NodeId self, double now,
                                  double threshold) const;

  /// `node` was declared dead: every link to it becomes a black hole and
  /// its armed frames are dropped.
  void on_node_down(NodeId node);

  /// Frames node `self` re-sent on a retransmission timeout.
  uint64_t retransmissions(NodeId self) const {
    return counts_[self].retransmissions.load(std::memory_order_acquire);
  }
  /// Frames node `self` received more than once and dropped.
  uint64_t duplicates_suppressed(NodeId self) const {
    return counts_[self].dup_suppressed.load(std::memory_order_relaxed);
  }

 private:
  /// One direction pair (self, peer).
  struct Link {
    // --- sender side ---
    struct Pending {
      FrameKind kind;
      /// [seq|ack|kind|prefix] as first sent; a retransmit patches the ack
      /// field and sends a copy.
      std::vector<std::byte> wrapped;
      /// The payload (or multicast body) appended on every transmit.
      SharedPayload body;
      double next_due = 0;  ///< wall-clock retransmit deadline
      double rto = 0;       ///< current backoff interval
      int retries = 0;
    };
    uint64_t next_seq = 1;                ///< next sequence number to assign
    std::map<uint64_t, Pending> unacked;  ///< sent, not yet cumulatively acked

    // --- receiver side ---
    uint64_t rx_contig = 0;       ///< highest seq with all predecessors seen
    std::set<uint64_t> rx_above;  ///< received out of order, > rx_contig
    uint64_t acked_sent = 0;      ///< highest cumulative ack we transmitted
    bool ack_pending = false;     ///< delivery since last ack we sent

    // --- liveness ---
    double last_heard = 0;  ///< wall clock of last frame from this peer
    bool dead = false;      ///< peer declared down; link is a black hole

    /// Applies node `self`'s cumulative ack from `peer`: releases every
    /// frame it covers.
    void apply_ack(NodeId self, NodeId peer, uint64_t ack);
  };

  /// Per-node counts, read without the lock.
  struct Counts {
    std::atomic<uint64_t> retransmissions{0};
    std::atomic<uint64_t> dup_suppressed{0};
  };

  Link& link_locked(NodeId self, NodeId peer) DPS_REQUIRES(mu_) {
    return links_[self * nodes_ + peer];
  }

  /// Applies the seq/ack bookkeeping of one receive chunk under a single
  /// lock and returns the frames to hand up, headers stripped.
  std::vector<NodeMessage> receive(NodeId self,
                                   std::vector<NodeMessage>&& msgs);

  std::shared_ptr<Fabric> inner_;
  const size_t nodes_;
  const FaultToleranceConfig config_;
  std::vector<Counts> counts_;  ///< indexed by node
  mutable Mutex mu_;
  /// Every (self, peer) link, at self * nodes_ + peer.
  std::vector<Link> links_ DPS_GUARDED_BY(mu_);
};

}  // namespace dps
