// TimingFabric: a Fabric decorator that times the `net` layer from
// outside, for the benchmark's traced run.
//
// It wraps the fabric class a workload runs on (ShmFabric, TcpFabric) and
// is handed to the cluster as ClusterConfig::external_fabric. Every call is
// forwarded unchanged to the wrapped fabric — attach_batch and send_shared
// included, so the batching and zero-copy paths stay the ones the untraced
// run takes — and around each call it records:
//
//  * frames and payload bytes sent, and the time spent inside send /
//    send_shared;
//  * calls of the delivery handlers, frames delivered, and the time spent
//    inside the controller's handler (the `core` side of a delivery);
//  * per-frame transit: a send-entry stamp is queued per (from, to) link
//    and paired, in FIFO order, with the entry of the handler that receives
//    the frame.
//
// self_check() compares these counts with the wrapped fabric's own
// messages_sent()/bytes_sent() and with the deliveries, once traffic has
// stopped.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "stats.hpp"

namespace perfbench {

class TimingFabric final : public dps::Fabric {
 public:
  /// `header_bytes` is the wire overhead the wrapped fabric adds to every
  /// frame's payload (see probe_header_bytes).
  TimingFabric(std::shared_ptr<dps::Fabric> inner, size_t node_count,
               uint64_t header_bytes);
  /// Shuts the wrapped fabric down first, so no delivery thread can run
  /// into this object's members while they are destroyed.
  ~TimingFabric() override { inner_->shutdown(); }
  TimingFabric(const TimingFabric&) = delete;
  TimingFabric& operator=(const TimingFabric&) = delete;

  void attach(dps::NodeId self, Handler handler) override;
  void attach_batch(dps::NodeId self, BatchHandler handler) override;
  void send(dps::NodeId from, dps::NodeId to, dps::FrameKind kind,
            std::vector<std::byte> payload) override;
  void send_shared(dps::NodeId from, dps::NodeId to, dps::FrameKind kind,
                   std::vector<std::byte> prefix,
                   dps::SharedPayload body) override;
  void shutdown() override { inner_->shutdown(); }
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  uint64_t messages_sent() const override { return inner_->messages_sent(); }

  /// Wire bytes the wrapped fabric adds to every frame's payload.
  uint64_t header_bytes() const { return header_bytes_; }

  /// Cumulative counters; per-window figures are differences of two.
  struct Counters {
    uint64_t frames_sent = 0;
    uint64_t payload_bytes = 0;
    uint64_t deliveries = 0;        ///< handler calls
    uint64_t frames_delivered = 0;
    uint64_t deliver_ns = 0;        ///< time inside the handlers
    uint64_t unpaired = 0;          ///< deliveries with no queued send stamp
    LogHistogram::Snapshot send_ns;
    LogHistogram::Snapshot transit_ns;
  };
  Counters counters() const;

  /// Waits (up to `timeout_s`) until every sent frame has been delivered,
  /// then checks that the frame and byte counts equal the wrapped fabric's
  /// and that every frame was paired with its delivery. Returns an empty
  /// string on success, else what disagrees.
  std::string self_check(double timeout_s) const;

  /// Wire bytes `fabric` adds per frame beyond the payload, measured by
  /// sending one empty frame from node 0 to node 1 of a fresh fabric.
  static uint64_t probe_header_bytes(dps::Fabric& fabric);

 private:
  struct Link {
    std::mutex mu;
    std::deque<int64_t> stamps;  ///< send-entry times not yet delivered
  };

  /// Queues the send-entry stamp of a frame on its link; returns it.
  int64_t stamp_send(dps::NodeId from, dps::NodeId to);
  void sent(uint64_t payload_bytes, int64_t t0);
  void delivered(dps::NodeId self, dps::NodeId from, int64_t entry);

  std::shared_ptr<dps::Fabric> inner_;
  size_t nodes_;
  uint64_t header_bytes_;
  std::vector<std::unique_ptr<Link>> links_;  // from * nodes_ + to

  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> payload_bytes_{0};
  std::atomic<uint64_t> deliveries_{0};
  std::atomic<uint64_t> frames_delivered_{0};
  std::atomic<uint64_t> deliver_ns_{0};
  std::atomic<uint64_t> unpaired_{0};
  LogHistogram send_ns_;
  LogHistogram transit_ns_;
};

}  // namespace perfbench
