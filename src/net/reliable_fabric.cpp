#include "net/reliable_fabric.hpp"

#include <algorithm>
#include <cstring>

#include "obs/trace.hpp"
#include "serial/buffer_pool.hpp"
#include "serial/wire.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace dps {

namespace {

/// Wire prefix of a kReliable frame: [u64 seq][u64 cumulative ack][u16
/// inner kind]. Written with placeholders and patched once the link
/// assigns the sequence number.
constexpr size_t kSeqOffset = 0;
constexpr size_t kAckOffset = sizeof(uint64_t);
constexpr size_t kHeaderSize = 2 * sizeof(uint64_t) + sizeof(uint16_t);

void patch_u64(std::vector<std::byte>& buf, size_t offset, uint64_t value) {
  std::memcpy(buf.data() + offset, &value, sizeof(value));
}

/// A frame built under the lock, shipped after it is released.
struct Out {
  NodeId to;
  FrameKind kind;
  std::vector<std::byte> payload;
  SharedPayload body;  ///< null for acks and heartbeats
};

Out ack_frame(NodeId to, FrameKind kind, uint64_t ack) {
  Writer w;
  w.put<uint64_t>(ack);
  return Out{to, kind, w.take(), nullptr};
}

/// Best effort: a torn transport is just a lossy link here, so a refused
/// send is left to the retransmit timer and the heartbeat detector.
void ship(Fabric& inner, NodeId from, Out& o) {
  try {
    if (o.body != nullptr) {
      inner.send_shared(from, o.to, o.kind, std::move(o.payload),
                        std::move(o.body));
    } else {
      inner.send(from, o.to, o.kind, std::move(o.payload));
    }
  } catch (const Error&) {
  }
}

}  // namespace

ReliableFabric::ReliableFabric(std::shared_ptr<Fabric> inner,
                               size_t node_count,
                               const FaultToleranceConfig& config)
    : inner_(std::move(inner)),
      nodes_(node_count),
      config_(config),
      counts_(node_count) {
  DPS_CHECK(inner_ != nullptr, "ReliableFabric needs an inner fabric");
  MutexLock lock(mu_);
  links_.resize(node_count * node_count);
  const double now = mono_seconds();
  for (Link& l : links_) l.last_heard = now;  // grace from arming time
}

ReliableFabric::~ReliableFabric() { inner_->shutdown(); }

void ReliableFabric::attach(NodeId self, Handler handler) {
  DPS_CHECK(self < nodes_, "attach: node id out of range");
  inner_->attach(self, [this, self, h = std::move(handler)](NodeMessage&& msg) {
    std::vector<NodeMessage> one;
    one.push_back(std::move(msg));
    for (NodeMessage& m : receive(self, std::move(one))) h(std::move(m));
  });
}

void ReliableFabric::attach_batch(NodeId self, BatchHandler handler) {
  DPS_CHECK(self < nodes_, "attach_batch: node id out of range");
  inner_->attach_batch(
      self, [this, self, h = std::move(handler)](std::vector<NodeMessage>&& msgs) {
        std::vector<NodeMessage> up = receive(self, std::move(msgs));
        if (!up.empty()) h(std::move(up));
      });
}

void ReliableFabric::send(NodeId from, NodeId to, FrameKind kind,
                          std::vector<std::byte> payload) {
  if (config_.reliable) {
    // The payload becomes the shared body: retransmits re-send it without
    // a copy, and the last reference returns it to the pool.
    send_shared(from, to, kind, {}, share_pooled(std::move(payload)));
  } else {
    inner_->send(from, to, kind, std::move(payload));
  }
}

void ReliableFabric::send_shared(NodeId from, NodeId to, FrameKind kind,
                                 std::vector<std::byte> prefix,
                                 SharedPayload body) {
  if (!config_.reliable) {
    inner_->send_shared(from, to, kind, std::move(prefix), std::move(body));
    return;
  }
  // Only [seq|ack|kind|prefix] is wrapped and armed for retransmission.
  Writer w(BufferPool::instance().acquire(kHeaderSize + prefix.size()));
  w.put<uint64_t>(0);  // seq placeholder, patched under the lock
  w.put<uint64_t>(0);  // cumulative-ack placeholder
  w.put<uint16_t>(static_cast<uint16_t>(kind));
  w.put_raw(prefix.data(), prefix.size());
  BufferPool::instance().release(std::move(prefix));
  std::vector<std::byte> wrapped = w.take();
  Out out{to, FrameKind::kReliable, {}, body};
  DPS_CHECK(from < nodes_ && to < nodes_,
            "reliable send: node id out of range");
  {
    MutexLock lock(mu_);
    Link& l = link_locked(from, to);
    if (l.dead) {
      // Peer declared down: the link is a black hole.
      BufferPool::instance().release(std::move(wrapped));
      return;
    }
    const uint64_t seq = l.next_seq++;
    patch_u64(wrapped, kSeqOffset, seq);
    patch_u64(wrapped, kAckOffset, l.rx_contig);  // piggybacked ack
    l.acked_sent = std::max(l.acked_sent, l.rx_contig);
    l.ack_pending = false;
    Link::Pending p;
    p.kind = kind;
    p.wrapped = std::move(wrapped);
    p.body = std::move(body);
    p.rto = config_.rto_initial;
    p.next_due = mono_seconds() + p.rto;
    // The in-flight copy; the original arms retransmission.
    out.payload = p.wrapped;
    l.unacked.emplace(seq, std::move(p));
  }
  ship(*inner_, from, out);
}

void ReliableFabric::Link::apply_ack(NodeId self, NodeId peer, uint64_t ack) {
  obs::Trace::record(obs::EventKind::kAckRecv, self, peer, 0, ack, 0);
  auto end = unacked.upper_bound(ack);
  for (auto it = unacked.begin(); it != end; ++it) {
    BufferPool::instance().release(std::move(it->second.wrapped));
  }
  unacked.erase(unacked.begin(), end);
}

std::vector<NodeMessage> ReliableFabric::receive(
    NodeId self, std::vector<NodeMessage>&& msgs) {
  const auto ours = [](const NodeMessage& m) {
    return m.kind == FrameKind::kReliable || m.kind == FrameKind::kAck ||
           m.kind == FrameKind::kHeartbeat;  // heartbeats carry acks too
  };
  if (std::none_of(msgs.begin(), msgs.end(), ours)) return std::move(msgs);
  enum Fate : uint8_t { kPass, kDrop, kUnwrap };
  std::vector<Fate> fate(msgs.size(), kPass);
  std::map<NodeId, uint64_t> reacks;  // duplicate re-acks, one per peer
  {
    MutexLock lock(mu_);
    const double now = mono_seconds();
    for (size_t i = 0; i < msgs.size(); ++i) {
      NodeMessage& msg = msgs[i];
      if (!ours(msg)) continue;  // transport reports, unwrapped frames
      DPS_CHECK(msg.from < nodes_, "frame from unknown node");
      const bool wrapped = msg.kind == FrameKind::kReliable;
      Reader r(msg.payload.data(), msg.payload.size());
      const uint64_t seq = wrapped ? r.get<uint64_t>() : 0;
      Link& l = link_locked(self, msg.from);
      l.last_heard = now;
      l.apply_ack(self, msg.from, r.get<uint64_t>());
      fate[i] = kDrop;
      if (!wrapped) continue;
      const auto inner = static_cast<FrameKind>(r.get<uint16_t>());
      if (seq <= l.rx_contig || l.rx_above.count(seq) != 0) {
        // A retransmission that crossed our ack, or an injected copy: drop
        // it and re-send the cumulative ack so the sender stops.
        counts_[self].dup_suppressed.fetch_add(1, std::memory_order_relaxed);
        l.acked_sent = std::max(l.acked_sent, l.rx_contig);
        l.ack_pending = false;
        obs::Trace::record(obs::EventKind::kDupSuppressed, self, msg.from,
                           static_cast<uint64_t>(inner), seq, 0);
        reacks[msg.from] = l.rx_contig;
        continue;
      }
      if (seq == l.rx_contig + 1) {
        ++l.rx_contig;
        while (l.rx_above.erase(l.rx_contig + 1) != 0) ++l.rx_contig;
      } else {
        l.rx_above.insert(seq);
      }
      l.ack_pending = true;  // flushed by the next tick or piggybacked
      msg.kind = inner;
      fate[i] = kUnwrap;
    }
  }
  std::vector<Out> outs;
  for (const auto& [peer, ack] : reacks) {
    obs::Trace::record(obs::EventKind::kAckSend, self, peer, 0, ack, 0);
    outs.push_back(ack_frame(peer, FrameKind::kAck, ack));
  }
  for (Out& o : outs) ship(*inner_, self, o);
  // Frames are self-contained engine messages: out-of-order delivery is
  // harmless (merge contexts collect by SplitFrame, not arrival order), so
  // new frames go up at once instead of being buffered behind a gap.
  std::vector<NodeMessage> up;
  up.reserve(msgs.size());
  for (size_t i = 0; i < msgs.size(); ++i) {
    if (fate[i] == kDrop) continue;
    if (fate[i] == kUnwrap) {
      msgs[i].payload.erase(msgs[i].payload.begin(),
                            msgs[i].payload.begin() + kHeaderSize);
    }
    up.push_back(std::move(msgs[i]));
  }
  return up;
}

std::vector<NodeId> ReliableFabric::tick(NodeId self, double now) {
  std::vector<Out> outs;
  std::vector<NodeId> suspects;
  {
    MutexLock lock(mu_);
    for (NodeId peer = 0; peer < nodes_; ++peer) {
      Link& l = link_locked(self, peer);
      if (peer == self || l.dead) continue;
      if (l.ack_pending && l.rx_contig > l.acked_sent) {
        obs::Trace::record(obs::EventKind::kAckSend, self, peer, 0,
                           l.rx_contig, 0);
        outs.push_back(ack_frame(peer, FrameKind::kAck, l.rx_contig));
        l.acked_sent = l.rx_contig;
        l.ack_pending = false;
      }
      for (auto& [seq, p] : l.unacked) {
        if (p.next_due > now) continue;
        if (p.retries >= config_.max_retries) {
          suspects.push_back(peer);
          break;
        }
        ++p.retries;
        p.rto = std::min(p.rto * 2, config_.rto_max);
        // Deterministic jitter (from the seq, not a clock) de-synchronizes
        // retransmit bursts without breaking run-to-run reproducibility.
        p.next_due = now + p.rto * (1.0 + 0.25 * static_cast<double>(
                                              (seq * 2654435761ULL) % 97) / 97.0);
        // Refresh the piggybacked ack in place and send a copy of the small
        // wrapped prefix; the body is shared, not copied.
        patch_u64(p.wrapped, kAckOffset, l.rx_contig);
        l.acked_sent = std::max(l.acked_sent, l.rx_contig);
        outs.push_back({peer, FrameKind::kReliable, p.wrapped, p.body});
        // Recorded before the count, so a reader that sees the count also
        // finds the event in the flight recorder.
        obs::Trace::record(obs::EventKind::kRetransmit, self, peer,
                           static_cast<uint64_t>(p.kind), seq,
                           static_cast<uint64_t>(p.retries));
        counts_[self].retransmissions.fetch_add(1, std::memory_order_release);
      }
    }
  }
  for (Out& o : outs) ship(*inner_, self, o);
  return suspects;
}

void ReliableFabric::send_heartbeats(NodeId self) {
  std::vector<Out> outs;
  {
    MutexLock lock(mu_);
    for (NodeId peer = 0; peer < nodes_; ++peer) {
      Link& l = link_locked(self, peer);
      if (peer == self || l.dead) continue;
      l.acked_sent = std::max(l.acked_sent, l.rx_contig);
      l.ack_pending = false;
      obs::Trace::record(obs::EventKind::kHeartbeat, self, peer, 0,
                         l.rx_contig, 0);
      outs.push_back(ack_frame(peer, FrameKind::kHeartbeat, l.rx_contig));
    }
  }
  for (Out& o : outs) ship(*inner_, self, o);
}

std::vector<NodeId> ReliableFabric::stale_peers(NodeId self, double now,
                                                double threshold) const {
  std::vector<NodeId> stale;
  MutexLock lock(mu_);
  for (NodeId peer = 0; peer < nodes_; ++peer) {
    const Link& l = links_[self * nodes_ + peer];
    if (peer == self || l.dead) continue;
    if (now - l.last_heard > threshold) stale.push_back(peer);
  }
  return stale;
}

void ReliableFabric::on_node_down(NodeId node) {
  MutexLock lock(mu_);
  for (NodeId self = 0; self < nodes_; ++self) {
    if (self == node) continue;
    Link& l = link_locked(self, node);
    l.dead = true;
    // Stop retransmitting into the void; recycle the armed frames.
    for (auto& [seq, p] : l.unacked) {
      BufferPool::instance().release(std::move(p.wrapped));
    }
    l.unacked.clear();
  }
}

}  // namespace dps
