#include "timing_fabric.hpp"

#include <thread>

namespace perfbench {

TimingFabric::TimingFabric(std::shared_ptr<dps::Fabric> inner,
                           size_t node_count, uint64_t header_bytes)
    : inner_(std::move(inner)), nodes_(node_count),
      header_bytes_(header_bytes) {
  links_.reserve(nodes_ * nodes_);
  for (size_t i = 0; i < nodes_ * nodes_; ++i) {
    links_.push_back(std::make_unique<Link>());
  }
}

void TimingFabric::attach(dps::NodeId self, Handler handler) {
  inner_->attach(self, [this, self, h = std::move(handler)](
                           dps::NodeMessage&& msg) {
    const int64_t entry = now_ns();
    delivered(self, msg.from, entry);
    deliveries_.fetch_add(1, std::memory_order_relaxed);
    h(std::move(msg));
    deliver_ns_.fetch_add(static_cast<uint64_t>(now_ns() - entry),
                          std::memory_order_relaxed);
  });
}

void TimingFabric::attach_batch(dps::NodeId self, BatchHandler handler) {
  inner_->attach_batch(self, [this, self, h = std::move(handler)](
                                 std::vector<dps::NodeMessage>&& msgs) {
    const int64_t entry = now_ns();
    for (const dps::NodeMessage& m : msgs) delivered(self, m.from, entry);
    deliveries_.fetch_add(1, std::memory_order_relaxed);
    h(std::move(msgs));
    deliver_ns_.fetch_add(static_cast<uint64_t>(now_ns() - entry),
                          std::memory_order_relaxed);
  });
}

void TimingFabric::send(dps::NodeId from, dps::NodeId to, dps::FrameKind kind,
                        std::vector<std::byte> payload) {
  const uint64_t bytes = payload.size();
  const int64_t t0 = stamp_send(from, to);
  inner_->send(from, to, kind, std::move(payload));
  sent(bytes, t0);
}

void TimingFabric::send_shared(dps::NodeId from, dps::NodeId to,
                               dps::FrameKind kind,
                               std::vector<std::byte> prefix,
                               dps::SharedPayload body) {
  const uint64_t bytes = prefix.size() + (body ? body->size() : 0);
  const int64_t t0 = stamp_send(from, to);
  inner_->send_shared(from, to, kind, std::move(prefix), std::move(body));
  sent(bytes, t0);
}

int64_t TimingFabric::stamp_send(dps::NodeId from, dps::NodeId to) {
  const int64_t t0 = now_ns();
  Link& link = *links_[from * nodes_ + to];
  std::lock_guard<std::mutex> lock(link.mu);
  link.stamps.push_back(t0);
  return t0;
}

void TimingFabric::sent(uint64_t payload_bytes, int64_t t0) {
  send_ns_.record(now_ns() - t0);
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  payload_bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
}

void TimingFabric::delivered(dps::NodeId self, dps::NodeId from,
                             int64_t entry) {
  frames_delivered_.fetch_add(1, std::memory_order_relaxed);
  int64_t stamp = 0;
  {
    Link& link = *links_[from * nodes_ + self];
    std::lock_guard<std::mutex> lock(link.mu);
    if (link.stamps.empty()) {
      unpaired_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    stamp = link.stamps.front();
    link.stamps.pop_front();
  }
  transit_ns_.record(entry - stamp);
}

TimingFabric::Counters TimingFabric::counters() const {
  Counters c;
  c.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  c.payload_bytes = payload_bytes_.load(std::memory_order_relaxed);
  c.deliveries = deliveries_.load(std::memory_order_relaxed);
  c.frames_delivered = frames_delivered_.load(std::memory_order_relaxed);
  c.deliver_ns = deliver_ns_.load(std::memory_order_relaxed);
  c.unpaired = unpaired_.load(std::memory_order_relaxed);
  c.send_ns = send_ns_.snapshot();
  c.transit_ns = transit_ns_.snapshot();
  return c;
}

std::string TimingFabric::self_check(double timeout_s) const {
  const int64_t deadline = now_ns() + static_cast<int64_t>(timeout_s * 1e9);
  Counters c = counters();
  while (c.frames_delivered != c.frames_sent && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    c = counters();
  }
  const uint64_t inner_frames = inner_->messages_sent();
  const uint64_t inner_bytes = inner_->bytes_sent();
  const uint64_t wire_bytes = c.payload_bytes + c.frames_sent * header_bytes_;
  std::string err;
  auto disagree = [&err](const char* what, uint64_t got, uint64_t want) {
    err += std::string(err.empty() ? "" : "; ") + what + " " +
           std::to_string(got) + " != " + std::to_string(want);
  };
  if (c.frames_sent != inner_frames) {
    disagree("frames counted vs fabric messages_sent()", c.frames_sent,
             inner_frames);
  }
  if (wire_bytes != inner_bytes) {
    disagree("wire bytes counted vs fabric bytes_sent()", wire_bytes,
             inner_bytes);
  }
  if (c.frames_delivered != c.frames_sent) {
    disagree("frames delivered vs sent", c.frames_delivered, c.frames_sent);
  }
  if (c.unpaired != 0) disagree("deliveries without a send", c.unpaired, 0);
  return err;
}

uint64_t TimingFabric::probe_header_bytes(dps::Fabric& fabric) {
  fabric.attach(0, [](dps::NodeMessage&&) {});
  fabric.attach(1, [](dps::NodeMessage&&) {});
  fabric.send(0, 1, dps::FrameKind::kAck, {});
  const uint64_t bytes = fabric.bytes_sent();
  fabric.shutdown();
  return bytes;
}

}  // namespace perfbench
