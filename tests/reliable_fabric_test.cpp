// ReliableFabric suite (net/reliable_fabric.hpp), at the fabric level with
// no Cluster: the decorator over a seeded ChaosFabric over InprocFabric(2)
// must deliver every frame exactly once with its inner kind and bytes, must
// re-send a dropped multicast frame with the very same shared body, and
// must go quiet towards a peer declared down.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "net/chaos_fabric.hpp"
#include "net/inproc_transport.hpp"
#include "net/reliable_fabric.hpp"
#include "test_seed.hpp"
#include "util/stopwatch.hpp"

namespace dps {
namespace {

FaultToleranceConfig fast_config() {
  FaultToleranceConfig cfg;
  cfg.reliable = true;
  cfg.rto_initial = 0.002;
  cfg.rto_max = 0.02;
  cfg.max_retries = 1000;
  return cfg;
}

/// Records what reaches the transport below the chaos layer: the kind of
/// every frame and, for shared-body sends, the body pointer.
class RecordingFabric : public Fabric {
 public:
  struct Sent {
    FrameKind kind;
    const std::vector<std::byte>* body;
  };
  explicit RecordingFabric(std::shared_ptr<Fabric> inner)
      : inner_(std::move(inner)) {}
  void attach(NodeId self, Handler handler) override {
    inner_->attach(self, std::move(handler));
  }
  void send(NodeId from, NodeId to, FrameKind kind,
            std::vector<std::byte> payload) override {
    sent.push_back({kind, nullptr});
    inner_->send(from, to, kind, std::move(payload));
  }
  void send_shared(NodeId from, NodeId to, FrameKind kind,
                   std::vector<std::byte> prefix, SharedPayload body) override {
    sent.push_back({kind, body.get()});
    inner_->send_shared(from, to, kind, std::move(prefix), std::move(body));
  }
  void shutdown() override { inner_->shutdown(); }
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  uint64_t messages_sent() const override { return inner_->messages_sent(); }

  std::vector<Sent> sent;  // the tests below send from one thread only

 private:
  std::shared_ptr<Fabric> inner_;
};

/// Node 1's inbox; node 0 is attached too, so acks reach the sender.
struct Receiver {
  std::vector<NodeMessage> got;
  void attach(Fabric& fabric) {
    fabric.attach(0, [](NodeMessage&&) {});
    fabric.attach(1, [this](NodeMessage&& m) { got.push_back(std::move(m)); });
  }
};

std::vector<std::byte> pattern(uint32_t id, size_t size) {
  std::vector<std::byte> p(size);
  std::memcpy(p.data(), &id, sizeof(id));
  for (size_t i = sizeof(id); i < size; ++i) {
    p[i] = static_cast<std::byte>((id * 31 + i) & 0xff);
  }
  return p;
}

/// Runs both nodes' timers until `done` holds or 10 s pass.
template <class Pred>
bool tick_until(ReliableFabric& rel, Pred done) {
  const double deadline = mono_seconds() + 10.0;
  while (!done()) {
    if (mono_seconds() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    rel.tick(0, mono_seconds());
    rel.tick(1, mono_seconds());
  }
  return true;
}

TEST(ReliableFabric, EverySendArrivesExactlyOnceUnderDropAndDuplication) {
  const uint32_t seed = dps_testing::effective_seed(0x2e11);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  FaultPlan plan;
  plan.seed = seed;
  plan.all.drop = 0.2;
  plan.all.duplicate_every = 3;
  auto chaos = std::make_shared<ChaosFabric>(std::make_shared<InprocFabric>(2),
                                             plan);
  ReliableFabric rel(chaos, 2, fast_config());
  Receiver rx;
  rx.attach(rel);

  constexpr uint32_t kFrames = 200;
  for (uint32_t id = 0; id < kFrames; ++id) {
    const FrameKind kind = id % 2 == 0 ? FrameKind::kEnvelope
                                       : FrameKind::kFlowAck;
    rel.send(0, 1, kind, pattern(id, 16 + id % 50));
  }
  ASSERT_TRUE(tick_until(rel, [&] { return rx.got.size() >= kFrames; }))
      << "only " << rx.got.size() << " of " << kFrames << " frames arrived";
  // Let retransmits and duplicates still in flight settle, then count.
  const double settle = mono_seconds() + 0.1;
  tick_until(rel, [&] { return mono_seconds() > settle; });

  ASSERT_EQ(rx.got.size(), kFrames);
  std::vector<int> seen(kFrames, 0);
  for (const NodeMessage& m : rx.got) {
    EXPECT_EQ(m.from, 0u);
    uint32_t id = 0;
    ASSERT_GE(m.payload.size(), sizeof(id));
    std::memcpy(&id, m.payload.data(), sizeof(id));
    ASSERT_LT(id, kFrames);
    ++seen[id];
    EXPECT_EQ(m.kind, id % 2 == 0 ? FrameKind::kEnvelope : FrameKind::kFlowAck);
    EXPECT_EQ(m.payload, pattern(id, 16 + id % 50)) << "frame " << id;
  }
  for (uint32_t id = 0; id < kFrames; ++id) {
    EXPECT_EQ(seen[id], 1) << "frame " << id;
  }
  EXPECT_GT(chaos->frames_dropped(FrameKind::kReliable), 0u);
  EXPECT_GT(chaos->frames_duplicated(), 0u);
  EXPECT_GE(rel.retransmissions(0), chaos->frames_dropped(FrameKind::kReliable));
  EXPECT_GT(rel.duplicates_suppressed(1), 0u);
  rel.shutdown();
}

TEST(ReliableFabric, DroppedSharedFrameIsResentWithTheSameBody) {
  auto recorder =
      std::make_shared<RecordingFabric>(std::make_shared<InprocFabric>(2));
  auto chaos = std::make_shared<ChaosFabric>(recorder, FaultPlan{});
  ReliableFabric rel(chaos, 2, fast_config());
  Receiver rx;
  rx.attach(rel);

  const std::vector<std::byte> prefix = pattern(7, 12);
  auto clean = std::make_shared<const std::vector<std::byte>>(pattern(8, 200));
  auto lost = std::make_shared<const std::vector<std::byte>>(pattern(9, 300));
  rel.send_shared(0, 1, FrameKind::kMcastEnvelope, prefix, clean);
  ASSERT_EQ(recorder->sent.size(), 1u);
  EXPECT_EQ(recorder->sent[0].body, clean.get())
      << "the first transmit must carry the shared body, not a copy";
  chaos->partition(0, 1);
  rel.send_shared(0, 1, FrameKind::kMcastEnvelope, prefix, lost);
  ASSERT_EQ(chaos->frames_dropped(FrameKind::kReliable), 1u);
  ASSERT_EQ(recorder->sent.size(), 1u);
  chaos->heal(0, 1);

  ASSERT_TRUE(tick_until(rel, [&] { return rx.got.size() >= 2; }));
  EXPECT_GE(rel.retransmissions(0), 1u);
  bool resent = false;
  for (const RecordingFabric::Sent& sent : recorder->sent) {
    if (sent.body == lost.get()) {
      resent = true;
      EXPECT_EQ(sent.kind, FrameKind::kReliable);
    }
  }
  EXPECT_TRUE(resent)
      << "the retransmit must carry the original shared body, not a copy";

  ASSERT_EQ(rx.got.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const auto& body = i == 0 ? clean : lost;
    std::vector<std::byte> expected = prefix;
    expected.insert(expected.end(), body->begin(), body->end());
    EXPECT_EQ(rx.got[i].kind, FrameKind::kMcastEnvelope);
    EXPECT_EQ(rx.got[i].payload, expected) << "frame " << i;
  }

  // Once node 1's acks reach node 0, the decorator lets go of the bodies.
  EXPECT_TRUE(tick_until(rel, [&] {
    return clean.use_count() == 1 && lost.use_count() == 1;
  }));
  rel.shutdown();
}

TEST(ReliableFabric, NodeDownStopsRetransmission) {
  auto recorder =
      std::make_shared<RecordingFabric>(std::make_shared<InprocFabric>(2));
  auto chaos = std::make_shared<ChaosFabric>(recorder, FaultPlan{});
  ReliableFabric rel(chaos, 2, fast_config());
  Receiver rx;
  rx.attach(rel);

  chaos->kill_node(1);
  for (uint32_t id = 0; id < 4; ++id) {
    rel.send(0, 1, FrameKind::kEnvelope, pattern(id, 32));
  }
  ASSERT_TRUE(tick_until(rel, [&] { return rel.retransmissions(0) >= 8; }));

  rel.on_node_down(1);
  const uint64_t retransmitted = rel.retransmissions(0);
  const uint64_t dropped = chaos->frames_dropped();
  rel.send(0, 1, FrameKind::kEnvelope, pattern(99, 32));  // black hole
  const double until = mono_seconds() + 0.2;  // ten times rto_max
  tick_until(rel, [&] { return mono_seconds() > until; });

  EXPECT_EQ(rel.retransmissions(0), retransmitted);
  EXPECT_EQ(chaos->frames_dropped(), dropped)
      << "nothing may be sent towards a node declared down";
  EXPECT_TRUE(recorder->sent.empty());
  EXPECT_TRUE(rx.got.empty());
  EXPECT_TRUE(rel.stale_peers(0, mono_seconds() + 100, 1.0).empty())
      << "a dead peer is no longer a suspect";
  rel.shutdown();
}

TEST(ReliableFabric, HeartbeatOnlyPassesFramesThroughAndRefreshesLiveness) {
  auto recorder =
      std::make_shared<RecordingFabric>(std::make_shared<InprocFabric>(2));
  FaultToleranceConfig cfg;
  cfg.heartbeat = true;
  ReliableFabric rel(recorder, 2, cfg);
  Receiver rx;
  rx.attach(rel);

  rel.send(0, 1, FrameKind::kEnvelope, pattern(1, 24));
  ASSERT_EQ(recorder->sent.size(), 1u);
  EXPECT_EQ(recorder->sent[0].kind, FrameKind::kEnvelope) << "not wrapped";
  ASSERT_EQ(rx.got.size(), 1u);
  EXPECT_EQ(rx.got[0].payload, pattern(1, 24));

  // A data frame is no beacon: node 0 goes stale until it heartbeats.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(rel.stale_peers(1, mono_seconds(), 0.1), std::vector<NodeId>{0});
  rel.send_heartbeats(0);
  EXPECT_EQ(recorder->sent.back().kind, FrameKind::kHeartbeat);
  EXPECT_EQ(rx.got.size(), 1u) << "heartbeats are consumed, not delivered";
  EXPECT_TRUE(rel.stale_peers(1, mono_seconds(), 0.1).empty());
  rel.shutdown();
}

}  // namespace
}  // namespace dps
