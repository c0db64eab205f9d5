// Fault-tolerance tests (docs/FAULT_TOLERANCE.md): schedules running over a
// ChaosFabric that drops, duplicates, delays and severs traffic must produce
// results byte-identical to a clean run — and a node killed mid-call must
// surface as Error(kNodeDown) followed by checkpoint-based recovery, never a
// hang. All fault decisions are seed-pinned for reproducibility.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "apps/life.hpp"
#include "core/checkpoint.hpp"
#include "net/chaos_fabric.hpp"
#include "net/framing.hpp"
#include "net/inproc_transport.hpp"
#include "net/shm_fabric.hpp"
#include "net/tcp_transport.hpp"
#include "obs/trace.hpp"
#include "obs/trace_query.hpp"
#include "serial/wire.hpp"
#include "test_seed.hpp"
#include "tests/mcast_app.hpp"
#include "tests/toupper_app.hpp"

namespace dps {
namespace {

using apps::LifeApp;
using dps_tutorial::build_toupper_graph;
using dps_tutorial::StringToken;

constexpr const char* kPhrase =
    "the quick brown fox jumps over the lazy dog 0123456789";
constexpr const char* kPhraseUpper =
    "THE QUICK BROWN FOX JUMPS OVER THE LAZY DOG 0123456789";

ClusterConfig chaos_config(int nodes, const FaultPlan& plan,
                           std::shared_ptr<ChaosFabric>* out = nullptr) {
  ClusterConfig cfg = ClusterConfig::inproc(nodes);
  auto chaos = std::make_shared<ChaosFabric>(
      std::make_shared<InprocFabric>(static_cast<size_t>(nodes)), plan);
  if (out != nullptr) *out = chaos;
  cfg.external_fabric = chaos;
  cfg.fault.reliable = true;
  return cfg;
}

std::string run_toupper(const ClusterConfig& cfg) {
  Cluster cluster(cfg);
  Application app(cluster, "toupper");
  auto graph = build_toupper_graph(app, 4);
  ActorScope scope(cluster.domain(), "main");
  auto result = token_cast<StringToken>(graph->call(new StringToken(kPhrase)));
  return std::string(result->str, static_cast<size_t>(result->len));
}

TEST(Chaos, ToupperSurvivesDropSweep) {
  for (double drop : {0.0, 0.01, 0.10}) {
    FaultPlan plan;
    plan.seed = 0xd20b + static_cast<uint64_t>(drop * 100);
    plan.all.drop = drop;
    EXPECT_EQ(run_toupper(chaos_config(3, plan)), kPhraseUpper)
        << "drop rate " << drop;
  }
}

// Accounting soundness of the reliability layer: every injected drop of a
// kReliable data frame leaves that frame unacked, so the sender's timer must
// eventually resend it — at quiescence sum(retransmissions) >=
// frames_dropped(kReliable). The counters converge rather than match at any
// instant (a drop near the end of the run is only resent one RTO later), so
// the test polls both to a deadline before asserting. The same bound must
// hold for the kRetransmit events in the flight recorder.
TEST(Chaos, RetransmitsAccountForInjectedDrops) {
  FaultPlan plan;
  plan.seed = 0x5e7a;
  plan.all.drop = 0.15;
  std::shared_ptr<ChaosFabric> chaos;
  Cluster cluster(chaos_config(3, plan, &chaos));

  obs::Trace::instance().reset();
  obs::Trace::instance().configure(
      {/*enabled=*/true, /*sample_every=*/1, /*buffer_capacity=*/1u << 15});

  Application app(cluster, "toupper");
  auto graph = build_toupper_graph(app, 4);
  ActorScope scope(cluster.domain(), "main");
  for (int i = 0; i < 3; ++i) {
    auto result =
        token_cast<StringToken>(graph->call(new StringToken(kPhrase)));
    ASSERT_TRUE(result);
    EXPECT_EQ(std::string(result->str, static_cast<size_t>(result->len)),
              kPhraseUpper);
  }

  // Poll to quiescence. Drops are sampled before retransmissions so the
  // compared pair is conservative: anything dropped after the first sample
  // can only raise the retransmit side.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  uint64_t drops = 0, retrans = 0;
  for (;;) {
    drops = chaos->frames_dropped(FrameKind::kReliable);
    retrans = 0;
    for (NodeId n = 0; n < cluster.node_count(); ++n) {
      retrans += cluster.controller(n).retransmissions();
    }
    if (drops > 0 && retrans >= drops) break;
    if (std::chrono::steady_clock::now() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(drops, 0u)
      << "15% loss over three graph calls must drop reliable frames";
  EXPECT_GE(retrans, drops)
      << "every dropped reliable frame must be retransmitted";

  obs::TraceQuery q(obs::Trace::instance().collect());
  obs::Trace::instance().set_enabled(false);
  obs::Trace::instance().reset();
  EXPECT_GE(q.count(obs::EventKind::kRetransmit), drops)
      << "each retransmission must appear in the flight recorder";
  EXPECT_GT(q.count(obs::EventKind::kFabricSend), 0u);
}

TEST(Chaos, ExactlyOnceUnderDuplication) {
  FaultPlan plan;
  plan.seed = 0xd0b1e;
  plan.all.duplicate = 0.10;
  plan.all.duplicate_every = 3;
  plan.all.drop = 0.02;
  std::shared_ptr<ChaosFabric> chaos;
  const ClusterConfig cfg = chaos_config(3, plan, &chaos);
  {
    Cluster cluster(cfg);
    Application app(cluster, "toupper");
    auto graph = build_toupper_graph(app, 4);
    ActorScope scope(cluster.domain(), "main");
    auto result =
        token_cast<StringToken>(graph->call(new StringToken(kPhrase)));
    EXPECT_EQ(std::string(result->str, static_cast<size_t>(result->len)),
              kPhraseUpper);
    uint64_t suppressed = 0;
    for (NodeId n = 0; n < cluster.node_count(); ++n) {
      suppressed += cluster.controller(n).duplicates_suppressed();
    }
    EXPECT_GT(chaos->frames_duplicated(), 0u);
    EXPECT_GT(suppressed, 0u)
        << "injected duplicates must be caught by the receive filter";
  }
}

TEST(Chaos, ToupperSurvivesReorderingDelays) {
  FaultPlan plan;
  plan.seed = 0x0d3;
  plan.all.delay_min = 0.0;
  plan.all.delay_max = 0.002;  // 0–2 ms random per frame: heavy reordering
  std::shared_ptr<ChaosFabric> chaos;
  const ClusterConfig cfg = chaos_config(3, plan, &chaos);
  EXPECT_EQ(run_toupper(cfg), kPhraseUpper);
  EXPECT_GT(chaos->frames_delayed(), 0u);
}

// The acceptance scenario: a multi-iteration split–merge schedule under 10%
// drop plus one duplicate every 50 frames is byte-identical to a fault-free
// run.
TEST(Chaos, LifeByteIdenticalUnderDropAndDuplication) {
  life::Band world(24, 16);
  world.seed_random(7);

  FaultPlan plan;
  plan.seed = 0x11fe;
  plan.all.drop = 0.10;
  plan.all.duplicate_every = 50;
  std::shared_ptr<ChaosFabric> chaos;
  Cluster cluster(chaos_config(2, plan, &chaos));
  LifeApp app(cluster, 4);
  ActorScope scope(cluster.domain(), "main");
  app.scatter(world);
  for (int i = 0; i < 3; ++i) app.iterate(i % 2 == 0);
  EXPECT_EQ(app.gather(), life::step_world(world, 3));
  EXPECT_GT(chaos->frames_dropped(), 0u)
      << "the sweep must actually have exercised loss";
}

// The batched receive path (FrameReader chunks + grouped controller
// delivery, docs/PERFORMANCE.md) must not weaken exactly-once: over real
// TCP sockets, a seeded sweep of drops, duplicates and delay-reorder —
// where retransmitted and duplicated frames land mid-chunk between healthy
// ones — still yields the clean result, and the dup filter must actually
// fire so the sweep is known to have exercised it.
TEST(Chaos, BatchedRxSurvivesSeededFaultSweepOverTcp) {
  uint64_t dups_seen = 0;
  for (uint64_t seed : {0xbeef1ull, 0xbeef2ull, 0xbeef3ull}) {
    FaultPlan plan;
    plan.seed = seed;
    plan.all.drop = 0.05;
    plan.all.duplicate = 0.10;
    plan.all.delay_min = 0.0002;
    plan.all.delay_max = 0.002;  // spread forces reordering
    ClusterConfig cfg = ClusterConfig::inproc(3);
    auto chaos = std::make_shared<ChaosFabric>(
        std::make_shared<TcpFabric>(3), plan);
    cfg.external_fabric = chaos;
    cfg.fault.reliable = true;
    Cluster cluster(cfg);
    Application app(cluster, "toupper");
    auto graph = build_toupper_graph(app, 4);
    ActorScope scope(cluster.domain(), "main");
    auto result =
        token_cast<StringToken>(graph->call(new StringToken(kPhrase)));
    ASSERT_TRUE(result) << "seed " << seed;
    EXPECT_EQ(std::string(result->str, static_cast<size_t>(result->len)),
              kPhraseUpper)
        << "seed " << seed;
    for (NodeId n = 0; n < cluster.node_count(); ++n) {
      dups_seen += cluster.controller(n).duplicates_suppressed();
    }
  }
  EXPECT_GT(dups_seen, 0u)
      << "the sweep must exercise the receive-side duplicate filter";
}

// Same seed, same traffic => same fault decisions; the chaos layer itself is
// deterministic so failing runs replay from their seed.
TEST(Chaos, FaultDecisionsAreSeedPinned) {
  class RecordingFabric : public Fabric {
   public:
    void attach(NodeId, Handler) override {}
    void send(NodeId, NodeId, FrameKind, std::vector<std::byte>) override {
      ++delivered;
    }
    void shutdown() override {}
    uint64_t bytes_sent() const override { return 0; }
    uint64_t messages_sent() const override { return delivered; }
    uint64_t delivered = 0;
  };

  auto pattern = [](uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.all.drop = 0.5;
    plan.all.duplicate = 0.2;
    auto inner = std::make_shared<RecordingFabric>();
    ChaosFabric chaos(inner, plan);
    std::vector<uint8_t> delivered;
    for (int i = 0; i < 200; ++i) {
      const uint64_t before = inner->delivered;
      chaos.send(0, 1, FrameKind::kEnvelope, {});
      delivered.push_back(static_cast<uint8_t>(inner->delivered - before));
    }
    chaos.shutdown();
    return delivered;
  };

  EXPECT_EQ(pattern(42), pattern(42));
  EXPECT_NE(pattern(42), pattern(43));
}

// Acceptance scenario: one node dies mid-call. The in-flight graph call must
// fail with Error(kNodeDown) — not hang — and a fresh cluster built from
// degraded_config() + recover_cluster() finishes the computation with the
// exact result of an uninterrupted run.
TEST(Chaos, NodeKillFailsCallThenCheckpointRecoveryCompletes) {
  life::Band world(20, 16);
  world.seed_random(99);
  std::vector<std::byte> image;
  ClusterConfig degraded;

  {
    FaultPlan plan;  // clean links; the only fault is the kill below
    std::shared_ptr<ChaosFabric> chaos;
    ClusterConfig cfg = chaos_config(3, plan, &chaos);
    cfg.fault.heartbeat = true;
    cfg.fault.heartbeat_period = 0.01;
    cfg.fault.heartbeat_miss = 3;
    Cluster cluster(cfg);
    LifeApp app(cluster, 3);
    ActorScope scope(cluster.domain(), "main");
    app.scatter(world);
    app.iterate(true);
    app.iterate(false);
    image = checkpoint_cluster(cluster);  // quiescent between calls

    chaos->kill_node(2);  // pulled cable: process survives, network dead
    try {
      app.iterate(true);
      FAIL() << "iterate over a dead node must fail, not hang";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::kNodeDown) << e.what();
    }
    // Heartbeat adjudication must blame exactly the killed node.
    EXPECT_EQ(cluster.dead_nodes(), std::vector<NodeId>{2});
    EXPECT_TRUE(cluster.node_down(2));
    EXPECT_FALSE(cluster.node_down(0));
    degraded = degraded_config(cluster);
  }  // the failed cluster (and its chaos fabric) is destroyed

  ASSERT_EQ(degraded.nodes.size(), 2u);
  EXPECT_EQ(degraded.nodes, (std::vector<std::string>{"node0", "node1"}));

  // Recovery: same collections on the surviving nodes, state rolled back to
  // the checkpoint, interrupted call simply re-issued.
  Cluster fresh(degraded);
  LifeApp app(fresh, 3);
  ActorScope scope(fresh.domain(), "main");
  app.scatter(life::Band(20, 16));  // placeholder state, then roll in
  recover_cluster(fresh, image);
  app.iterate(true);  // the re-issued interrupted iteration
  app.iterate(false);
  EXPECT_EQ(app.gather(), life::step_world(world, 4))
      << "recovered run must match an uninterrupted one";
}

// Satellite: a TCP peer that vanishes without a shutdown frame must be
// surfaced as a named protocol error through a kPeerDown report — silence
// (the old behavior) turns one lost node into a cluster-wide hang.
TEST(Chaos, TcpTornStreamSurfacesProtocolErrorNamingTheNode) {
  TcpFabric fabric(2);
  fabric.set_node_names({"alpha", "bravo"});
  std::mutex mu;
  std::condition_variable cv;
  std::vector<NodeMessage> received;
  fabric.attach(0, [&](NodeMessage&& m) {
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(std::move(m));
    cv.notify_all();
  });
  fabric.attach(1, [](NodeMessage&&) {});

  {
    // Pose as node 1, then die mid-frame: header promises 64 payload bytes,
    // only 8 arrive before the connection closes.
    TcpConn conn = TcpConn::connect("127.0.0.1", fabric.port_of(0));
    Frame hello;
    hello.kind = FrameKind::kHello;
    hello.from = 1;
    write_frame(conn, hello);
    Writer w;
    w.put<uint32_t>(kFrameMagic);
    w.put<uint16_t>(static_cast<uint16_t>(FrameKind::kEnvelope));
    w.put<uint16_t>(0);                       // reserved
    w.put<uint32_t>(1);                       // from
    w.put<uint32_t>(64);                      // promised payload length
    const char junk[8] = {};
    w.put_raw(junk, sizeof(junk));            // ...but deliver only 8 bytes
    conn.send_all(w.bytes().data(), w.size());
  }  // close

  std::unique_lock<std::mutex> lock(mu);
  const bool got = cv.wait_for(lock, std::chrono::seconds(5),
                               [&] { return !received.empty(); });
  ASSERT_TRUE(got) << "torn stream must be reported, not swallowed";
  EXPECT_EQ(received[0].kind, FrameKind::kPeerDown);
  EXPECT_EQ(received[0].from, 1u);
  Reader r(received[0].payload.data(), received[0].payload.size());
  const std::string reason = r.get_string();
  EXPECT_NE(reason.find(to_string(Errc::kProtocol)), std::string::npos)
      << reason;
  EXPECT_NE(reason.find("bravo"), std::string::npos)
      << "the offending node must be named: " << reason;
  fabric.shutdown();
}

// The async batched transmit path composed with the reliability layer: a
// seeded drop/duplicate sweep over a ChaosFabric wrapping the *real* TCP
// fabric (per-peer sender queues, writev coalescing) must still deliver
// every graph call's tokens exactly once. Replay a failure with
// DPS_TEST_SEED=<seed> ./dps_tests --gtest_filter=Chaos.TcpBatched*
TEST(Chaos, TcpBatchedSendsDeliverExactlyOnceUnderSeededSweep) {
  const uint32_t seed = dps_testing::effective_seed(0xb47c);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  uint64_t dropped = 0, duplicated = 0, suppressed = 0;
  for (int round = 0; round < 3; ++round) {
    FaultPlan plan;
    plan.seed = seed + static_cast<uint64_t>(round) * 0x9e3779b9u;
    plan.all.drop = 0.05 * round;           // 0%, 5%, 10%
    plan.all.duplicate = 0.05;
    plan.all.duplicate_every = 7;
    ClusterConfig cfg = ClusterConfig::tcp(3);
    auto chaos =
        std::make_shared<ChaosFabric>(std::make_shared<TcpFabric>(3), plan);
    cfg.external_fabric = chaos;
    cfg.fault.reliable = true;
    Cluster cluster(cfg);
    Application app(cluster, "toupper");
    auto graph = build_toupper_graph(app, 4);
    ActorScope scope(cluster.domain(), "main");
    auto result =
        token_cast<StringToken>(graph->call(new StringToken(kPhrase)));
    ASSERT_TRUE(result) << "round " << round;
    EXPECT_EQ(std::string(result->str, static_cast<size_t>(result->len)),
              kPhraseUpper)
        << "round " << round;
    dropped += chaos->frames_dropped();
    duplicated += chaos->frames_duplicated();
    for (NodeId n = 0; n < cluster.node_count(); ++n) {
      suppressed += cluster.controller(n).duplicates_suppressed();
    }
  }
  EXPECT_GT(dropped, 0u) << "the sweep must actually have exercised loss";
  EXPECT_GT(duplicated, 0u) << "the sweep must have injected duplicates";
  EXPECT_GT(suppressed, 0u)
      << "injected duplicates must be suppressed, not re-dispatched";
}

// The same seeded sweep over the shared-memory fabric: drops force the
// reliable layer to retransmit through the rings, duplicates must be
// suppressed, and the result must stay byte-identical — the shm fast path
// earns the same exactly-once guarantees as TCP.
// Replay: DPS_TEST_SEED=<seed> ./dps_tests --gtest_filter=Chaos.ShmBatched*
TEST(Chaos, ShmBatchedSendsDeliverExactlyOnceUnderSeededSweep) {
  if (!shm_available()) GTEST_SKIP() << "POSIX shm unavailable or DPS_SHM=0";
  const uint32_t seed = dps_testing::effective_seed(0x5a11);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  uint64_t dropped = 0, duplicated = 0, suppressed = 0;
  for (int round = 0; round < 3; ++round) {
    FaultPlan plan;
    plan.seed = seed + static_cast<uint64_t>(round) * 0x9e3779b9u;
    plan.all.drop = 0.05 * round;           // 0%, 5%, 10%
    plan.all.duplicate = 0.05;
    plan.all.duplicate_every = 7;
    ClusterConfig cfg = ClusterConfig::shm(3);
    auto chaos =
        std::make_shared<ChaosFabric>(std::make_shared<ShmFabric>(3), plan);
    cfg.external_fabric = chaos;
    cfg.fault.reliable = true;
    Cluster cluster(cfg);
    Application app(cluster, "toupper");
    auto graph = build_toupper_graph(app, 4);
    ActorScope scope(cluster.domain(), "main");
    auto result =
        token_cast<StringToken>(graph->call(new StringToken(kPhrase)));
    ASSERT_TRUE(result) << "round " << round;
    EXPECT_EQ(std::string(result->str, static_cast<size_t>(result->len)),
              kPhraseUpper)
        << "round " << round;
    dropped += chaos->frames_dropped();
    duplicated += chaos->frames_duplicated();
    for (NodeId n = 0; n < cluster.node_count(); ++n) {
      suppressed += cluster.controller(n).duplicates_suppressed();
    }
  }
  EXPECT_GT(dropped, 0u) << "the sweep must actually have exercised loss";
  EXPECT_GT(duplicated, 0u) << "the sweep must have injected duplicates";
  EXPECT_GT(suppressed, 0u)
      << "injected duplicates must be suppressed, not re-dispatched";
}

// Service-mesh churn (docs/SERVICE_MESH.md): client tenants join and leave
// across rounds — one identity re-joining every round, one fresh per round —
// while a seeded drop/duplicate sweep runs underneath and small in-flight
// budgets force load shedding. Every call must either complete with the
// exact clean-run result (exactly-once delivery) or shed synchronously with
// kBackpressure; completed + shed must account for every issue, the peak
// per-tenant in-flight must respect the budget, and nothing may hang.
// Replay: DPS_TEST_SEED=<seed> ./dps_tests --gtest_filter=Chaos.TenantChurn*
TEST(Chaos, TenantChurnShedsCleanlyAndDeliversExactlyOnce) {
  const uint32_t seed = dps_testing::effective_seed(0x7e4a);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  FaultPlan plan;
  plan.seed = seed;
  plan.all.drop = 0.05;
  plan.all.duplicate = 0.05;
  plan.all.duplicate_every = 5;
  std::shared_ptr<ChaosFabric> chaos;
  Cluster cluster(chaos_config(3, plan, &chaos));
  ActorScope scope(cluster.domain(), "main");

  TenantConfig budget;
  budget.max_inflight = 2;
  uint64_t issued = 0, completed = 0, shed = 0;
  TenantId rejoiner_id = kNoTenant;
  for (int round = 0; round < 6; ++round) {
    Application rejoiner(cluster, "churn-rejoiner");
    rejoiner.set_tenant_config(budget);
    if (round == 0) rejoiner_id = rejoiner.tenant();
    EXPECT_EQ(rejoiner.tenant(), rejoiner_id)
        << "a re-joining tenant keeps its identity";
    Application drifter(cluster, "churn-round" + std::to_string(round));
    drifter.set_tenant_config(budget);
    auto g1 = build_toupper_graph(rejoiner, 4);
    auto g2 = build_toupper_graph(drifter, 4);

    // Burst faster than the service can drain: with a budget of two, part
    // of each burst must shed — synchronously, with the named error.
    std::vector<CallHandle> live;
    for (int i = 0; i < 10; ++i) {
      Flowgraph* graph = (i % 2 == 0) ? g1.get() : g2.get();
      ++issued;
      try {
        live.push_back(graph->call_async(new StringToken(kPhrase)));
      } catch (const Error& e) {
        ASSERT_EQ(e.code(), Errc::kBackpressure) << e.what();
        ++shed;
      }
    }
    for (auto& call : live) {
      auto result = token_cast<StringToken>(call.wait());
      ASSERT_TRUE(result);
      EXPECT_EQ(std::string(result->str, static_cast<size_t>(result->len)),
                kPhraseUpper);
      ++completed;
    }

    const Controller::SvcStats stats =
        cluster.controller(rejoiner.home()).svc_stats(rejoiner.tenant());
    EXPECT_LE(stats.peak_inflight, budget.max_inflight)
        << "admission must bound concurrent calls per tenant";
    EXPECT_EQ(stats.inflight, 0u) << "all slots retired at round end";
  }  // both clients leave; the next round re-creates them

  EXPECT_EQ(completed + shed, issued) << "every call accounted for";
  EXPECT_GT(completed, 0u);
  EXPECT_GT(shed, 0u) << "the bursts must actually exercise shedding";
  EXPECT_GT(chaos->frames_dropped(), 0u)
      << "the sweep must actually have exercised loss";
  const Controller::SvcStats stats =
      cluster.controller(0).svc_stats(rejoiner_id);
  EXPECT_EQ(stats.admitted + stats.shed,
            static_cast<uint64_t>(issued) / 2)
      << "the re-joining tenant's stats must survive churn rounds";
}

// Multicast collectives under chaos: a broadcast to K receivers rides ONE
// shared payload per link (kMcastEnvelope frames), and exactly-once
// delivery composes per-link — so a seeded drop/duplicate/reorder sweep
// over both the inproc and the real-TCP fabric must still deliver the
// collective exactly once to every receiver: K distinct echoes, zero
// duplicates, every receiver decoding the identical payload. Replay:
// DPS_TEST_SEED=<seed> ./dps_tests --gtest_filter=Chaos.Mcast*
TEST(Chaos, McastExactlyOnceUnderSeededFaultSweepInprocAndTcp) {
  const uint32_t seed = dps_testing::effective_seed(0x3ca57);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  constexpr int kFanout = 6;
  uint64_t dropped = 0, duplicated = 0;
  for (int use_tcp : {0, 1}) {
    for (int round = 0; round < 2; ++round) {
      FaultPlan plan;
      plan.seed = seed + static_cast<uint64_t>(round) * 0x9e3779b9u +
                  static_cast<uint64_t>(use_tcp) * 0x85ebca6bu;
      plan.all.drop = 0.05 * round;  // clean round, then 5% loss
      plan.all.duplicate = 0.08;
      plan.all.duplicate_every = 5;
      plan.all.delay_min = 0.0;
      plan.all.delay_max = 0.001;  // reordering pressure
      ClusterConfig cfg =
          use_tcp ? ClusterConfig::tcp(3) : ClusterConfig::inproc(3);
      std::shared_ptr<Fabric> inner;
      if (use_tcp) {
        inner = std::make_shared<TcpFabric>(3);
      } else {
        inner = std::make_shared<InprocFabric>(3);
      }
      auto chaos = std::make_shared<ChaosFabric>(inner, plan);
      cfg.external_fabric = chaos;
      cfg.fault.reliable = true;
      Cluster cluster(cfg);
      Application app(cluster, "bcast");
      auto graph = dps_mcast::build_bcast_graph(app, kFanout);
      ActorScope scope(cluster.domain(), "main");
      // A few dozen frames per link at 5% can draw no drop at all, so the
      // lossy round keeps issuing fully checked calls until one is drawn.
      constexpr int kMaxCalls = 64;
      for (int call = 0;
           call < 3 || (round == 1 && chaos->frames_dropped() == 0); ++call) {
        ASSERT_LT(call, kMaxCalls)
            << "no drop drawn in " << kMaxCalls
            << " lossy calls (tcp=" << use_tcp << ")";
        auto res = dps_mcast::run_bcast(
            *graph, kFanout, 0xabc0 + static_cast<uint64_t>(call), 2048);
        ASSERT_TRUE(res) << "tcp=" << use_tcp << " round=" << round;
        EXPECT_EQ(res->distinct, kFanout)
            << "every receiver exactly once (tcp=" << use_tcp << ")";
        EXPECT_EQ(res->total, kFanout);
        EXPECT_EQ(res->duplicates, 0);
        EXPECT_EQ(res->uniform, 1)
            << "all receivers must decode the identical shared payload";
      }
      dropped += chaos->frames_dropped();
      duplicated += chaos->frames_duplicated();
    }
  }
  EXPECT_GT(dropped, 0u) << "the sweep must actually have exercised loss";
  EXPECT_GT(duplicated, 0u) << "the sweep must have injected duplicates";
}

// A fabric that registers only the per-message handler: attach_batch keeps
// Fabric's no-op default, so every frame reaches Controller::on_fabric one
// at a time — the route SimFabric, ProcessFabric and the TCP peer-down
// report take.
class SingleHandlerFabric : public Fabric {
 public:
  explicit SingleHandlerFabric(std::shared_ptr<Fabric> inner)
      : inner_(std::move(inner)) {}
  void attach(NodeId self, Handler handler) override {
    inner_->attach(self, [this, h = std::move(handler)](NodeMessage&& msg) {
      delivered_.fetch_add(1, std::memory_order_relaxed);
      h(std::move(msg));
    });
  }
  void send(NodeId from, NodeId to, FrameKind kind,
            std::vector<std::byte> payload) override {
    inner_->send(from, to, kind, std::move(payload));
  }
  void shutdown() override { inner_->shutdown(); }
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  uint64_t messages_sent() const override { return inner_->messages_sent(); }
  uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<Fabric> inner_;
  std::atomic<uint64_t> delivered_{0};
};

// Exactly-once over the per-message handler: unicast (toupper) and
// multicast (bcast) calls under seeded drop, duplication and reordering
// still produce the clean result, and the duplicate filter and the
// retransmission timer both fire on this route.
TEST(Chaos, SingleHandlerFabricDeliversExactlyOnce) {
  const uint32_t seed = dps_testing::effective_seed(0x51a9);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  constexpr int kFanout = 6;
  FaultPlan plan;
  plan.seed = seed;
  plan.all.drop = 0.05;
  plan.all.duplicate = 0.08;
  plan.all.duplicate_every = 5;
  plan.all.delay_min = 0.0;
  plan.all.delay_max = 0.001;  // reordering pressure
  auto single =
      std::make_shared<SingleHandlerFabric>(std::make_shared<InprocFabric>(3));
  auto chaos = std::make_shared<ChaosFabric>(single, plan);
  ClusterConfig cfg = ClusterConfig::inproc(3);
  cfg.external_fabric = chaos;
  cfg.fault.reliable = true;
  Cluster cluster(cfg);
  Application toupper(cluster, "toupper");
  auto upper = build_toupper_graph(toupper, 4);
  Application bcast(cluster, "bcast");
  auto graph = dps_mcast::build_bcast_graph(bcast, kFanout);
  ActorScope scope(cluster.domain(), "main");
  for (int call = 0; call < 3; ++call) {
    auto result =
        token_cast<StringToken>(upper->call(new StringToken(kPhrase)));
    ASSERT_TRUE(result) << "call " << call;
    EXPECT_EQ(std::string(result->str, static_cast<size_t>(result->len)),
              kPhraseUpper);
    auto res = dps_mcast::run_bcast(
        *graph, kFanout, 0x51a90 + static_cast<uint64_t>(call), 1024);
    ASSERT_TRUE(res) << "call " << call;
    EXPECT_EQ(res->distinct, kFanout);
    EXPECT_EQ(res->total, kFanout);
    EXPECT_EQ(res->duplicates, 0);
    EXPECT_EQ(res->uniform, 1);
  }
  uint64_t suppressed = 0, retransmitted = 0;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    suppressed += cluster.controller(n).duplicates_suppressed();
    retransmitted += cluster.controller(n).retransmissions();
  }
  EXPECT_GT(single->delivered(), 0u)
      << "frames must arrive through the per-message handler";
  EXPECT_GT(chaos->frames_dropped(), 0u);
  EXPECT_GT(chaos->frames_duplicated(), 0u);
  EXPECT_GT(suppressed, 0u)
      << "injected duplicates must be caught on the per-message route";
  EXPECT_GT(retransmitted, 0u)
      << "dropped frames must be resent on the per-message route";
}

// A link partition opened mid-collective must stall the multicast (reliable
// retransmission keeps trying), and healing the link must let the same call
// complete exactly-once — no loss, no duplicate deliveries from the
// retransmit storm that crossed the heal.
TEST(Chaos, McastPartitionHealDeliversExactlyOnce) {
  FaultPlan plan;  // clean links; the only fault is the partition below
  std::shared_ptr<ChaosFabric> chaos;
  ClusterConfig cfg = chaos_config(3, plan, &chaos);
  Cluster cluster(cfg);
  Application app(cluster, "bcast");
  constexpr int kFanout = 6;
  auto graph = dps_mcast::build_bcast_graph(app, kFanout);
  ActorScope scope(cluster.domain(), "main");

  // Warm-up proves the graph works before the fault.
  auto warm = dps_mcast::run_bcast(*graph, kFanout, 1, 512);
  ASSERT_TRUE(warm);
  ASSERT_EQ(warm->distinct, kFanout);

  chaos->partition(0, 2);  // node 2's receivers unreachable from the master
  CallHandle call = [&] {
    auto* req = new dps_mcast::BcastPayload();
    req->fanout = kFanout;
    req->stamp = 2;
    req->blob.resize(512);
    for (size_t i = 0; i < 512; ++i) {
      req->blob[i] = static_cast<uint8_t>((2 + i * 131) & 0xff);
    }
    return graph->call_async(req);
  }();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  chaos->heal(0, 2);

  auto res = token_cast<dps_mcast::BcastResult>(call.wait());
  ASSERT_TRUE(res) << "healed partition must let the collective finish";
  EXPECT_EQ(res->distinct, kFanout);
  EXPECT_EQ(res->total, kFanout);
  EXPECT_EQ(res->duplicates, 0);
  EXPECT_EQ(res->uniform, 1);
  EXPECT_GT(chaos->frames_dropped(), 0u)
      << "the partition must actually have severed frames";
}

// Reliable delivery and heartbeats are wall-clock mechanisms; under virtual
// time they must disarm rather than freeze the simulation.
TEST(Chaos, FaultToleranceDisarmsUnderVirtualTime) {
  ClusterConfig cfg = ClusterConfig::simulated(2);
  cfg.fault.reliable = true;
  cfg.fault.heartbeat = true;
  Cluster cluster(cfg);
  EXPECT_FALSE(cluster.fault_tolerant());
  EXPECT_TRUE(cluster.dead_nodes().empty());
}

}  // namespace
}  // namespace dps
