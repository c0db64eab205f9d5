#include "apps/ring.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kHops = 3;
constexpr int kBlockBytes = 1024;
constexpr int kBlocksPerCall = 4096;
// Fig. 6 runs the ring with a window of 64. At 64 only ~0.4 ms of blocks are
// in flight, so a stalled vCPU drains the whole ring and every stage then
// waits on wake-ups: throughput halved under 20 % simulated steal and varied
// 30 % between runs on a shared host. 1024 blocks (~7 ms) ride out such
// stalls; the per-block serial, net and core path is the same.
constexpr uint32_t kFlowWindow = 1024;

/// Empty when `done` reports `blocks` blocks of kBlockBytes, else why not.
std::string check_ring(const dps::Ptr<dps::Token>& result, int32_t blocks) {
  auto done = dps::token_cast<dps::apps::RingDoneToken>(result);
  if (done.get() == nullptr) return "ring call returned no RingDoneToken";
  if (done->blocks != blocks ||
      done->payload_bytes != int64_t{blocks} * kBlockBytes) {
    return "ring call returned " + std::to_string(done->blocks) + " blocks / " +
           std::to_string(done->payload_bytes) + " bytes for " +
           std::to_string(blocks) + " blocks";
  }
  return {};
}

dps::ClusterConfig ring_config(bool traced,
                               std::shared_ptr<TimingFabric>* timing) {
  dps::ClusterConfig cfg =
      cluster_config(FabricClass::kShm, kHops, traced, timing);
  cfg.flow_window = kFlowWindow;
  return cfg;
}

struct RingSession {
  explicit RingSession(bool traced)
      : cluster(ring_config(traced, &timing)),
        scope(cluster.domain(), "perfbench"),
        app(cluster, "ring"),
        graph(dps::apps::build_ring_graph(app, kHops)) {
    for (int32_t blocks : {2, 4096}) {
      const std::string err = check_ring(
          graph->call(new dps::apps::RingStartToken(blocks, kBlockBytes)),
          blocks);
      DPS_CHECK(err.empty(), err.c_str());
    }
  }

  std::shared_ptr<TimingFabric> timing;
  dps::Cluster cluster;
  dps::ActorScope scope;
  dps::Application app;
  std::shared_ptr<dps::Flowgraph> graph;
};

}  // namespace

RunResult run_ring(const RunConfig& config) {
  RunResult r;
  const auto make = [&] {
    return std::make_unique<RingSession>(config.traced);
  };
  auto session = set_up(r, make);

  LayerProbe probe(session->cluster, session->timing.get());
  Window window(config.seconds);
  probe.start();
  window.start();
  while (window.open()) {
    r.attempted += kBlocksPerCall;
    const int64_t t0 = now_ns();
    std::string err;
    try {
      err = check_ring(session->graph->call(new dps::apps::RingStartToken(
                           kBlocksPerCall, kBlockBytes)),
                       kBlocksPerCall);
    } catch (const std::exception& e) {
      err = std::string("ring call failed: ") + e.what();
    }
    if (!err.empty()) {
      r.failed += kBlocksPerCall;
      r.fail(err);
      break;
    }
    window.record(kBlocksPerCall, static_cast<double>(now_ns() - t0) / 1e3);
  }
  window.stop(r);
  probe.stop(1, r);
  check_timing_fabric(session->timing.get(), r);
  session.reset();
  repeat_set_up(r, make);

  if (config.traced) {
    auto* block = new dps::apps::RingBlockToken();
    block->hop = 1;
    block->index = 7;
    block->payload.resize(kBlockBytes);
    time_serial({dps::Ptr<dps::Token>(block)}, r);
  }
  return r;
}

}  // namespace perfbench
