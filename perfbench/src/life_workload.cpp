#include <thread>

#include "apps/life.hpp"
#include "life/fast_step.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kSide = 2048;
constexpr int kBands = 3;
constexpr int kWarmupIterations = 8;
// Iteration calls per timed request: p50/p90 are the latency of advancing
// the world this many generations. A single ~3 ms iteration's tail is the
// host's wake-up latency (its p90 moved 3.0-8.3 ms between runs of one
// code); over 8 back-to-back calls it averages out like the median does.
constexpr int kIterationsPerCall = 8;

struct LifeSession {
  LifeSession(bool traced, const dps::life::Band& world)
      : cluster(cluster_config(FabricClass::kShm, kBands, traced, &timing)),
        scope(cluster.domain(), "perfbench"),
        life(cluster, kBands) {
    life.scatter(world);
    for (int i = 0; i < kWarmupIterations; ++i) life.iterate(/*improved=*/true);
  }

  std::shared_ptr<TimingFabric> timing;
  dps::Cluster cluster;
  dps::ActorScope scope;
  dps::apps::LifeApp life;
};

/// The tokens one iteration of the improved graph sends between nodes.
std::vector<dps::Ptr<dps::Token>> iteration_tokens() {
  using namespace dps::apps;
  auto* data = new LifeBorderDataToken();
  data->requester = 1;
  data->owner = 0;
  data->iter = 7;
  data->row.resize(kSide);
  auto* phase = new LifeBorderPhaseToken(1, 7, kBands, 0);
  return {dps::Ptr<dps::Token>(new LifeInteriorToken(1, 7, 0)),
          dps::Ptr<dps::Token>(phase),
          dps::Ptr<dps::Token>(new LifeBorderRequestToken(1, 0, 7)),
          dps::Ptr<dps::Token>(data),
          dps::Ptr<dps::Token>(new LifePartDoneToken(1))};
}

/// `world` after `iterations` steps of the LUT kernel, computed outside
/// the engine: 4 bands (not the engine's 3), one std::jthread per band.
dps::life::Band lut_reference(const dps::life::Band& world,
                              uint64_t iterations) {
  constexpr int kRefBands = 4;
  std::vector<dps::life::Band> bands = dps::life::split_world(world, kRefBands);
  std::vector<dps::life::Band> next(kRefBands);
  for (uint64_t it = 0; it < iterations; ++it) {
    std::vector<std::vector<uint8_t>> above(kRefBands), below(kRefBands);
    for (int b = 0; b < kRefBands; ++b) {
      if (b > 0) above[b] = bands[b - 1].row(bands[b - 1].rows() - 1);
      if (b + 1 < kRefBands) below[b] = bands[b + 1].row(0);
    }
    auto step = [&](int b) {
      next[b] = dps::life::lut_step_band(bands[b], above[b], below[b]);
    };
    {
      std::vector<std::jthread> threads;
      for (int b = 1; b < kRefBands; ++b) threads.emplace_back(step, b);
      step(0);
    }
    bands.swap(next);
  }
  return dps::life::join_bands(bands);
}

/// The expected world after `iterations` steps: the LUT reference for all
/// steps but the last, which is taken with life::step_world (the naive
/// oracle). The LUT's first step is checked against step_world too; each
/// of the `oracle_reps` timings of that step_world goes to `seq_s`.
dps::life::Band reference(const dps::life::Band& world, uint64_t iterations,
                          int oracle_reps, std::vector<double>& seq_s,
                          RunResult& r) {
  dps::life::Band naive_first;
  for (int i = 0; i < oracle_reps; ++i) {
    const int64_t t0 = now_ns();
    naive_first = dps::life::step_world(world, 1);
    seq_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  if (!(lut_reference(world, 1) == naive_first)) {
    r.fail("LUT reference step differs from life::step_world");
  }
  return dps::life::step_world(lut_reference(world, iterations - 1), 1);
}

}  // namespace

RunResult run_life(const RunConfig& config) {
  RunResult r;
  dps::life::Band world(kSide, kSide);
  world.seed_random(config.seed);

  if (config.traced) {
    register_timed_life_backend();
    dps::life::LifeBackends::select(kTimedLifeBackend);
  }

  const auto make = [&] {
    return std::make_unique<LifeSession>(config.traced, world);
  };
  auto session = set_up(r, make);

  LayerProbe probe(session->cluster, session->timing.get());
  Window window(config.seconds);
  probe.start();
  window.start();
  while (window.open()) {
    r.attempted += kIterationsPerCall;
    const int64_t t0 = now_ns();
    try {
      for (int i = 0; i < kIterationsPerCall; ++i) {
        session->life.iterate(/*improved=*/true);
      }
    } catch (const std::exception& e) {
      r.failed += kIterationsPerCall;
      r.fail(std::string("iteration failed: ") + e.what());
      break;
    }
    window.record(kIterationsPerCall,
                  static_cast<double>(now_ns() - t0) / 1e3);
  }
  window.stop(r);
  probe.stop(kBands, r);

  const dps::life::Band gathered = session->life.gather();
  check_timing_fabric(session->timing.get(), r);
  session.reset();
  repeat_set_up(r, make);
  dps::life::LifeBackends::reset_selection();

  std::vector<double> seq_s;
  if (r.failed == 0 &&
      !(gathered == reference(world, kWarmupIterations + r.attempted,
                              config.traced ? 3 : 1, seq_s, r))) {
    r.failed = r.attempted;  // a wrong world cannot be traced to one step
    r.fail("gathered world differs from the sequential reference");
  }
  if (config.traced) {
    time_serial(iteration_tokens(), r);
    r.layers["compute.seq_mcells_per_s"] =
        static_cast<double>(kSide) * kSide / median(seq_s) / 1e6;
  }
  return r;
}

}  // namespace perfbench
