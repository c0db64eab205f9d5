// Pieces every workload shares: the run configuration and result, the
// measured window, the cluster configuration (with the timing fabric in a
// traced run), the per-layer probe, and the standalone `serial` timing.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "core/cluster.hpp"
#include "serial/buffer_pool.hpp"
#include "serial/token.hpp"
#include "timed_life.hpp"
#include "timing_fabric.hpp"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;  ///< timing fabric, timed Life backend, hop stamps
};

/// Set-ups per run; setup_s is their median. The first one is measured, so
/// peak_rss_mb is that of one session; the others follow the measurement.
inline constexpr int kSetups = 7;

/// The call-latency quantiles a slice keeps.
inline constexpr std::array<double, 3> kLatencyQuantiles = {0.5, 0.9, 0.99};

/// One slice of the measured window: the ops completed in it, and the
/// wall and process CPU time it took.
struct Slice {
  double seconds = 0;
  double cpu_s = 0;
  uint64_t ops = 0;
  uint64_t calls = 0;
  std::vector<double> latency_us;  ///< calls completed in it, until summarise()
  std::array<double, kLatencyQuantiles.size()> latency_q{};

  /// Fills latency_q and frees the samples. A window keeps the samples of
  /// at most two slices, so its memory (which peak_rss_mb counts) does not
  /// grow with the number of calls a faster program completes.
  void summarise();
};

/// What one run of a workload measured.
struct RunResult {
  std::string error;  ///< first wrong output or failure; empty when correct
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> setup_s;  ///< one entry per set-up
  std::vector<Slice> slices;    ///< the measured window, in order
  double peak_rss_mb = 0;       ///< process peak RSS after the window
  std::map<std::string, double> layers;  ///< traced run only

  double window_s() const;
  uint64_t ops() const;
  /// Throughput, latency quantiles and CPU per op are each taken at the
  /// better quartile of the slices: the upper quartile of the slices'
  /// throughput, the lower quartile of their latency and CPU per op. Load
  /// from other guests of a shared host slows whole slices, so a noisy
  /// period covering up to three quarters of the window does not move
  /// them, while a change of the program moves every slice.
  double ops_per_s() const;
  double latency_us(double q) const;
  double cpu_us_per_op() const;

  void fail(const std::string& what) {
    if (error.empty()) error = what;
  }
};

/// SplitMix64: the benchmark's input generator.
inline uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The measured window, cut into kSlices slices. The workload's loop asks
/// open() before starting more work and reports each completed call with
/// record(); a slice closes at the first completion a kSlices-th of the
/// window after it opened, so slice boundaries fall between calls.
class Window {
 public:
  static constexpr int kSlices = 30;

  explicit Window(double seconds);
  void start();
  bool open() const { return now_ns() < end_ns_; }
  void record(uint64_t ops, double latency_us);
  void stop(RunResult& r);

 private:
  void close_slice(int64_t now);

  int64_t length_ns_;
  int64_t end_ns_ = 0;
  int64_t slice_start_ns_ = 0;
  double slice_cpu0_ = 0;
  Slice current_;
  std::vector<Slice> slices_;
};

enum class FabricClass { kShm, kTcp };

/// The configuration of an `nodes`-node cluster on `fabric`. In a traced
/// run the fabric is built here, wrapped in a TimingFabric that is also
/// returned through `timing`, and passed as external_fabric.
dps::ClusterConfig cluster_config(FabricClass fabric, int nodes, bool traced,
                                  std::shared_ptr<TimingFabric>* timing);

/// Runs `make` once and appends its wall time to r.setup_s.
template <class Make>
auto set_up(RunResult& r, const Make& make) {
  const int64_t t0 = now_ns();
  auto session = make();
  r.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  return session;
}

/// The set-ups after the measured one: each is timed, then torn down
/// (untimed).
template <class Make>
void repeat_set_up(RunResult& r, const Make& make) {
  for (int i = 1; i < kSetups; ++i) set_up(r, make).reset();
}

/// Reads the engine's layer counters at the start and the end of the
/// measured window. BufferPool growths are checked in every run; the other
/// layer metrics are written only when `timing` is set (traced run).
class LayerProbe {
 public:
  LayerProbe(dps::Cluster& cluster, const TimingFabric* timing);
  void start();
  /// Call after Window::stop; per-op figures are over r.ops().
  /// `leaf_threads` is the number of threads running the Life kernel (for
  /// compute.leaf_share).
  void stop(int leaf_threads, RunResult& r) const;

 private:
  uint64_t dispatched() const;

  dps::Cluster& cluster_;
  const TimingFabric* timing_;
  TimingFabric::Counters net0_;
  uint64_t dispatched0_ = 0;
  dps::BufferPool::Stats pool0_;
  LeafCounters leaf0_;
};

/// Times serialize_token/deserialize_token standalone on `tokens` (one
/// op's mix of the workload's own token types and sizes), encoding through
/// BufferPool buffers as the engine does. Writes serial.encode_ns_per_token
/// and serial.decode_ns_per_token, and adds the encodes' Writer growths to
/// serial.encode_growths; fails the run when any token needed one.
void time_serial(const std::vector<dps::Ptr<dps::Token>>& tokens,
                 RunResult& r);

/// Checks the timing fabric's counts once traffic has stopped; a
/// disagreement fails the run.
void check_timing_fabric(const TimingFabric* timing, RunResult& r);

/// Self-test of TimingFabric on both fabric classes, without an engine:
/// two threads send to one node, one through send() and one through
/// send_shared(), and the wrapped fabric's counts, the decorator's counts
/// and what the handlers received must all agree. Returns an empty string
/// on success, else what disagrees.
std::string timing_fabric_self_test();

}  // namespace perfbench
