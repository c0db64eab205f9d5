#include "common.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "core/controller.hpp"
#include "net/shm_fabric.hpp"
#include "net/tcp_transport.hpp"
#include "serial/registry.hpp"
#include "serial/wire.hpp"

namespace perfbench {

namespace {

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

std::shared_ptr<dps::Fabric> make_fabric(
    FabricClass fabric, const std::vector<std::string>& names) {
  if (fabric == FabricClass::kShm) {
    return std::make_shared<dps::ShmFabric>(names.size());
  }
  auto tcp = std::make_shared<dps::TcpFabric>(names.size());
  tcp->set_node_names(names);
  return tcp;
}

/// Per-frame wire overhead of `fabric`'s class, probed once per process.
uint64_t header_bytes(FabricClass fabric) {
  static const uint64_t shm = [] {
    auto f = make_fabric(FabricClass::kShm, {"probe0", "probe1"});
    return TimingFabric::probe_header_bytes(*f);
  }();
  static const uint64_t tcp = [] {
    auto f = make_fabric(FabricClass::kTcp, {"probe0", "probe1"});
    return TimingFabric::probe_header_bytes(*f);
  }();
  return fabric == FabricClass::kShm ? shm : tcp;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return seconds_of(ru.ru_utime) + seconds_of(ru.ru_stime);
}

/// The process's own peak RSS: VmHWM of /proc/self/status, which exec
/// resets. getrusage's ru_maxrss is the fallback only, because Linux carries
/// it over from the process that exec'd us (run.py's Python, ~14 MB, more
/// than the service workload itself uses).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

}  // namespace

double RunResult::window_s() const {
  double total = 0;
  for (const Slice& s : slices) total += s.seconds;
  return total;
}

uint64_t RunResult::ops() const {
  uint64_t total = 0;
  for (const Slice& s : slices) total += s.ops;
  return total;
}

double RunResult::ops_per_s() const {
  std::vector<double> v;
  for (const Slice& s : slices) {
    v.push_back(static_cast<double>(s.ops) / s.seconds);
  }
  return percentile(v, 0.75);
}

void Slice::summarise() {
  for (size_t i = 0; i < kLatencyQuantiles.size(); ++i) {
    latency_q[i] = percentile(latency_us, kLatencyQuantiles[i]);
  }
  std::vector<double>().swap(latency_us);
}

double RunResult::latency_us(double q) const {
  const auto* it =
      std::find(kLatencyQuantiles.begin(), kLatencyQuantiles.end(), q);
  DPS_CHECK(it != kLatencyQuantiles.end(), "latency quantile not kept");
  const auto i = static_cast<size_t>(it - kLatencyQuantiles.begin());
  std::vector<double> v;
  for (const Slice& s : slices) v.push_back(s.latency_q[i]);
  return percentile(v, 0.25);
}

double RunResult::cpu_us_per_op() const {
  std::vector<double> v;
  for (const Slice& s : slices) {
    if (s.ops > 0) v.push_back(s.cpu_s * 1e6 / static_cast<double>(s.ops));
  }
  return percentile(v, 0.25);
}

Window::Window(double seconds)
    : length_ns_(static_cast<int64_t>(seconds * 1e9)) {}

void Window::start() {
  slice_cpu0_ = process_cpu_s();
  slice_start_ns_ = now_ns();
  end_ns_ = slice_start_ns_ + length_ns_;
}

void Window::record(uint64_t ops, double latency_us) {
  current_.ops += ops;
  ++current_.calls;
  current_.latency_us.push_back(latency_us);
  const int64_t now = now_ns();
  if (now - slice_start_ns_ >= length_ns_ / kSlices) close_slice(now);
}

void Window::close_slice(int64_t now) {
  const double cpu = process_cpu_s();
  current_.seconds = static_cast<double>(now - slice_start_ns_) * 1e-9;
  current_.cpu_s = cpu - slice_cpu0_;
  // The last slice keeps its samples until stop() may fold a short tail in.
  if (!slices_.empty()) slices_.back().summarise();
  slices_.push_back(std::move(current_));
  current_ = Slice{};
  slice_start_ns_ = now;
  slice_cpu0_ = cpu;
}

void Window::stop(RunResult& r) {
  // Calls still in flight at the end (the service's drain) land in a last,
  // short slice; fold it into the one before rather than report its rate.
  if (current_.ops > 0) {
    const int64_t now = now_ns();
    const int64_t open_ns = now - slice_start_ns_;
    if (!slices_.empty() && 2 * open_ns < length_ns_ / kSlices) {
      Slice& last = slices_.back();
      last.seconds += static_cast<double>(open_ns) * 1e-9;
      last.cpu_s += process_cpu_s() - slice_cpu0_;
      last.ops += current_.ops;
      last.calls += current_.calls;
      last.latency_us.insert(last.latency_us.end(),
                             current_.latency_us.begin(),
                             current_.latency_us.end());
    } else {
      close_slice(now);
    }
  }
  if (!slices_.empty()) slices_.back().summarise();
  r.slices = std::move(slices_);
  r.peak_rss_mb = peak_rss_mb();
}

dps::ClusterConfig cluster_config(FabricClass fabric, int nodes, bool traced,
                                  std::shared_ptr<TimingFabric>* timing) {
  dps::ClusterConfig cfg = fabric == FabricClass::kShm
                               ? dps::ClusterConfig::shm(nodes)
                               : dps::ClusterConfig::tcp(nodes);
  if (traced) {
    *timing = std::make_shared<TimingFabric>(make_fabric(fabric, cfg.nodes),
                                             cfg.nodes.size(),
                                             header_bytes(fabric));
    cfg.external_fabric = *timing;
  }
  return cfg;
}

LayerProbe::LayerProbe(dps::Cluster& cluster, const TimingFabric* timing)
    : cluster_(cluster), timing_(timing) {}

uint64_t LayerProbe::dispatched() const {
  uint64_t total = 0;
  for (size_t i = 0; i < cluster_.node_count(); ++i) {
    total += cluster_.controller(static_cast<dps::NodeId>(i)).dispatched();
  }
  return total;
}

void LayerProbe::start() {
  if (timing_ != nullptr) net0_ = timing_->counters();
  dispatched0_ = dispatched();
  pool0_ = dps::BufferPool::instance().stats();
  leaf0_ = timed_life_counters();
}

void LayerProbe::stop(int leaf_threads, RunResult& r) const {
  const dps::BufferPool::Stats pool = dps::BufferPool::instance().stats();
  const uint64_t growths = pool.encode_growths - pool0_.encode_growths;
  if (growths != 0) {
    r.fail("BufferPool counted " + std::to_string(growths) +
           " encode buffer growths in the measured window");
  }
  if (timing_ == nullptr) return;

  const double n = r.ops() > 0 ? static_cast<double>(r.ops()) : 1.0;
  const TimingFabric::Counters net = timing_->counters();
  const auto frames = static_cast<double>(net.frames_sent - net0_.frames_sent);
  const auto delivered =
      static_cast<double>(net.frames_delivered - net0_.frames_delivered);
  const auto deliveries =
      static_cast<double>(net.deliveries - net0_.deliveries);
  auto& m = r.layers;
  m["net.frames_per_op"] = frames / n;
  m["net.bytes_per_op"] =
      (static_cast<double>(net.payload_bytes - net0_.payload_bytes) +
       frames * static_cast<double>(timing_->header_bytes())) /
      n;
  m["net.send_ns_p50"] =
      LogHistogram::quantile(net0_.send_ns, net.send_ns, 0.5);
  m["net.frames_per_delivery"] = deliveries > 0 ? delivered / deliveries : 0;
  m["net.transit_us_p50"] =
      LogHistogram::quantile(net0_.transit_ns, net.transit_ns, 0.5) / 1e3;
  m["net.transit_us_p90"] =
      LogHistogram::quantile(net0_.transit_ns, net.transit_ns, 0.9) / 1e3;
  m["core.deliver_ns_per_frame"] =
      delivered > 0
          ? static_cast<double>(net.deliver_ns - net0_.deliver_ns) / delivered
          : 0;
  m["core.dispatched_per_op"] =
      static_cast<double>(dispatched() - dispatched0_) / n;

  const auto acquires = static_cast<double>(pool.acquires - pool0_.acquires);
  m["serial.pool_acquires_per_op"] = acquires / n;
  m["serial.pool_reuse_ratio"] =
      acquires > 0 ? static_cast<double>(pool.reuses - pool0_.reuses) / acquires
                   : 0;
  m["serial.encode_growths"] += static_cast<double>(growths);

  const LeafCounters leaf = timed_life_counters();
  const auto busy_ns = static_cast<double>(leaf.busy_ns - leaf0_.busy_ns);
  m["compute.leaf_us_per_op"] = busy_ns / 1e3 / n;
  m["compute.leaf_share"] =
      r.window_s() > 0 ? busy_ns / 1e9 / (leaf_threads * r.window_s()) : 0;
}

void time_serial(const std::vector<dps::Ptr<dps::Token>>& tokens,
                 RunResult& r) {
  constexpr int kBatches = 25;
  constexpr size_t kTokensPerBatch = 2048;
  dps::BufferPool& pool = dps::BufferPool::instance();
  std::vector<std::vector<std::byte>> wire(kTokensPerBatch);
  std::vector<double> enc_ns, dec_ns;
  uint64_t growths = 0;
  for (int b = 0; b < kBatches; ++b) {
    int64_t t0 = now_ns();
    for (size_t i = 0; i < kTokensPerBatch; ++i) {
      const dps::Token& tok = *tokens[i % tokens.size()];
      dps::Writer w(pool.acquire(dps::serialized_token_size(tok)));
      dps::serialize_token(tok, w);
      pool.note_growth(w.growth_count());
      growths += w.growth_count();
      wire[i] = w.take();
    }
    enc_ns.push_back(static_cast<double>(now_ns() - t0) / kTokensPerBatch);
    t0 = now_ns();
    for (size_t i = 0; i < kTokensPerBatch; ++i) {
      dps::Reader rd(wire[i]);
      dps::Ptr<dps::Token> back = dps::deserialize_token(rd);
      if (back.get() == nullptr ||
          back->typeInfo().id != tokens[i % tokens.size()]->typeInfo().id) {
        r.fail("serial round trip returned a different token type");
      }
    }
    dec_ns.push_back(static_cast<double>(now_ns() - t0) / kTokensPerBatch);
    for (auto& buf : wire) pool.release(std::move(buf));
  }
  r.layers["serial.encode_ns_per_token"] = median(enc_ns);
  r.layers["serial.decode_ns_per_token"] = median(dec_ns);
  r.layers["serial.encode_growths"] += static_cast<double>(growths);
  if (growths != 0) {
    r.fail("standalone encodes needed " + std::to_string(growths) +
           " buffer growths");
  }
}

std::string timing_fabric_self_test() {
  constexpr int kFrames = 500;
  constexpr size_t kBody = 1024;
  for (FabricClass fc : {FabricClass::kShm, FabricClass::kTcp}) {
    const char* name = fc == FabricClass::kShm ? "shm" : "tcp";
    TimingFabric timing(make_fabric(fc, {"st0", "st1", "st2"}), 3,
                        header_bytes(fc));
    std::atomic<uint64_t> frames{0}, bytes{0};
    auto count = [&frames, &bytes](const dps::NodeMessage& m) {
      frames.fetch_add(1, std::memory_order_relaxed);
      bytes.fetch_add(m.payload.size(), std::memory_order_relaxed);
    };
    for (dps::NodeId n = 0; n < 3; ++n) {
      timing.attach(n, [count](dps::NodeMessage&& m) { count(m); });
      timing.attach_batch(n, [count](std::vector<dps::NodeMessage>&& batch) {
        for (const dps::NodeMessage& m : batch) count(m);
      });
    }
    auto body = std::make_shared<const std::vector<std::byte>>(kBody);
    uint64_t sent_bytes = 0;
    {
      std::jthread plain([&timing] {
        for (int i = 0; i < kFrames; ++i) {
          timing.send(0, 1, dps::FrameKind::kEnvelope,
                      std::vector<std::byte>(static_cast<size_t>(i % 2000)));
        }
      });
      for (int i = 0; i < kFrames; ++i) {
        timing.send_shared(2, 1, dps::FrameKind::kEnvelope,
                           std::vector<std::byte>(16), body);
      }
    }
    for (int i = 0; i < kFrames; ++i) sent_bytes += (i % 2000) + 16 + kBody;
    std::string err = timing.self_check(5.0);
    if (frames.load() != 2 * kFrames || bytes.load() != sent_bytes) {
      err += (err.empty() ? "" : "; ") + std::string("handlers received ") +
             std::to_string(frames.load()) + " frames / " +
             std::to_string(bytes.load()) + " bytes of " +
             std::to_string(2 * kFrames) + " / " + std::to_string(sent_bytes);
    }
    timing.shutdown();
    if (!err.empty()) return std::string(name) + ": " + err;
  }
  return {};
}

void check_timing_fabric(const TimingFabric* timing, RunResult& r) {
  if (timing == nullptr) return;
  const std::string err = timing->self_check(5.0);
  if (!err.empty()) r.fail("timing fabric self-check: " + err);
}

}  // namespace perfbench
