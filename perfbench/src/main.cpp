// perfbench: wall-clock benchmark of the DPS engine.
//
//   perfbench --workload life|ring|service --seed N --seconds S --trace 0|1
//
// --trace 0 runs the workload untraced and prints the end-to-end metrics.
// --trace 1 runs it twice, untraced and then traced (timing fabric, timed
// Life backend, hop stamps), and prints the per-layer metrics, including
// the traced/untraced throughput ratio as the tracing overhead. The last
// line of stdout is one JSON object: correct, attempted, failed, metrics.
// The exit code is 0 only when every output was correct.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},        {"ops_per_s", "1/s"},
    {"p50_us", "us"},        {"p90_us", "us"},
    {"cpu_us_per_op", "us"}, {"peak_rss_mb", "MB"},
};

/// Every per-layer metric, in print order. A workload whose path does not
/// include a layer reports 0 for it (e.g. compute.* on ring and service).
constexpr Metric kPerLayer[] = {
    {"net.frames_per_op", "count"},
    {"net.bytes_per_op", "B"},
    {"net.send_ns_p50", "ns"},
    {"net.frames_per_delivery", "count"},
    {"net.transit_us_p50", "us"},
    {"net.transit_us_p90", "us"},
    {"core.deliver_ns_per_frame", "ns"},
    {"core.dispatched_per_op", "count"},
    {"core.hop_us_p50", "us"},
    {"core.hop_us_p90", "us"},
    {"core.op_exec_us_p50", "us"},
    {"compute.leaf_us_per_op", "us"},
    {"compute.leaf_share", "ratio"},
    {"compute.seq_mcells_per_s", "Mcells/s"},
    {"serial.encode_ns_per_token", "ns"},
    {"serial.decode_ns_per_token", "ns"},
    {"serial.pool_reuse_ratio", "ratio"},
    {"serial.pool_acquires_per_op", "count"},
    {"serial.encode_growths", "count"},
    {"harness.calib_ms", "ms"},
    {"harness.trace_overhead", "ratio"},
};

/// A fixed single-threaded integer loop: a witness of host speed, timed
/// before each run so a slow neighbour shows apart from a slow program.
double calibrate_ms() {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t t0 = now_ns();
    uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(rep);
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    if (x == 0) std::printf("calibration loop hit zero\n");  // keeps x live
  }
  return median(ms);
}

std::map<std::string, double> end_to_end(const RunResult& r) {
  return {
      {"setup_s", median(r.setup_s)},
      {"ops_per_s", r.ops_per_s()},
      {"p50_us", r.latency_us(0.5)},
      {"p90_us", r.latency_us(0.9)},
      {"cpu_us_per_op", r.cpu_us_per_op()},
      {"peak_rss_mb", r.peak_rss_mb},
  };
}

void print_summary(const char* label, const RunResult& r) {
  uint64_t calls = 0;
  for (const Slice& s : r.slices) calls += s.calls;
  std::printf("%s: %llu ops (%llu failed, %llu calls) in %.3f s; better "
              "quartile of %zu slices: %.1f ops/s, call latency p50 %.1f us "
              "p90 %.1f us p99 %.1f us, %.2f cpu us/op; setups",
              label, static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(calls), r.window_s(),
              r.slices.size(), r.ops_per_s(), r.latency_us(0.5),
              r.latency_us(0.9), r.latency_us(0.99), r.cpu_us_per_op());
  for (double s : r.setup_s) std::printf(" %.4f", s);
  std::printf(" s\n  slice ops/s:");
  for (const Slice& s : r.slices) {
    std::printf(" %.0f", static_cast<double>(s.ops) / s.seconds);
  }
  std::printf("\n");
  if (!r.error.empty()) {
    std::printf("%s: WRONG OUTPUT: %s\n", label, r.error.c_str());
  }
}

template <size_t N>
std::string metrics_json(const Metric (&spec)[N],
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  for (size_t i = 0; i < N; ++i) {
    auto it = values.find(spec[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", spec[i].name, v, spec[i].unit);
    out += buf;
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload life|ring|service --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--seed") config.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") config.seconds = std::atof(value);
    else if (key == "--trace") trace = std::atoi(value) != 0;
    else return usage();
  }
  if (argc % 2 == 0 || config.seconds <= 0) return usage();
  RunResult (*run_workload)(const RunConfig&) = nullptr;
  if (workload == "life") run_workload = &run_life;
  else if (workload == "ring") run_workload = &run_ring;
  else if (workload == "service") run_workload = &run_service;
  else return usage();

  const double calib_ms = calibrate_ms();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d "
              "harness.calib_ms=%.3f\n",
              workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, trace ? 1 : 0, calib_ms);

  RunResult base = run_workload(config);
  print_summary("untraced", base);
  bool correct = base.error.empty();
  uint64_t attempted = base.attempted;
  uint64_t failed = base.failed;
  std::string metrics;
  if (!trace) {
    metrics = metrics_json(kEndToEnd, end_to_end(base));
  } else {
    config.traced = true;
    RunResult traced = run_workload(config);
    const std::string self_test = timing_fabric_self_test();
    if (!self_test.empty()) {
      traced.fail("timing fabric self-test: " + self_test);
    }
    print_summary("traced", traced);
    correct = correct && traced.error.empty();
    attempted += traced.attempted;
    failed += traced.failed;
    traced.layers["harness.calib_ms"] = calib_ms;
    traced.layers["harness.trace_overhead"] =
        base.ops_per_s() > 0 ? traced.ops_per_s() / base.ops_per_s() : 0;
    metrics = metrics_json(kPerLayer, traced.layers);
  }
  std::fflush(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
