#include <deque>

#include "service_graph.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kNodes = 2;
constexpr size_t kInFlight = 4;
constexpr int kRequestPool = 64;
constexpr int kWarmupCalls = 256;

struct Request {
  std::vector<uint8_t> data;
  uint64_t checksum = 0;  ///< XOR of the part hashes, computed here
};

std::vector<Request> make_requests(uint64_t seed) {
  std::vector<Request> pool(kRequestPool);
  uint64_t state = seed;
  for (Request& req : pool) {
    req.data.resize(size_t{kServiceParts} * kServicePartBytes);
    for (uint8_t& b : req.data) b = static_cast<uint8_t>(splitmix64(state));
    for (int32_t p = 0; p < kServiceParts; ++p) {
      req.checksum ^= fnv1a(p, req.data.data() + size_t{kServicePartBytes} * p,
                            kServicePartBytes);
    }
  }
  return pool;
}

SvcRequestToken* request_token(const Request& req, bool traced) {
  auto* t = new SvcRequestToken();
  t->traced = traced ? 1 : 0;
  t->data.assign(req.data.data(), req.data.data() + req.data.size());
  return t;
}

/// Empty when `result` is the reply `req` expects, else why not.
std::string check_reply(const dps::Ptr<dps::Token>& result,
                        const Request& req) {
  auto reply = dps::token_cast<SvcReplyToken>(result);
  if (reply.get() == nullptr) return "service call returned no SvcReplyToken";
  if (reply->parts != kServiceParts) {
    return "service merge saw " + std::to_string(reply->parts) + " parts";
  }
  if (reply->checksum != req.checksum) return "service checksum mismatch";
  return {};
}

struct ServiceSession {
  ServiceSession(bool traced, const std::vector<Request>& requests)
      : cluster(cluster_config(FabricClass::kTcp, kNodes, traced, &timing)),
        scope(cluster.domain(), "perfbench"),
        app(cluster, "service"),
        graph(build_service_graph(app)) {
    for (int i = 0; i < kWarmupCalls; ++i) {
      const Request& req = requests[i % requests.size()];
      const std::string err =
          check_reply(graph->call(request_token(req, traced)), req);
      DPS_CHECK(err.empty(), err.c_str());
    }
  }

  std::shared_ptr<TimingFabric> timing;
  dps::Cluster cluster;
  dps::ActorScope scope;
  dps::Application app;
  std::shared_ptr<dps::Flowgraph> graph;
};

struct InFlight {
  dps::CallHandle handle;
  size_t request;
  int64_t issued_ns;
};

}  // namespace

RunResult run_service(const RunConfig& config) {
  RunResult r;
  const std::vector<Request> requests = make_requests(config.seed);
  const auto make = [&] {
    return std::make_unique<ServiceSession>(config.traced, requests);
  };
  auto session = set_up(r, make);

  std::vector<double> hop_us, exec_us;
  std::deque<InFlight> inflight;
  size_t next = 0;
  LayerProbe probe(session->cluster, session->timing.get());
  Window window(config.seconds);
  probe.start();
  window.start();
  // Closed loop: the generator keeps kInFlight calls outstanding and waits
  // for the oldest before issuing the next; latency runs from issue to the
  // merge's completion stamp, so waiting on a later call adds nothing.
  while (true) {
    while (inflight.size() < kInFlight && window.open()) {
      const size_t req = next++ % requests.size();
      ++r.attempted;
      try {
        dps::Ptr<dps::Token> tok(request_token(requests[req], config.traced));
        const int64_t issued = now_ns();
        inflight.push_back({session->graph->call_async(std::move(tok)), req,
                            issued});
      } catch (const std::exception& e) {
        ++r.failed;
        r.fail(std::string("service call refused: ") + e.what());
      }
    }
    if (inflight.empty()) break;
    InFlight call = std::move(inflight.front());
    inflight.pop_front();
    std::string err;
    try {
      dps::Ptr<dps::Token> result = call.handle.wait();
      err = check_reply(result, requests[call.request]);
      if (err.empty()) {
        auto reply = dps::token_cast<SvcReplyToken>(result);
        window.record(
            1, static_cast<double>(reply->done_ns - call.issued_ns) / 1e3);
        if (config.traced) {
          for (int p = 0; p < kServiceParts; ++p) {
            hop_us.push_back(static_cast<double>(reply->hop_in_ns[p]) / 1e3);
            hop_us.push_back(static_cast<double>(reply->hop_out_ns[p]) / 1e3);
            exec_us.push_back(static_cast<double>(reply->exec_ns[p]) / 1e3);
          }
        }
      }
    } catch (const std::exception& e) {
      err = std::string("service call failed: ") + e.what();
    }
    if (!err.empty()) {
      ++r.failed;
      r.fail(err);
    }
  }
  window.stop(r);
  probe.stop(1, r);
  check_timing_fabric(session->timing.get(), r);
  session.reset();
  repeat_set_up(r, make);

  if (config.traced) {
    r.layers["core.hop_us_p50"] = percentile(hop_us, 0.5);
    r.layers["core.hop_us_p90"] = percentile(hop_us, 0.9);
    r.layers["core.op_exec_us_p50"] = percentile(exec_us, 0.5);
    auto* part = new SvcPartToken();
    part->part = 1;
    part->post_ns = 1;
    part->data.assign(requests[0].data.data(),
                      requests[0].data.data() + kServicePartBytes);
    time_serial({dps::Ptr<dps::Token>(part),
                 dps::Ptr<dps::Token>(new SvcPartResultToken(1, 2, 3, 4, 5))},
                r);
  }
  return r;
}

}  // namespace perfbench
