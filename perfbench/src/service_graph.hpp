// The `service` workload's graph: many short independent calls over TCP,
// like the calls into a running parallel service of the paper's Table 2.
//
//   split@node0 --3 parts of 1 kB--> hash leaf@node1 (2 threads)
//               --> merge@node0 (XOR of the part hashes)
//
// The caller stamps each call's issue time; the merge stamps its
// completion. In a traced call the split, leaf and merge also stamp the
// hops between them, so the benchmark can split a call's latency into
// `net` transit and `core` queueing from its own code.
#pragma once

#include <cstdint>
#include <memory>

#include "core/application.hpp"
#include "core/controller.hpp"
#include "stats.hpp"

namespace perfbench {

inline constexpr int kServiceParts = 3;
inline constexpr int kServicePartBytes = 1024;

/// FNV-1a (64-bit) over the part index byte followed by `data`.
inline uint64_t fnv1a(int32_t part, const uint8_t* data, size_t n) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint8_t b) { h = (h ^ b) * 1099511628211ull; };
  mix(static_cast<uint8_t>(part));
  for (size_t i = 0; i < n; ++i) mix(data[i]);
  return h;
}

/// One call: kServiceParts parts of kServicePartBytes each, back to back.
class SvcRequestToken : public dps::ComplexToken {
 public:
  dps::CT<int32_t> traced;  ///< non-zero: stamp the hops
  dps::Buffer<uint8_t> data;
  DPS_IDENTIFY(SvcRequestToken);
};

class SvcPartToken : public dps::ComplexToken {
 public:
  dps::CT<int32_t> part;
  dps::CT<int64_t> post_ns;  ///< split's post stamp (0 when untraced)
  dps::Buffer<uint8_t> data;
  DPS_IDENTIFY(SvcPartToken);
};

class SvcPartResultToken : public dps::SimpleToken {
 public:
  int32_t part;
  uint64_t hash;
  int64_t hop_in_ns;  ///< split post -> leaf execute start
  int64_t exec_ns;    ///< leaf execute time
  int64_t post_ns;    ///< leaf's post stamp (0 when untraced)
  SvcPartResultToken(int32_t p = 0, uint64_t h = 0, int64_t in = 0,
                     int64_t ex = 0, int64_t post = 0)
      : part(p), hash(h), hop_in_ns(in), exec_ns(ex), post_ns(post) {}
  DPS_IDENTIFY(SvcPartResultToken);
};

class SvcReplyToken : public dps::SimpleToken {
 public:
  uint64_t checksum = 0;
  int32_t parts = 0;
  int64_t done_ns = 0;  ///< merge's completion stamp
  int64_t hop_in_ns[kServiceParts] = {};
  int64_t hop_out_ns[kServiceParts] = {};  ///< leaf post -> merge receipt
  int64_t exec_ns[kServiceParts] = {};
  DPS_IDENTIFY(SvcReplyToken);
};

class SvcFrontThread : public dps::Thread {
  DPS_IDENTIFY_THREAD(SvcFrontThread);
};
class SvcLeafThread : public dps::Thread {
  DPS_IDENTIFY_THREAD(SvcLeafThread);
};
class SvcSinkThread : public dps::Thread {
  DPS_IDENTIFY_THREAD(SvcSinkThread);
};

DPS_ROUTE(SvcFrontRoute, SvcFrontThread, SvcRequestToken, 0);
DPS_ROUTE(SvcLeafRoute, SvcLeafThread, SvcPartToken,
          currentToken->part.get() % threadCount());
DPS_ROUTE(SvcSinkRoute, SvcSinkThread, SvcPartResultToken, 0);

class SvcSplit : public dps::SplitOperation<SvcFrontThread,
                                            TV1(SvcRequestToken),
                                            TV1(SvcPartToken)> {
 public:
  void execute(SvcRequestToken* in) override {
    DPS_CHECK(in->data.size() == size_t{kServiceParts} * kServicePartBytes,
              "service request has the wrong size");
    for (int32_t p = 0; p < kServiceParts; ++p) {
      auto* part = new SvcPartToken();
      part->part = p;
      const uint8_t* src = in->data.data() + size_t{kServicePartBytes} * p;
      part->data.assign(src, src + kServicePartBytes);
      part->post_ns = in->traced.get() != 0 ? now_ns() : 0;
      postToken(part);
    }
  }
  DPS_IDENTIFY_OPERATION(SvcSplit);
};

class SvcHash : public dps::LeafOperation<SvcLeafThread, TV1(SvcPartToken),
                                          TV1(SvcPartResultToken)> {
 public:
  void execute(SvcPartToken* in) override {
    const bool traced = in->post_ns.get() != 0;
    const int64_t start = traced ? now_ns() : 0;
    const uint64_t h = fnv1a(in->part.get(), in->data.data(), in->data.size());
    int64_t hop_in = 0, exec = 0, post = 0;
    if (traced) {
      post = now_ns();
      hop_in = start - in->post_ns.get();
      exec = post - start;
    }
    postToken(new SvcPartResultToken(in->part.get(), h, hop_in, exec, post));
  }
  DPS_IDENTIFY_OPERATION(SvcHash);
};

class SvcMerge : public dps::MergeOperation<SvcSinkThread,
                                            TV1(SvcPartResultToken),
                                            TV1(SvcReplyToken)> {
 public:
  void execute(SvcPartResultToken* first) override {
    auto* reply = new SvcReplyToken();
    dps::Ptr<dps::Token> cur(first);
    do {
      const int64_t receipt = now_ns();
      auto* r = dynamic_cast<SvcPartResultToken*>(cur.get());
      DPS_CHECK(r != nullptr && r->part >= 0 && r->part < kServiceParts,
                "service merge received a foreign token");
      reply->checksum ^= r->hash;
      reply->hop_in_ns[r->part] = r->hop_in_ns;
      reply->exec_ns[r->part] = r->exec_ns;
      reply->hop_out_ns[r->part] = r->post_ns != 0 ? receipt - r->post_ns : 0;
      ++reply->parts;
    } while ((cur = waitForNextToken()));
    reply->done_ns = now_ns();
    postToken(reply);
  }
  DPS_IDENTIFY_OPERATION(SvcMerge);
};

/// Builds the service graph on a two-node cluster: split and merge on
/// node 0 (separate threads, so a merge waiting for its parts never holds
/// up the next call's split), two leaf threads on node 1.
inline std::shared_ptr<dps::Flowgraph> build_service_graph(
    dps::Application& app) {
  dps::Cluster& cluster = app.cluster();
  DPS_CHECK(cluster.node_count() >= 2, "the service graph needs two nodes");
  auto front = app.thread_collection<SvcFrontThread>("svc_front");
  front->map(cluster.node_name(0));
  auto sink = app.thread_collection<SvcSinkThread>("svc_sink");
  sink->map(cluster.node_name(0));
  auto leaves = app.thread_collection<SvcLeafThread>("svc_leaf");
  leaves->map(cluster.node_name(1) + " " + cluster.node_name(1));
  dps::FlowgraphBuilder builder =
      dps::FlowgraphNode<SvcSplit, SvcFrontRoute>(front) >>
      dps::FlowgraphNode<SvcHash, SvcLeafRoute>(leaves) >>
      dps::FlowgraphNode<SvcMerge, SvcSinkRoute>(sink);
  return app.build_graph(builder, "service");
}

}  // namespace perfbench
