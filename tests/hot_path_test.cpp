// The per-token path's shared state: frame buffers recycled through the
// BufferPool (encode buffers and receive payloads alike), and the
// read-mostly registries every envelope consults — applications,
// collections, graphs, workers and token types — read without a lock while
// registrations go on.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/ring.hpp"
#include "core/cluster.hpp"
#include "net/shm_fabric.hpp"
#include "serial/buffer_pool.hpp"
#include "serial/registry.hpp"
#include "tests/toupper_app.hpp"

namespace dps {
namespace {

using dps_tutorial::build_toupper_graph;
using dps_tutorial::StringToken;

/// reuses / acquires over one ring call, after a warm-up call has filled
/// the pool's per-thread caches and shared list. The ring runs with
/// Fig. 6's flow window of 64, so the warm-up reaches the steady-state
/// number of buffers in flight; an unbounded window lets each call's peak
/// depend on how far the split outruns the TCP senders.
double ring_reuse_ratio(ClusterConfig cfg) {
  constexpr int kBlocks = 512;
  constexpr int kBlockBytes = 1024;
  cfg.flow_window = 64;
  Cluster cluster(cfg);
  Application app(cluster, "ring");
  auto graph = apps::build_ring_graph(app, 3);
  ActorScope scope(cluster.domain(), "main");
  auto call = [&] {
    auto done = token_cast<apps::RingDoneToken>(
        graph->call(new apps::RingStartToken(kBlocks, kBlockBytes)));
    ASSERT_TRUE(done);
    EXPECT_EQ(done->blocks, kBlocks);
  };
  call();  // warm-up
  BufferPool& pool = BufferPool::instance();
  pool.reset_stats();
  call();
  const BufferPool::Stats s = pool.stats();
  // Every block is encoded and received on each of its 3 links.
  EXPECT_GE(s.acquires, 2u * 3 * kBlocks);
  EXPECT_EQ(s.encode_growths, 0u);
  return static_cast<double>(s.reuses) / static_cast<double>(s.acquires);
}

TEST(BufferPoolTest, RingCallsRecycleFrameBuffersOverShm) {
  if (!shm_available()) GTEST_SKIP() << "POSIX shm unavailable or DPS_SHM=0";
  EXPECT_GE(ring_reuse_ratio(ClusterConfig::shm(3)), 0.9);
}

TEST(BufferPoolTest, RingCallsRecycleFrameBuffersOverTcp) {
  EXPECT_GE(ring_reuse_ratio(ClusterConfig::tcp(3)), 0.9);
}

template <class F>
void expect_not_found(F&& lookup, const char* what) {
  try {
    lookup();
    ADD_FAILURE() << what << ": lookup of an unknown id did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kNotFound) << what << ": " << e.what();
  }
}

/// Looks worker (coll, index) up through restore_worker, the public face
/// of Controller::worker: a known, non-checkpointable worker raises
/// kState, an unknown one kNotFound.
bool has_worker(Controller& c, CollectionId coll, ThreadIndex index) {
  Writer w;
  Reader r(w.bytes());
  try {
    c.restore_worker(coll, index, r);
  } catch (const Error& e) {
    EXPECT_TRUE(e.code() == Errc::kState || e.code() == Errc::kNotFound)
        << e.what();
    return e.code() == Errc::kState;
  }
  ADD_FAILURE() << "restore_worker on a non-checkpointable thread succeeded";
  return true;
}

TEST(HotPathRegistry, LookupsRaceRegistrations) {
  Cluster cluster(ClusterConfig::inproc(2));
  Application base(cluster, "base");
  auto base_graph = build_toupper_graph(base, 2);
  const CollectionId base_main =
      base_graph->vertex(base_graph->entry()).collection->id();
  const uint64_t string_id = StringToken().typeInfo().id;

  // What the registering thread has published so far (release order: a
  // reader that sees an id sees its registration complete).
  struct Published {
    AppId app;
    CollectionId main_collection;
    GraphId graph;
    uint64_t token;
  };
  std::atomic<const Published*> latest{nullptr};
  std::atomic<bool> stop{false};
  std::atomic<int> lookups{0};

  std::vector<std::unique_ptr<Application>> apps;
  std::deque<Published> published;
  std::deque<TokenTypeInfo> token_types;  // stable addresses, never removed
  constexpr int kRegistrations = 12;

  std::thread registrar([&] {
    ActorScope scope(cluster.domain(), "registrar");
    for (int i = 0; i < kRegistrations; ++i) {
      const std::string name = "hotpath" + std::to_string(i);
      apps.push_back(std::make_unique<Application>(cluster, name));
      Application& a = *apps.back();
      auto graph = build_toupper_graph(a, 2);  // 2 collections, 3 workers
      TokenTypeInfo& info = token_types.emplace_back();
      info.name = "HotPathRegistryToken" + std::to_string(i);
      info.id = fnv1a(info.name.c_str());
      TokenRegistry::instance().add(&info);
      published.push_back(
          Published{a.id(), graph->vertex(graph->entry()).collection->id(),
                    graph->id(), info.id});
      latest.store(&published.back(), std::memory_order_release);
      // The new graph runs while readers look it up.
      auto out = token_cast<StringToken>(graph->call(new StringToken("ab")));
      EXPECT_TRUE(out);
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      int n = 0;
      while (!stop.load(std::memory_order_acquire)) {
        EXPECT_EQ(cluster.app(base.id()), &base);
        EXPECT_NE(cluster.collection(base_main), nullptr);
        EXPECT_EQ(base.graph(base_graph->id()), base_graph);
        EXPECT_EQ(TokenRegistry::instance().find(string_id).id, string_id);
        if (const Published* p = latest.load(std::memory_order_acquire)) {
          Application* a = cluster.app(p->app);
          EXPECT_EQ(a->graph(p->graph)->id(), p->graph);
          EXPECT_NE(cluster.collection(p->main_collection), nullptr);
          EXPECT_EQ(TokenRegistry::instance().find(p->token).id, p->token);
          if (++n % 64 == 0) {
            EXPECT_TRUE(has_worker(cluster.controller(0), p->main_collection,
                                   0));
          }
        }
        lookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  {
    // Traffic on the base graph: every delivery looks its worker up.
    ActorScope scope(cluster.domain(), "main");
    for (int i = 0; i < 20; ++i) {
      auto out =
          token_cast<StringToken>(base_graph->call(new StringToken("hot")));
      ASSERT_TRUE(out);
      EXPECT_EQ(std::string(out->str, static_cast<size_t>(out->len)), "HOT");
    }
  }
  registrar.join();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_GT(lookups.load(), 0);

  // Everything registered is still found; unknown ids still raise.
  for (const Published& p : published) {
    EXPECT_NE(cluster.app(p.app), nullptr);
    EXPECT_EQ(TokenRegistry::instance().find(p.token).id, p.token);
    EXPECT_TRUE(has_worker(cluster.controller(0), p.main_collection, 0));
  }
  expect_not_found([&] { (void)cluster.app(AppId{0}); }, "app 0");
  expect_not_found([&] { (void)cluster.app(AppId{100000}); }, "app");
  expect_not_found([&] { (void)cluster.collection(CollectionId{100000}); },
                   "collection");
  expect_not_found([&] { (void)base.graph(GraphId{100000}); }, "graph");
  expect_not_found(
      [&] { (void)TokenRegistry::instance().find(fnv1a("NeverRegistered")); },
      "token type");
  // The main collection lives on node 0 only: node 1 has no such worker,
  // and neither node has an out-of-range index or an unknown collection.
  const CollectionId last_main = published.back().main_collection;
  EXPECT_TRUE(has_worker(cluster.controller(0), last_main, 0));
  EXPECT_FALSE(has_worker(cluster.controller(1), last_main, 0));
  EXPECT_FALSE(has_worker(cluster.controller(0), last_main, 7));
  EXPECT_FALSE(has_worker(cluster.controller(0), CollectionId{100000}, 0));

  // An application that has gone is not found either.
  const AppId gone = apps.back()->id();
  apps.pop_back();
  expect_not_found([&] { (void)cluster.app(gone); }, "unregistered app");
}

}  // namespace
}  // namespace dps
