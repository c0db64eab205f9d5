// Engine feature tests: stream operations, nested split–merge constructs,
// multi-path type-directed routing, flow control, graph validation, and
// load-balancing routes.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "core/application.hpp"
#include "core/controller.hpp"
#include "obs/trace.hpp"
#include "obs/trace_query.hpp"
#include "util/mapping.hpp"

namespace dps {
namespace {

// --- Shared fixture types ----------------------------------------------------

class NumToken : public SimpleToken {
 public:
  int64_t value;
  int index;
  NumToken(int64_t v = 0, int i = 0) : value(v), index(i) {}
  DPS_IDENTIFY(NumToken);
};

class OddToken : public SimpleToken {
 public:
  int64_t value;
  int index;
  OddToken(int64_t v = 0, int i = 0) : value(v), index(i) {}
  DPS_IDENTIFY(OddToken);
};

class SumToken : public SimpleToken {
 public:
  int64_t sum;
  int count;
  SumToken(int64_t s = 0, int c = 0) : sum(s), count(c) {}
  DPS_IDENTIFY(SumToken);
};

class RangeToken : public SimpleToken {
 public:
  int begin;
  int end;
  RangeToken(int b = 0, int e = 0) : begin(b), end(e) {}
  DPS_IDENTIFY(RangeToken);
};

class FMainThread : public Thread {
  DPS_IDENTIFY_THREAD(FMainThread);
};

class FWorkThread : public Thread {
 public:
  int processed = 0;
  DPS_IDENTIFY_THREAD(FWorkThread);
};

DPS_ROUTE(FMainRangeRoute, FMainThread, RangeToken, 0);
DPS_ROUTE(FMainNumRoute, FMainThread, NumToken, 0);
DPS_ROUTE(FMainSumRoute, FMainThread, SumToken, 0);
DPS_ROUTE(FWorkNumRoute, FWorkThread, NumToken,
          currentToken->index % threadCount());
DPS_ROUTE(FWorkOddRoute, FWorkThread, OddToken,
          currentToken->index % threadCount());
DPS_ROUTE(FWorkRangeRoute, FWorkThread, RangeToken,
          currentToken->begin % threadCount());

// Splits a range into one NumToken per integer.
class RangeSplit
    : public SplitOperation<FMainThread, TV1(RangeToken), TV1(NumToken)> {
 public:
  void execute(RangeToken* in) override {
    for (int i = in->begin; i < in->end; ++i) {
      postToken(new NumToken(i, i));
    }
  }
  DPS_IDENTIFY_OPERATION(RangeSplit);
};

class SquareLeaf
    : public LeafOperation<FWorkThread, TV1(NumToken), TV1(NumToken)> {
 public:
  void execute(NumToken* in) override {
    thread()->processed++;
    postToken(new NumToken(in->value * in->value, in->index));
  }
  DPS_IDENTIFY_OPERATION(SquareLeaf);
};

class SumMerge
    : public MergeOperation<FMainThread, TV1(NumToken), TV1(SumToken)> {
 public:
  void execute(NumToken* first) override {
    int64_t sum = first->value;
    int count = 1;
    while (auto t = waitForNextToken()) {
      sum += token_cast<NumToken>(t)->value;
      ++count;
    }
    postToken(new SumToken(sum, count));
  }
  DPS_IDENTIFY_OPERATION(SumMerge);
};

int64_t sum_of_squares(int begin, int end) {
  int64_t s = 0;
  for (int i = begin; i < end; ++i) s += int64_t(i) * i;
  return s;
}

// --- Stream operation --------------------------------------------------------

// Stream: collects squared numbers and re-emits batches eagerly — each
// incoming token is forwarded doubled, without waiting for the whole set
// (the pipelining property of section 3).
class DoubleStream
    : public StreamOperation<FMainThread, TV1(NumToken), TV1(NumToken)> {
 public:
  void execute(NumToken* first) override {
    postToken(new NumToken(first->value * 2, first->index));
    while (auto t = waitForNextToken()) {
      auto n = token_cast<NumToken>(t);
      postToken(new NumToken(n->value * 2, n->index));
    }
  }
  DPS_IDENTIFY_OPERATION(DoubleStream);
};

TEST(StreamOp, CollectsAndReemitsPipelined) {
  Cluster cluster(ClusterConfig::inproc(3));
  Application app(cluster, "stream");
  auto mains = app.thread_collection<FMainThread>("main");
  mains->map("node0");
  auto workers = app.thread_collection<FWorkThread>("work");
  workers->map("node0 node1 node2");
  // split -> square -> stream(double) -> square -> merge
  FlowgraphBuilder b =
      FlowgraphNode<RangeSplit, FMainRangeRoute>(mains) >>
      FlowgraphNode<SquareLeaf, FWorkNumRoute>(workers) >>
      FlowgraphNode<DoubleStream, FMainNumRoute>(mains) >>
      FlowgraphNode<SquareLeaf, FWorkNumRoute>(workers) >>
      FlowgraphNode<SumMerge, FMainNumRoute>(mains);
  auto graph = app.build_graph(b, "stream-pipe");
  ActorScope scope(cluster.domain(), "main");
  auto result = token_cast<SumToken>(graph->call(new RangeToken(0, 50)));
  ASSERT_TRUE(result);
  int64_t expect = 0;
  for (int i = 0; i < 50; ++i) {
    const int64_t sq = int64_t(i) * i;
    expect += (2 * sq) * (2 * sq);
  }
  EXPECT_EQ(result->sum, expect);
  EXPECT_EQ(result->count, 50);
}

// --- flushTokens: eager release of the held-back last post -------------------

// The engine holds each split/stream post back by one so the final token
// can carry the context total. flushTokens() ships the held post
// immediately; these tests pin down both the eager delivery and the
// protocol contract around the final post.

std::atomic<bool> g_flush_probe_seen{false};

// Forwards its input unchanged; records when the probe token (index 0)
// arrives so the split can observe delivery mid-execute.
class MarkArrivalLeaf
    : public LeafOperation<FWorkThread, TV1(NumToken), TV1(NumToken)> {
 public:
  void execute(NumToken* in) override {
    if (in->index == 0) g_flush_probe_seen.store(true);
    postToken(new NumToken(in->value, in->index));
  }
  DPS_IDENTIFY_OPERATION(MarkArrivalLeaf);
};

// Posts a probe token, flushes it, then waits until the downstream leaf
// confirms arrival — deterministic proof that the flush shipped the token
// while this execute is still running (held back, it could only leave with
// the next post). Encodes the observation in the second token's value so a
// broken flush fails the sum check instead of deadlocking.
class FlushProbeSplit
    : public SplitOperation<FMainThread, TV1(RangeToken), TV1(NumToken)> {
 public:
  void execute(RangeToken*) override {
    postToken(new NumToken(10, 0));
    flushTokens();
    bool seen = false;
    for (int spin = 0; spin < 5000; ++spin) {
      if (g_flush_probe_seen.load()) {
        seen = true;
        break;
      }
      sleepFor(0.001);
    }
    postToken(new NumToken(seen ? 100 : -1, 1));
  }
  DPS_IDENTIFY_OPERATION(FlushProbeSplit);
};

TEST(StreamOp, FlushTokensShipsHeldPostEagerly) {
  g_flush_probe_seen.store(false);
  Cluster cluster(ClusterConfig::inproc(2));
  Application app(cluster, "flush-probe");
  auto mains = app.thread_collection<FMainThread>("fp-m");
  mains->map("node0");
  auto workers = app.thread_collection<FWorkThread>("fp-w");
  workers->map("node1");
  FlowgraphBuilder b = FlowgraphNode<FlushProbeSplit, FMainRangeRoute>(mains) >>
                       FlowgraphNode<MarkArrivalLeaf, FWorkNumRoute>(workers) >>
                       FlowgraphNode<SumMerge, FMainNumRoute>(mains);
  auto graph = app.build_graph(b, "flush-probe");
  ActorScope scope(cluster.domain(), "main");
  auto result = token_cast<SumToken>(graph->call(new RangeToken(0, 0)));
  ASSERT_TRUE(result);
  EXPECT_EQ(result->count, 2);
  EXPECT_EQ(result->sum, 110) << "probe token was not delivered during the "
                                 "split's execute: flushTokens left it held";
}

// The canonical streaming idiom — flush the previous post before working
// on the next token; the final post stays held so the engine can stamp the
// context total into it.
class EagerDoubleStream
    : public StreamOperation<FMainThread, TV1(NumToken), TV1(NumToken)> {
 public:
  void execute(NumToken* first) override {
    postToken(new NumToken(first->value * 2, first->index));
    while (auto t = waitForNextToken()) {
      flushTokens();
      auto n = token_cast<NumToken>(t);
      postToken(new NumToken(n->value * 2, n->index));
    }
  }
  DPS_IDENTIFY_OPERATION(EagerDoubleStream);
};

TEST(StreamOp, StreamFlushBetweenPostsKeepsPipelineCorrect) {
  Cluster cluster(ClusterConfig::inproc(3));
  Application app(cluster, "eager-stream");
  auto mains = app.thread_collection<FMainThread>("es-m");
  mains->map("node0");
  auto workers = app.thread_collection<FWorkThread>("es-w");
  workers->map("node0 node1 node2");
  FlowgraphBuilder b =
      FlowgraphNode<RangeSplit, FMainRangeRoute>(mains) >>
      FlowgraphNode<SquareLeaf, FWorkNumRoute>(workers) >>
      FlowgraphNode<EagerDoubleStream, FMainNumRoute>(mains) >>
      FlowgraphNode<SquareLeaf, FWorkNumRoute>(workers) >>
      FlowgraphNode<SumMerge, FMainNumRoute>(mains);
  auto graph = app.build_graph(b, "eager-stream");
  ActorScope scope(cluster.domain(), "main");
  auto result = token_cast<SumToken>(graph->call(new RangeToken(0, 50)));
  ASSERT_TRUE(result);
  int64_t expect = 0;
  for (int i = 0; i < 50; ++i) {
    const int64_t sq = int64_t(i) * i;
    expect += (2 * sq) * (2 * sq);
  }
  EXPECT_EQ(result->sum, expect);
  EXPECT_EQ(result->count, 50);
}

// Flushing the FINAL post violates the contract: the engine has no token
// left to stamp the context total into, and must diagnose that instead of
// letting the merge hang forever.
class FlushFinalSplit
    : public SplitOperation<FMainThread, TV1(RangeToken), TV1(NumToken)> {
 public:
  void execute(RangeToken*) override {
    postToken(new NumToken(1, 0));
    flushTokens();  // contract violation: nothing is posted afterwards
  }
  DPS_IDENTIFY_OPERATION(FlushFinalSplit);
};

TEST(StreamOp, FlushAfterFinalPostDiagnosed) {
  Cluster cluster(ClusterConfig::simulated(2));
  Application app(cluster, "flush-final");
  auto mains = app.thread_collection<FMainThread>("ff-m");
  mains->map("node0");
  auto workers = app.thread_collection<FWorkThread>("ff-w");
  workers->map("node1");
  FlowgraphBuilder b = FlowgraphNode<FlushFinalSplit, FMainRangeRoute>(mains) >>
                       FlowgraphNode<SquareLeaf, FWorkNumRoute>(workers) >>
                       FlowgraphNode<SumMerge, FMainNumRoute>(mains);
  auto graph = app.build_graph(b, "flush-final");
  ActorScope scope(cluster.domain(), "main");
  auto handle = graph->call_async(new RangeToken(0, 0));
  EXPECT_THROW((void)handle.wait(), Error)
      << "flushing the final post must surface as a detectable failure";
}

// --- Nested split–merge ------------------------------------------------------

// Outer split: one RangeToken per chunk; inner construct squares and sums
// each chunk; outer merge adds the partial sums.
class ChunkSplit
    : public SplitOperation<FMainThread, TV1(RangeToken), TV1(RangeToken)> {
 public:
  void execute(RangeToken* in) override {
    const int chunk = 10;
    for (int b = in->begin; b < in->end; b += chunk) {
      postToken(new RangeToken(b, std::min(b + chunk, in->end)));
    }
  }
  DPS_IDENTIFY_OPERATION(ChunkSplit);
};

class InnerSplit
    : public SplitOperation<FWorkThread, TV1(RangeToken), TV1(NumToken)> {
 public:
  void execute(RangeToken* in) override {
    // index = chunk id for every token: the whole inner context stays on
    // one worker thread (all tokens of a context must converge on one
    // merge instance).
    for (int i = in->begin; i < in->end; ++i) {
      postToken(new NumToken(i, in->begin));
    }
  }
  DPS_IDENTIFY_OPERATION(InnerSplit);
};

class InnerSum
    : public MergeOperation<FWorkThread, TV1(NumToken), TV1(NumToken)> {
 public:
  void execute(NumToken* first) override {
    int64_t sum = first->value;
    while (auto t = waitForNextToken()) sum += token_cast<NumToken>(t)->value;
    postToken(new NumToken(sum, threadIndex()));
  }
  DPS_IDENTIFY_OPERATION(InnerSum);
};

TEST(Nesting, SplitMergeInsideSplitMerge) {
  Cluster cluster(ClusterConfig::inproc(4));
  Application app(cluster, "nested");
  auto mains = app.thread_collection<FMainThread>("main");
  mains->map("node0");
  auto workers = app.thread_collection<FWorkThread>("work");
  workers->map(round_robin_mapping({"node0", "node1", "node2", "node3"}, 4));
  FlowgraphBuilder b =
      FlowgraphNode<ChunkSplit, FMainRangeRoute>(mains) >>
      FlowgraphNode<InnerSplit, FWorkRangeRoute>(workers) >>
      FlowgraphNode<SquareLeaf, FWorkNumRoute>(workers) >>
      FlowgraphNode<InnerSum, FWorkNumRoute>(workers) >>
      FlowgraphNode<SumMerge, FMainNumRoute>(mains);
  auto graph = app.build_graph(b, "nested");
  ActorScope scope(cluster.domain(), "main");
  auto result = token_cast<SumToken>(graph->call(new RangeToken(0, 95)));
  ASSERT_TRUE(result);
  EXPECT_EQ(result->sum, sum_of_squares(0, 95));
  EXPECT_EQ(result->count, 10);  // ceil(95/10) partial sums
}

// But wait: InnerSum routes by token->index; the inner merge must receive
// all tokens of one inner context on ONE thread. SquareLeaf preserves the
// index, and InnerSplit posts indexes spanning the whole chunk, which would
// scatter one context over several threads. The test above therefore uses
// a chunk-constant index: verify that the engine *diagnoses* the scattered
// variant instead of hanging.
class ScatterInnerSplit
    : public SplitOperation<FWorkThread, TV1(RangeToken), TV1(NumToken)> {
 public:
  void execute(RangeToken* in) override {
    // Deliberately varying index -> inner merge tokens scatter.
    for (int i = in->begin; i < in->end; ++i) postToken(new NumToken(i, i));
  }
  DPS_IDENTIFY_OPERATION(ScatterInnerSplit);
};

TEST(Nesting, ScatteredContextIsDiagnosed) {
  Cluster cluster(ClusterConfig::simulated(2));
  Application app(cluster, "scatter");
  auto mains = app.thread_collection<FMainThread>("main");
  mains->map("node0");
  auto workers = app.thread_collection<FWorkThread>("work");
  workers->map("node0 node1");
  FlowgraphBuilder b =
      FlowgraphNode<ChunkSplit, FMainRangeRoute>(mains) >>
      FlowgraphNode<ScatterInnerSplit, FWorkRangeRoute>(workers) >>
      FlowgraphNode<InnerSum, FWorkNumRoute>(workers) >>
      FlowgraphNode<SumMerge, FMainNumRoute>(mains);
  auto graph = app.build_graph(b, "scatter");
  ActorScope scope(cluster.domain(), "main");
  auto handle = graph->call_async(new RangeToken(0, 40));
  // The scattered context either trips the claim diagnostic (logged, the
  // merge never completes) or stalls; both surface as a deadlock here.
  EXPECT_THROW((void)handle.wait(), Error);
}

// --- Multi-path type-directed routing (paper Fig. 3) -------------------------

class ParitySplit
    : public SplitOperation<FMainThread, TV1(RangeToken),
                            TV2(NumToken, OddToken)> {
 public:
  void execute(RangeToken* in) override {
    for (int i = in->begin; i < in->end; ++i) {
      if (i % 2 == 0) {
        postToken(new NumToken(i, i));
      } else {
        postToken(new OddToken(i, i));
      }
    }
  }
  DPS_IDENTIFY_OPERATION(ParitySplit);
};

// Evens are squared; odds are negated. Distinct input types select the path.
class NegateLeaf
    : public LeafOperation<FWorkThread, TV1(OddToken), TV1(NumToken)> {
 public:
  void execute(OddToken* in) override {
    postToken(new NumToken(-in->value, in->index));
  }
  DPS_IDENTIFY_OPERATION(NegateLeaf);
};

TEST(MultiPath, TokenTypeSelectsPath) {
  Cluster cluster(ClusterConfig::inproc(2));
  Application app(cluster, "multipath");
  auto mains = app.thread_collection<FMainThread>("main");
  mains->map("node0");
  auto workers = app.thread_collection<FWorkThread>("work");
  workers->map("node0 node1");

  FlowgraphNode<ParitySplit, FMainRangeRoute> split(mains);
  FlowgraphNode<SquareLeaf, FWorkNumRoute> square(workers);
  FlowgraphNode<NegateLeaf, FWorkOddRoute> negate(workers);
  FlowgraphNode<SumMerge, FMainNumRoute> merge(mains);
  FlowgraphBuilder b = split >> square >> merge;
  b += split >> negate >> merge;

  auto graph = app.build_graph(b, "parity");
  ActorScope scope(cluster.domain(), "main");
  auto result = token_cast<SumToken>(graph->call(new RangeToken(0, 21)));
  ASSERT_TRUE(result);
  int64_t expect = 0;
  for (int i = 0; i < 21; ++i) expect += (i % 2 == 0) ? int64_t(i) * i : -i;
  EXPECT_EQ(result->sum, expect);
  EXPECT_EQ(result->count, 21);
}

// --- Flow control -------------------------------------------------------------

TEST(FlowControl, WindowBoundsInFlightTokens) {
  // With a window of 4 and a slow consumer, the split must stall rather
  // than queue all 1000 tokens; the run still completes correctly.
  ClusterConfig cfg = ClusterConfig::inproc(2);
  cfg.flow_window = 4;
  Cluster cluster(cfg);
  Application app(cluster, "flowctl");
  auto mains = app.thread_collection<FMainThread>("main");
  mains->map("node0");
  // A blocked split occupies its DPS thread, so the merge needs its own
  // thread when the window can fill (same-thread split+merge is fine only
  // while the split never stalls).
  auto collectors = app.thread_collection<FMainThread>("collector");
  collectors->map("node0");
  auto workers = app.thread_collection<FWorkThread>("work");
  workers->map("node1");
  FlowgraphBuilder b = FlowgraphNode<RangeSplit, FMainRangeRoute>(mains) >>
                       FlowgraphNode<SquareLeaf, FWorkNumRoute>(workers) >>
                       FlowgraphNode<SumMerge, FMainNumRoute>(collectors);
  auto graph = app.build_graph(b, "flow");
  ActorScope scope(cluster.domain(), "main");
  auto result = token_cast<SumToken>(graph->call(new RangeToken(0, 1000)));
  ASSERT_TRUE(result);
  EXPECT_EQ(result->sum, sum_of_squares(0, 1000));
}

TEST(FlowControl, MergeOnSplitNodeBatchesCreditReleases) {
  // Split and merge share node0, so the merge returns its credits to a
  // local account: batched like remote acks (up to 16 per release at this
  // window), never past the window, and every credit comes back so the
  // account is reaped.
  constexpr uint32_t kWindow = 64;
  constexpr int kTokens = 1000;
  obs::Trace::instance().reset();
  obs::Trace::instance().configure(
      {/*enabled=*/true, /*sample_every=*/1, /*buffer_capacity=*/1u << 15});
  ClusterConfig cfg = ClusterConfig::inproc(2);
  cfg.flow_window = kWindow;
  {
    Cluster cluster(cfg);
    Application app(cluster, "flowctl-local");
    auto mains = app.thread_collection<FMainThread>("main");
    mains->map("node0");
    auto collectors = app.thread_collection<FMainThread>("collector");
    collectors->map("node0");
    auto workers = app.thread_collection<FWorkThread>("work");
    workers->map("node1");
    FlowgraphBuilder b = FlowgraphNode<RangeSplit, FMainRangeRoute>(mains) >>
                         FlowgraphNode<SquareLeaf, FWorkNumRoute>(workers) >>
                         FlowgraphNode<SumMerge, FMainNumRoute>(collectors);
    auto graph = app.build_graph(b, "flow");
    ActorScope scope(cluster.domain(), "main");
    auto result = token_cast<SumToken>(graph->call(new RangeToken(0, kTokens)));
    ASSERT_TRUE(result);
    EXPECT_EQ(result->sum, sum_of_squares(0, kTokens));
    EXPECT_EQ(cluster.controller(0).flow_account_count(), 0u);
  }
  obs::TraceQuery q(obs::Trace::instance().collect());
  obs::Trace::instance().set_enabled(false);
  obs::Trace::instance().reset();
  uint64_t acquired = 0;
  for (const auto& ev : q.of_kind(obs::EventKind::kFlowAcquire)) {
    ++acquired;
    EXPECT_LE(ev.e.d, kWindow);  // d = credits in flight after the take
  }
  uint64_t released = 0;
  uint64_t releases = 0;
  for (const auto& ev : q.of_kind(obs::EventKind::kFlowRelease)) {
    ++releases;
    released += ev.e.c;  // c = credits returned at once
    EXPECT_LE(ev.e.c, 16u);
  }
  EXPECT_EQ(acquired, uint64_t{kTokens});
  EXPECT_EQ(released, uint64_t{kTokens});
  EXPECT_LT(releases, released) << "no release carried more than one credit";
}

TEST(FlowControl, TinyWindowStillCompletesUnderVirtualTime) {
  ClusterConfig cfg = ClusterConfig::simulated(2);
  cfg.flow_window = 1;
  Cluster cluster(cfg);
  Application app(cluster, "flowctl-sim");
  auto mains = app.thread_collection<FMainThread>("main");
  mains->map("node0");
  auto collectors = app.thread_collection<FMainThread>("collector");
  collectors->map("node0");
  auto workers = app.thread_collection<FWorkThread>("work");
  workers->map("node1");
  FlowgraphBuilder b = FlowgraphNode<RangeSplit, FMainRangeRoute>(mains) >>
                       FlowgraphNode<SquareLeaf, FWorkNumRoute>(workers) >>
                       FlowgraphNode<SumMerge, FMainNumRoute>(collectors);
  auto graph = app.build_graph(b, "flow");
  ActorScope scope(cluster.domain(), "main");
  auto result = token_cast<SumToken>(graph->call(new RangeToken(0, 32)));
  ASSERT_TRUE(result);
  EXPECT_EQ(result->sum, sum_of_squares(0, 32));
  // Window 1 serializes every token round trip: the virtual time must be
  // much larger than with a wide window.
  const double serialized_time = cluster.domain().now();
  EXPECT_GT(serialized_time, 0.0);
}

// --- Graph validation ---------------------------------------------------------

TEST(Validation, RejectsUnbalancedGraph) {
  Cluster cluster(ClusterConfig::inproc(1));
  Application app(cluster, "invalid");
  auto mains = app.thread_collection<FMainThread>("main");
  mains->map("node0");
  auto workers = app.thread_collection<FWorkThread>("work");
  workers->map("node0");
  // split -> leaf with no merge: leaves a frame open.
  FlowgraphBuilder b = FlowgraphNode<RangeSplit, FMainRangeRoute>(mains) >>
                       FlowgraphNode<SquareLeaf, FWorkNumRoute>(workers);
  try {
    app.build_graph(b, "unbalanced");
    FAIL() << "expected invalid_argument";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kInvalidArgument);
    EXPECT_NE(std::string(e.what()).find("unbalanced"), std::string::npos);
  }
}

TEST(Validation, RejectsMergeAtEntry) {
  Cluster cluster(ClusterConfig::inproc(1));
  Application app(cluster, "invalid2");
  auto mains = app.thread_collection<FMainThread>("main");
  mains->map("node0");
  FlowgraphBuilder b;
  b.add_vertex(FlowgraphNode<SumMerge, FMainNumRoute>(mains).spec());
  EXPECT_THROW(app.build_graph(b, "merge-entry"), Error);
}

TEST(Validation, RejectsUnmappedCollection) {
  Cluster cluster(ClusterConfig::inproc(1));
  Application app(cluster, "invalid3");
  auto mains = app.thread_collection<FMainThread>("main");
  mains->map("node0");
  auto workers = app.thread_collection<FWorkThread>("work");  // never mapped
  FlowgraphBuilder b = FlowgraphNode<RangeSplit, FMainRangeRoute>(mains) >>
                       FlowgraphNode<SquareLeaf, FWorkNumRoute>(workers) >>
                       FlowgraphNode<SumMerge, FMainNumRoute>(mains);
  try {
    app.build_graph(b, "unmapped");
    FAIL() << "expected state error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kState);
  }
}

TEST(Validation, RejectsAmbiguousSuccessors) {
  // Two successors accepting the same token type: path choice undefined.
  Cluster cluster(ClusterConfig::inproc(1));
  Application app(cluster, "invalid4");
  auto mains = app.thread_collection<FMainThread>("main");
  mains->map("node0");
  auto workers = app.thread_collection<FWorkThread>("work");
  workers->map("node0");
  FlowgraphNode<RangeSplit, FMainRangeRoute> split(mains);
  FlowgraphNode<SquareLeaf, FWorkNumRoute> sq1(workers);
  FlowgraphNode<SquareLeaf, FWorkNumRoute> sq2(workers);
  FlowgraphNode<SumMerge, FMainNumRoute> merge(mains);
  FlowgraphBuilder b = split >> sq1 >> merge;
  b += split >> sq2 >> merge;
  EXPECT_THROW(app.build_graph(b, "ambiguous"), Error);
}

TEST(Validation, RejectsMappingToUnknownNode) {
  Cluster cluster(ClusterConfig::inproc(2));
  Application app(cluster, "invalid5");
  auto mains = app.thread_collection<FMainThread>("main");
  try {
    mains->map("node0 nodeX");
    FAIL() << "expected not_found";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kNotFound);
  }
}

TEST(Validation, RejectsDoubleMap) {
  Cluster cluster(ClusterConfig::inproc(1));
  Application app(cluster, "invalid6");
  auto mains = app.thread_collection<FMainThread>("main");
  mains->map("node0");
  EXPECT_THROW(mains->map("node0"), Error);
}

// --- Load-balancing route ------------------------------------------------------

// The paper: "After the split operation, the routing function sends data
// objects to those processing nodes which have previously posted data
// objects to the merge operation" — approximated here with live queue
// depths: route to the least-loaded thread.
class LeastLoadedRoute : public Route<FWorkThread, NumToken> {
 public:
  int route(NumToken*) override {
    int best = 0;
    uint32_t best_depth = queueDepth(0);
    for (int i = 1; i < threadCount(); ++i) {
      const uint32_t d = queueDepth(i);
      if (d < best_depth) {
        best_depth = d;
        best = i;
      }
    }
    return best;
  }
  DPS_IDENTIFY_ROUTE(LeastLoadedRoute);
};

TEST(LoadBalancing, LeastLoadedRouteCompletesAndSpreads) {
  Cluster cluster(ClusterConfig::inproc(4));
  Application app(cluster, "lb");
  auto mains = app.thread_collection<FMainThread>("main");
  mains->map("node0");
  auto workers = app.thread_collection<FWorkThread>("work");
  workers->map("node0 node1 node2 node3");
  FlowgraphBuilder b = FlowgraphNode<RangeSplit, FMainRangeRoute>(mains) >>
                       FlowgraphNode<SquareLeaf, LeastLoadedRoute>(workers) >>
                       FlowgraphNode<SumMerge, FMainNumRoute>(mains);
  auto graph = app.build_graph(b, "lb");
  ActorScope scope(cluster.domain(), "main");
  auto result = token_cast<SumToken>(graph->call(new RangeToken(0, 400)));
  ASSERT_TRUE(result);
  EXPECT_EQ(result->sum, sum_of_squares(0, 400));
  EXPECT_EQ(result->count, 400);
}

}  // namespace
}  // namespace dps
