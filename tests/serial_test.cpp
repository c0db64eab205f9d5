// Unit tests for the serialization substrate: wire reader/writer, simple
// tokens (memcpy family), complex tokens (field-wrapper family), nesting,
// inheritance, the registry, and Ptr<> reference counting.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serial/buffer_pool.hpp"
#include "serial/registry.hpp"

namespace dps {
namespace {

// --- Wire primitives --------------------------------------------------------

TEST(Wire, ScalarRoundTrip) {
  Writer w;
  w.put<int32_t>(-7);
  w.put<uint64_t>(1ull << 40);
  w.put<double>(3.25);
  Reader r(w.bytes());
  EXPECT_EQ(r.get<int32_t>(), -7);
  EXPECT_EQ(r.get<uint64_t>(), 1ull << 40);
  EXPECT_EQ(r.get<double>(), 3.25);
  EXPECT_TRUE(r.at_end());
}

TEST(Wire, StringRoundTrip) {
  Writer w;
  w.put_string("hello");
  w.put_string("");
  w.put_string(std::string("a\0b", 3));
  Reader r(w.bytes());
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), std::string("a\0b", 3));
}

TEST(Wire, OverrunThrowsProtocol) {
  Writer w;
  w.put<uint16_t>(42);
  Reader r(w.bytes());
  EXPECT_EQ(r.get<uint16_t>(), 42);
  try {
    (void)r.get<uint32_t>();
    FAIL() << "expected overrun";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kProtocol);
  }
}

TEST(Wire, TruncatedStringThrows) {
  Writer w;
  w.put<uint32_t>(100);  // claims 100 bytes, provides none
  Reader r(w.bytes());
  EXPECT_THROW((void)r.get_string(), Error);
}

// --- Tokens under test ------------------------------------------------------

// The paper's tutorial token, verbatim semantics.
class SCharToken : public SimpleToken {
 public:
  char chr = 0;
  int pos = 0;
  SCharToken(char c = 0, int p = 0) : chr(c), pos(p) {}
  DPS_IDENTIFY(SCharToken);
};

class SEmptyToken : public SimpleToken {
  DPS_IDENTIFY(SEmptyToken);
};

struct Inner : Serializable {
  CT<int> id;
  CT<std::string> label;
};

// Mirrors the paper's MyComplexToken.
class SComplexTok : public ComplexToken {
 public:
  CT<int> id;
  CT<std::string> name;
  Vector<Inner> children;
  Buffer<int> numbers;
  DPS_IDENTIFY(SComplexTok);
};

// Inheritance: derived complex tokens serialize base + derived fields.
class SDerivedTok : public SComplexTok {
 public:
  CT<double> extra;
  DPS_IDENTIFY(SDerivedTok);
};

// Direct nesting of a field-bearing struct as a plain member.
class SNestingTok : public ComplexToken {
 public:
  Inner direct;
  CT<Inner> wrapped;
  DPS_IDENTIFY(SNestingTok);
};

Ptr<Token> round_trip(const Token& t) {
  Writer w;
  serialize_token(t, w);
  Reader r(w.bytes());
  Ptr<Token> out = deserialize_token(r);
  EXPECT_TRUE(r.at_end());
  return out;
}

// --- Simple tokens ----------------------------------------------------------

TEST(SimpleTokens, RoundTrip) {
  SCharToken in('Q', 1234);
  auto out = token_cast<SCharToken>(round_trip(in));
  ASSERT_TRUE(out);
  EXPECT_EQ(out->chr, 'Q');
  EXPECT_EQ(out->pos, 1234);
}

TEST(SimpleTokens, EmptyPayload) {
  SEmptyToken in;
  auto out = token_cast<SEmptyToken>(round_trip(in));
  ASSERT_TRUE(out);
}

TEST(SimpleTokens, PayloadSizeIsDerivedRegion) {
  Writer w;
  serialize_token(SCharToken('x', 1), w);
  // u64 type id + (sizeof(SCharToken) - sizeof(SimpleToken)) payload bytes.
  EXPECT_EQ(w.size(), 8 + sizeof(SCharToken) - sizeof(SimpleToken));
}

// --- Complex tokens ---------------------------------------------------------

TEST(ComplexTokens, RoundTrip) {
  SComplexTok in;
  in.id = 42;
  in.name = std::string("widget");
  Inner a;
  a.id = 1;
  a.label = std::string("first");
  Inner b;
  b.id = 2;
  b.label = std::string("second");
  in.children.push_back(a);
  in.children.push_back(b);
  for (int i = 0; i < 100; ++i) in.numbers.push_back(i * i);

  auto out = token_cast<SComplexTok>(round_trip(in));
  ASSERT_TRUE(out);
  EXPECT_EQ(out->id.get(), 42);
  EXPECT_EQ(out->name.get(), "widget");
  ASSERT_EQ(out->children.size(), 2u);
  EXPECT_EQ(out->children[0].id.get(), 1);
  EXPECT_EQ(out->children[0].label.get(), "first");
  EXPECT_EQ(out->children[1].label.get(), "second");
  ASSERT_EQ(out->numbers.size(), 100u);
  EXPECT_EQ(out->numbers[99], 99 * 99);
}

TEST(ComplexTokens, EmptyContainers) {
  SComplexTok in;
  auto out = token_cast<SComplexTok>(round_trip(in));
  ASSERT_TRUE(out);
  EXPECT_EQ(out->children.size(), 0u);
  EXPECT_EQ(out->numbers.size(), 0u);
}

TEST(ComplexTokens, DerivedClassCarriesBaseAndOwnFields) {
  SDerivedTok in;
  in.id = 7;
  in.name = std::string("base-part");
  in.extra = 2.5;
  auto out = token_cast<SDerivedTok>(round_trip(in));
  ASSERT_TRUE(out);
  EXPECT_EQ(out->id.get(), 7);
  EXPECT_EQ(out->name.get(), "base-part");
  EXPECT_EQ(out->extra.get(), 2.5);
}

TEST(ComplexTokens, DirectAndWrappedNesting) {
  SNestingTok in;
  in.direct.id = 5;
  in.direct.label = std::string("direct");
  in.wrapped.get().id = 6;
  in.wrapped.get().label = std::string("wrapped");
  auto out = token_cast<SNestingTok>(round_trip(in));
  ASSERT_TRUE(out);
  EXPECT_EQ(out->direct.id.get(), 5);
  EXPECT_EQ(out->direct.label.get(), "direct");
  EXPECT_EQ(out->wrapped.get().id.get(), 6);
  EXPECT_EQ(out->wrapped.get().label.get(), "wrapped");
}

TEST(ComplexTokens, FieldTableCountsAllWrappers) {
  // SComplexTok: id, name, children, numbers -> 4 wrapper fields.
  EXPECT_EQ(FieldTable::of<SComplexTok>().field_count(), 4u);
  // SDerivedTok adds one.
  EXPECT_EQ(FieldTable::of<SDerivedTok>().field_count(), 5u);
  // SNestingTok: direct.{id,label} and wrapped's inner {id,label} register
  // individually (CT<field-bearing> delegates to the inner wrappers) -> 4.
  EXPECT_EQ(FieldTable::of<SNestingTok>().field_count(), 4u);
}

TEST(ComplexTokens, CopyingTokensOutsideCaptureIsInert) {
  SComplexTok a;
  a.id = 9;
  SComplexTok b(a);  // wrapper copy-ctors run; must not disturb the table
  EXPECT_EQ(b.id.get(), 9);
  EXPECT_EQ(FieldTable::of<SComplexTok>().field_count(), 4u);
}

// --- Registry ---------------------------------------------------------------

TEST(Registry, FindByIdAndName) {
  const TokenTypeInfo& info = SCharToken::staticTypeInfo();
  EXPECT_EQ(info.name, "SCharToken");
  EXPECT_EQ(&TokenRegistry::instance().find(info.id), &info);
  EXPECT_EQ(&TokenRegistry::instance().find_by_name("SCharToken"), &info);
  EXPECT_TRUE(TokenRegistry::instance().contains(info.id));
}

TEST(Registry, UnknownIdThrowsNotFound) {
  try {
    TokenRegistry::instance().find(0xdeadbeefdeadbeefull);
    FAIL() << "expected not_found";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kNotFound);
  }
}

TEST(Registry, CorruptTypeTagRejected) {
  Writer w;
  serialize_token(SCharToken('a', 1), w);
  auto bytes = w.take();
  bytes[0] = std::byte{0xFF};  // clobber the type id
  Reader r(bytes.data(), bytes.size());
  EXPECT_THROW((void)deserialize_token(r), Error);
}

TEST(Registry, CloneProducesIndependentObject) {
  SComplexTok in;
  in.id = 1;
  in.numbers.push_back(10);
  auto c = token_cast<SComplexTok>(clone_token(in));
  ASSERT_TRUE(c);
  c->numbers[0] = 99;
  EXPECT_EQ(in.numbers[0], 10);
}

// --- Ptr<> ------------------------------------------------------------------

struct SProbeToken : SimpleToken {
  static inline int live = 0;
  SProbeToken() { ++live; }
  SProbeToken(const SProbeToken&) = delete;
  ~SProbeToken() override { --live; }
  DPS_IDENTIFY(SProbeToken);
};

TEST(Ptr, DeletesAtZero) {
  {
    Ptr<SProbeToken> p(new SProbeToken);
    EXPECT_EQ(SProbeToken::live, 1);
    {
      Ptr<SProbeToken> q = p;
      EXPECT_EQ(p->token_refs(), 2u);
    }
    EXPECT_EQ(p->token_refs(), 1u);
  }
  EXPECT_EQ(SProbeToken::live, 0);
}

TEST(Ptr, MoveDoesNotChangeCount) {
  Ptr<SProbeToken> p(new SProbeToken);
  Ptr<SProbeToken> q(std::move(p));
  EXPECT_FALSE(p);
  EXPECT_EQ(q->token_refs(), 1u);
  q.reset();
  EXPECT_EQ(SProbeToken::live, 0);
}

TEST(Ptr, UpcastAndTokenCast) {
  Ptr<SCharToken> c(new SCharToken('z', 3));
  Ptr<Token> t = c;  // upcast
  EXPECT_EQ(t->token_refs(), 2u);
  auto back = token_cast<SCharToken>(t);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->chr, 'z');
  auto wrong = token_cast<SComplexTok>(t);
  EXPECT_FALSE(wrong);
}

TEST(Ptr, SharedIntrusiveCountFromRaw) {
  SProbeToken* raw = new SProbeToken;
  Ptr<SProbeToken> a(raw);
  Ptr<SProbeToken> b(raw);  // second wrap of the same raw pointer is safe
  EXPECT_EQ(raw->token_refs(), 2u);
  a.reset();
  EXPECT_EQ(SProbeToken::live, 1);
  b.reset();
  EXPECT_EQ(SProbeToken::live, 0);
}

// --- Hashing ----------------------------------------------------------------

TEST(Fnv, KnownVectorsAndDistinctness) {
  EXPECT_EQ(fnv1a(""), 14695981039346656037ull);
  EXPECT_NE(fnv1a("SCharToken"), fnv1a("charToken"));
  EXPECT_EQ(fnv1a("SCharToken"), SCharToken::staticTypeInfo().id);
}

// --- Arithmetic sizing + the encode buffer pool ----------------------------
//
// The transmit path sizes every encode up front (serialized_token_size) and
// draws an exact-size buffer from the pool, so a serialize must never grow
// the writer. These tests pin the size arithmetic to the actual bytes
// produced for every token family.

size_t actual_serialized_size(const Token& t) {
  Writer w;
  serialize_token(t, w);
  return w.size();
}

TEST(SizedEncode, SimpleTokenSizeMatchesBytes) {
  SCharToken t('x', 99);
  EXPECT_EQ(serialized_token_size(t), actual_serialized_size(t));
  SEmptyToken e;
  EXPECT_EQ(serialized_token_size(e), actual_serialized_size(e));
}

TEST(SizedEncode, ComplexTokenSizeMatchesBytes) {
  SComplexTok t;
  t.id = 7;
  t.name = std::string("a complex token with a heap string");
  t.children.resize(3);
  for (size_t i = 0; i < 3; ++i) {
    t.children[i].id = static_cast<int>(i);
    t.children[i].label = "child-" + std::to_string(i);
  }
  t.numbers.resize(17);
  EXPECT_EQ(serialized_token_size(t), actual_serialized_size(t));

  SDerivedTok d;
  d.id = 1;
  d.name = std::string("derived");
  d.extra = 2.5;
  EXPECT_EQ(serialized_token_size(d), actual_serialized_size(d));

  SNestingTok n;
  n.direct.label = std::string("direct");
  n.wrapped.get().label = std::string("wrapped");
  EXPECT_EQ(serialized_token_size(n), actual_serialized_size(n));
}

TEST(SizedEncode, ReservedWriterNeverGrows) {
  SComplexTok t;
  t.name = std::string(200, 'n');
  t.numbers.resize(64);
  const size_t need = serialized_token_size(t);
  Writer w;
  w.reserve(need);
  serialize_token(t, w);
  EXPECT_EQ(w.size(), need);
  EXPECT_EQ(w.growth_count(), 0u)
      << "an exact reserve must absorb the whole encode";

  Writer tight;  // no reserve: the growth counter must notice
  serialize_token(t, tight);
  EXPECT_GT(tight.growth_count(), 0u);
}

TEST(BufferPoolTest, RecyclesCapacityAndCountsStats) {
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  pool.reset_stats();

  std::vector<std::byte> a = pool.acquire(512);
  EXPECT_GE(a.capacity(), 512u);
  EXPECT_TRUE(a.empty());
  pool.release(std::move(a));

  // The freed capacity must satisfy the next fitting request without a
  // fresh allocation.
  std::vector<std::byte> b = pool.acquire(256);
  EXPECT_GE(b.capacity(), 256u);
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.releases, 1u);
  EXPECT_EQ(s.reuses, 1u);
  EXPECT_EQ(s.encode_growths, 0u);
  pool.release(std::move(b));
  pool.trim();
  pool.reset_stats();
}

TEST(BufferPoolTest, OversizedBuffersAreNotRetained) {
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  pool.reset_stats();
  std::vector<std::byte> huge;
  huge.reserve((1 << 20) + 1);  // beyond the per-buffer retention cap
  pool.release(std::move(huge));
  EXPECT_EQ(pool.stats().dropped, 1u);
  pool.reset_stats();
}

TEST(BufferPoolTest, BufferReleasedOnAnotherThreadIsReused) {
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  pool.reset_stats();

  // Thread B releases while it runs (into its own cache) and then exits,
  // which hands its cache to the shared list.
  const std::byte* released = nullptr;
  std::thread b([&] {
    std::vector<std::byte> buf = pool.acquire(2048);
    released = buf.data();
    pool.release(std::move(buf));
    EXPECT_EQ(pool.cached_buffers(), 1u);
  });
  b.join();

  EXPECT_EQ(pool.cached_buffers(), 0u);
  std::vector<std::byte> again = pool.acquire(1024);
  EXPECT_EQ(again.data(), released) << "B's buffer must serve the acquire";
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.reuses, 1u);
  EXPECT_EQ(s.releases, 1u);
  pool.release(std::move(again));
  pool.trim();
  pool.reset_stats();
}

TEST(BufferPoolTest, SpillFromALiveThreadReachesOtherThreads) {
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  pool.reset_stats();

  // A thread that only releases (a TCP sender) overflows its cache, and the
  // overflow must feed a thread that only acquires while both are alive.
  constexpr size_t kReleased = BufferPool::kCacheBuffers + 8;
  std::mutex mu;
  std::condition_variable cv;
  bool spilled = false, done = false;
  std::thread releaser([&] {
    for (size_t i = 0; i < kReleased; ++i) {
      pool.release(pool.acquire(256));
    }
    std::vector<std::vector<std::byte>> held;
    for (size_t i = 0; i < kReleased; ++i) held.push_back(pool.acquire(256));
    for (auto& buf : held) pool.release(std::move(buf));
    EXPECT_LE(pool.cached_buffers(), BufferPool::kCacheBuffers);
    std::unique_lock<std::mutex> lock(mu);
    spilled = true;
    cv.notify_all();
    cv.wait(lock, [&] { return done; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return spilled; });
  }
  const uint64_t reuses_before = pool.stats().reuses;
  std::vector<std::byte> got = pool.acquire(256);
  EXPECT_EQ(pool.stats().reuses, reuses_before + 1)
      << "the releaser's spill must reach this thread";
  pool.release(std::move(got));
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  releaser.join();
  pool.trim();
  pool.reset_stats();
}

TEST(BufferPoolTest, StatsAreExactAcrossThreads) {
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  pool.reset_stats();
  constexpr int kThreads = 4;
  constexpr int kRounds = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < kRounds; ++i) {
        std::vector<std::byte> buf = pool.acquire(512);
        buf.resize(512);
        pool.release(std::move(buf));
      }
    });
  }
  for (auto& t : threads) t.join();
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.acquires, uint64_t{kThreads} * kRounds);
  EXPECT_EQ(s.releases, uint64_t{kThreads} * kRounds);
  EXPECT_EQ(s.dropped, 0u);
  // Each thread recycles one buffer through its own cache: at most its
  // first acquire allocates.
  EXPECT_GE(s.reuses, uint64_t{kThreads} * (kRounds - 1));
  EXPECT_LE(s.reuses, s.acquires);
  pool.trim();
  pool.reset_stats();
}

TEST(BufferPoolTest, ResetStatsCoversLiveAndExitedThreads) {
  // Counts live in each thread's cache; reset_stats() must zero what a
  // live thread counted before it, and stats() must keep what a thread
  // counted before it exited.
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  auto churn = [&pool](int n) {
    for (int i = 0; i < n; ++i) {
      std::vector<std::byte> buf = pool.acquire(256);
      pool.release(std::move(buf));
    }
  };
  std::mutex mu;
  std::condition_variable cv;
  int step = 0;  // 0: churn 10; 1: main reset; 2: churn 5; 3: main read
  std::thread live([&] {
    churn(10);
    std::unique_lock<std::mutex> lock(mu);
    step = 1;
    cv.notify_all();
    cv.wait(lock, [&] { return step == 2; });
    churn(5);
    step = 3;
    cv.notify_all();
    cv.wait(lock, [&] { return step == 4; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return step == 1; });
  }
  pool.reset_stats();
  EXPECT_EQ(pool.stats().acquires, 0u);
  {
    std::unique_lock<std::mutex> lock(mu);
    step = 2;
    cv.notify_all();
    cv.wait(lock, [&] { return step == 3; });
  }
  std::thread([&] { churn(7); }).join();  // exits before the read
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.acquires, 12u);
  EXPECT_EQ(s.releases, 12u);
  // At most the exited thread's first acquire allocates.
  EXPECT_GE(s.reuses, 11u);
  EXPECT_LE(s.reuses, 12u);
  {
    std::lock_guard<std::mutex> lock(mu);
    step = 4;
  }
  cv.notify_all();
  live.join();
  EXPECT_EQ(pool.stats().acquires, 12u);  // the live thread's exit adds none
  pool.trim();
  pool.reset_stats();
}

TEST(BufferPoolTest, ConcurrentHandOffChurnNeverSharesABuffer) {
  // Producers acquire, stamp and hand buffers to consumers, which check
  // the stamp and release: the TCP worker -> sender and rx -> worker
  // shapes at once. A buffer handed out twice shows up as a torn stamp
  // (and, under tsan, as a race).
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  pool.reset_stats();
  constexpr int kProducers = 3;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 2000;
  constexpr size_t kQueueCap = 16;  // bounds the buffers in flight
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::vector<std::byte>> queue;
  int producers_left = kProducers;
  std::atomic<int> torn{0};
  std::atomic<int> consumed{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Mixed sizes exercise best-fit and the byte cap.
        const size_t size = 64u << ((p + i) % 8);
        std::vector<std::byte> buf = pool.acquire(size);
        buf.assign(size, static_cast<std::byte>(i & 0xff));
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return queue.size() < kQueueCap; });
        queue.push_back(std::move(buf));
        cv.notify_all();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (--producers_left == 0) cv.notify_all();
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        std::vector<std::byte> buf;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !queue.empty() || producers_left == 0; });
          if (queue.empty()) return;
          buf = std::move(queue.front());
          queue.pop_front();
          cv.notify_all();
        }
        for (std::byte b : buf) {
          if (b != buf.front()) {
            torn.fetch_add(1);
            break;
          }
        }
        consumed.fetch_add(1);
        pool.release(std::move(buf));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.acquires, uint64_t{kProducers} * kPerProducer);
  EXPECT_EQ(s.releases + s.dropped, uint64_t{kProducers} * kPerProducer);
  EXPECT_GT(s.reuses, s.acquires / 2)
      << "consumer caches must spill back to the producers";
  pool.trim();
  pool.reset_stats();
}

TEST(BufferPoolTest, PerThreadCacheStaysWithinItsCaps) {
  BufferPool& pool = BufferPool::instance();
  std::thread t([&pool] {
    // Count cap: many small buffers.
    std::vector<std::vector<std::byte>> small;
    for (size_t i = 0; i < 3 * BufferPool::kCacheBuffers; ++i) {
      small.push_back(pool.acquire(128));
    }
    for (auto& buf : small) {
      pool.release(std::move(buf));
      EXPECT_LE(pool.cached_buffers(), BufferPool::kCacheBuffers);
    }
    EXPECT_GT(pool.cached_buffers(), 0u);
    pool.trim();
    EXPECT_EQ(pool.cached_buffers(), 0u);
    EXPECT_EQ(pool.cached_bytes(), 0u);

    // Byte cap: a few large buffers fill it long before the count cap.
    std::vector<std::vector<std::byte>> large;
    for (int i = 0; i < 16; ++i) {
      large.push_back(pool.acquire(BufferPool::kCacheBytes / 3));
    }
    for (auto& buf : large) {
      pool.release(std::move(buf));
      EXPECT_LE(pool.cached_bytes(), BufferPool::kCacheBytes);
    }
    EXPECT_GT(pool.cached_bytes(), 0u);
    EXPECT_LE(pool.cached_buffers(), 3u) << "the byte cap binds first";

    // A buffer larger than the whole cache never enters it.
    pool.trim();
    pool.release(pool.acquire(BufferPool::kCacheBytes + 1));
    EXPECT_EQ(pool.cached_buffers(), 0u);
    pool.trim();
  });
  t.join();
  pool.trim();
  pool.reset_stats();
}

}  // namespace
}  // namespace dps
