// Service-tier robustness suite (DESIGN.md §4.14): the sharded cache
// router's deadline shedding, admission control, hedged reads, and the
// per-shard health ladder — each mechanism pinned deterministically, plus
// the chaos "kill shard k" scenario the ISSUE's acceptance criterion names:
// storm one shard to death mid-run and assert the router keeps serving the
// survivors, conserves every request (sum of outcomes == requests issued),
// and recovers the quarantined shard through cooldown probes afterwards.
//
// Chaos reproduction: like the other fault-injection suites, randomized
// schedules derive from GOCC_CHAOS_SEED (default 1) and the fixture prints
// it; the chaos battery re-runs this binary under five seeds on both the
// SimTM and swocc backends (tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/gosync/runtime.h"
#include "src/htm/config.h"
#include "src/htm/fault.h"
#include "src/htm/stats.h"
#include "src/optilib/optilock.h"
#include "src/service/router.h"
#include "src/service/service.h"
#include "src/support/sharded.h"
#include "src/workloads/policy.h"

namespace gocc::service {
namespace {

using htm::fault::FaultPlan;
using htm::fault::Site;

uint64_t ChaosSeed() {
  const char* env = std::getenv("GOCC_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 0));
  }
  return 1;
}

// Test config: every knob explicit (never the env-latched DefaultConfig),
// admission/hedging/deadlines individually disabled by the tests that
// isolate one mechanism. The enormous window tick keeps primed estimator
// samples from decaying mid-assertion; the decay test dials it down.
ServiceConfig TestConfig(int shards = 4) {
  ServiceConfig cfg;
  cfg.shards = shards;
  cfg.deadline_us = 0;
  cfg.queue_limit = 0;
  cfg.p99_shed_us = 0;
  cfg.retry_after_us = 200;
  cfg.hedge_us = 0;
  cfg.window_tick_us = 60'000'000;  // one tick for the whole test
  cfg.degrade_trips = 1;
  cfg.quarantine_trips = 3;
  cfg.probe_successes = 3;
  cfg.quarantine_cooldown_ms = 60'000;  // probes only via ForceProbe
  return cfg;
}

// Smallest key >= `from` that routes to `shard`.
template <typename Svc>
uint64_t KeyForShard(const Svc& svc, int shard, uint64_t from = 1) {
  uint64_t k = from;
  while (svc.ShardFor(k) != shard) {
    ++k;
  }
  return k;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::ForceSoftwareBackend();
    htm::MutableConfig() = htm::TxConfig{};
    htm::GlobalTxStats().Reset();
    optilib::MutableOptiConfig() = optilib::OptiConfig{};
    optilib::GlobalOptiStats().Reset();
    optilib::GlobalPerceptron().Reset();
    optilib::ResetHardeningState();
    htm::fault::Disarm();
    htm::fault::GlobalFaultStats().Reset();
    prev_procs_ = gosync::SetMaxProcs(4);
    seed_ = ChaosSeed();
    std::printf("[chaos] GOCC_CHAOS_SEED=%llu\n",
                static_cast<unsigned long long>(seed_));
  }
  void TearDown() override {
    htm::fault::Disarm();
    gosync::SetMaxProcs(prev_procs_);
  }

  int prev_procs_ = 1;
  uint64_t seed_ = 1;
};

using PessimisticService = CacheService<workloads::Pessimistic>;
using ElidedService = CacheService<workloads::Elided>;

TEST_F(ServiceTest, RoundTripConservesEveryRequest) {
  PessimisticService svc(TestConfig());
  constexpr int kKeys = 64;
  for (int k = 1; k <= kKeys; ++k) {
    RequestResult r = svc.Set(static_cast<uint64_t>(k), k * 10);
    EXPECT_EQ(r.outcome, Outcome::kOk);
  }
  for (int k = 1; k <= kKeys; ++k) {
    RequestResult r = svc.Get(static_cast<uint64_t>(k));
    EXPECT_EQ(r.outcome, Outcome::kOk);
    EXPECT_EQ(r.value, k * 10);
    EXPECT_FALSE(r.stale);
  }
  RequestResult miss = svc.Get(kKeys + 1000);
  EXPECT_EQ(miss.outcome, Outcome::kMiss);

  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(2 * kKeys + 1, &why)) << why;
  EXPECT_EQ(svc.stats().Count(Outcome::kOk), 2u * kKeys);
  EXPECT_EQ(svc.stats().Count(Outcome::kMiss), 1u);
}

TEST_F(ServiceTest, ConservationOracleDetectsImbalance) {
  ServiceStats stats;
  stats.Bump(Outcome::kOk);
  std::string why;
  EXPECT_FALSE(stats.ConservationHolds(0, &why));
  EXPECT_FALSE(why.empty());
  // stale reads can only be a subset of ok responses.
  stats.stale_reads.fetch_add(2);
  EXPECT_FALSE(stats.ConservationHolds(1, &why));
  EXPECT_NE(why.find("stale"), std::string::npos);
}

// Counters are striped per thread (support::SlotCounter). Three times as
// many threads as slots force every slot to be shared; fetch_add keeps the
// shared slots exact, and every read path sums all of them.
TEST_F(ServiceTest, CountersStayExactWhenThreadsShareSlots) {
  constexpr int kThreads = 3 * support::SlotCounter::kSlots;
  constexpr uint64_t kPerOutcome = 2000;
  ServiceStats stats;
  std::mutex mu;
  std::set<int> slots_used;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      {
        std::lock_guard<std::mutex> lock(mu);
        slots_used.insert(support::ThreadSlot<support::SlotCounter::kSlots>());
      }
      for (uint64_t i = 0; i < kPerOutcome; ++i) {
        for (int o = 0; o < kNumOutcomes; ++o) {
          stats.Bump(static_cast<Outcome>(o));
        }
        stats.hedges_fired.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_EQ(slots_used.size(), static_cast<size_t>(support::SlotCounter::kSlots))
      << "threads started together must cover every slot";

  const uint64_t per = kThreads * kPerOutcome;
  const uint64_t issued = per * kNumOutcomes;
  std::string why;
  EXPECT_TRUE(stats.ConservationHolds(issued, &why)) << why;
  EXPECT_EQ(stats.TotalOutcomes(), issued);
  EXPECT_EQ(stats.hedges_fired.load(), per);
  const std::string text = stats.ToString();
  for (int o = 0; o < kNumOutcomes; ++o) {
    const auto outcome = static_cast<Outcome>(o);
    EXPECT_EQ(stats.Count(outcome), per) << OutcomeName(outcome);
    EXPECT_NE(text.find(std::string(OutcomeName(outcome)) + "=" +
                        std::to_string(per)),
              std::string::npos)
        << text;
  }

  // Every slot holds counts now, so a Reset that missed one shows up.
  stats.Reset();
  EXPECT_EQ(stats.TotalOutcomes(), 0u);
  EXPECT_EQ(stats.hedges_fired.load(), 0u);
  for (int o = 0; o < kNumOutcomes; ++o) {
    EXPECT_EQ(stats.Count(static_cast<Outcome>(o)), 0u);
  }
  EXPECT_TRUE(stats.ConservationHolds(0, &why)) << why;
}

TEST_F(ServiceTest, BlownBudgetShedsBeforeTheShardLock) {
  ServiceConfig cfg = TestConfig();
  cfg.deadline_us = 1000;  // 1 ms budget
  PessimisticService svc(cfg);
  svc.Set(1, 11);

  // Upstream already burned 5 ms of a 1 ms budget: shed pre-lock, no
  // critical-section work, counted at the dedicated shed counter.
  RequestResult r = svc.Get(1, /*elapsed_ns=*/5'000'000);
  EXPECT_EQ(r.outcome, Outcome::kShedDeadline);
  EXPECT_EQ(svc.stats().deadline_in_shard.load(), 1u);

  // A fresh request with the budget intact is served.
  r = svc.Get(1);
  EXPECT_EQ(r.outcome, Outcome::kOk);
  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(3, &why)) << why;
}

TEST_F(ServiceTest, RetryAfterJitterStaysInBounds) {
  ServiceConfig cfg = TestConfig();
  cfg.retry_after_us = 200;
  const uint64_t base = cfg.retry_after_us * 1000;
  std::set<uint64_t> distinct;
  for (int i = 0; i < 256; ++i) {
    const uint64_t hint = RetryAfterJitterNs(cfg);
    EXPECT_GE(hint, base);
    EXPECT_LT(hint, 2 * base);
    distinct.insert(hint);
  }
  // Jittered, not constant: a fixed hint would re-phase the herd.
  EXPECT_GT(distinct.size(), 8u);
}

TEST_F(ServiceTest, WindowedP99BreachShedsWithJitteredRetryAfter) {
  ServiceConfig cfg = TestConfig();
  cfg.p99_shed_us = 1000;  // shed above 1 ms
  PessimisticService svc(cfg);
  svc.Set(1, 11);

  // The shard looks slow: 10 ms p99 in the live window.
  const int shard = svc.ShardFor(1);
  svc.PrimeShardLatency(shard, 10'000'000, 256);
  EXPECT_GT(svc.WindowP99(shard), cfg.p99_shed_us * 1000);

  RequestResult r = svc.Get(1);
  EXPECT_EQ(r.outcome, Outcome::kShedOverload);
  EXPECT_GE(r.retry_after_ns, cfg.retry_after_us * 1000);
  EXPECT_LT(r.retry_after_ns, 2 * cfg.retry_after_us * 1000);

  // Other shards are not implicated by this shard's tail.
  const uint64_t other_key = KeyForShard(svc, (shard + 1) % cfg.shards);
  EXPECT_NE(svc.Get(other_key).outcome, Outcome::kShedOverload);
}

// Latency a thread records lands in its own estimator slot; the merged p99
// must still reach admission on every other thread. The other thread's own
// refresh (fast samples in its slot) must not mask the slow slot.
TEST_F(ServiceTest, LatencyRecordedOnOneThreadShedsAnotherThreadsGet) {
  constexpr int kSlots = PessimisticService::kLatencySlots;
  ServiceConfig cfg = TestConfig();
  cfg.p99_shed_us = 1000;  // shed above 1 ms
  PessimisticService svc(cfg);
  svc.Set(1, 11);
  const int shard = svc.ShardFor(1);
  const int own_slot = support::ThreadSlot<kSlots>();

  // Record 10 ms samples from a thread in a different slot (consecutive
  // thread ordinals cycle through the slots, so a few tries suffice).
  bool recorded = false;
  for (int attempt = 0; attempt < kSlots && !recorded; ++attempt) {
    std::thread([&] {
      if (support::ThreadSlot<kSlots>() != own_slot) {
        svc.PrimeShardLatency(shard, 10'000'000, 256);
        recorded = true;
      }
    }).join();
  }
  ASSERT_TRUE(recorded) << "no thread landed outside the main thread's slot";

  // Fast samples in this thread's slot; its merge reads every slot.
  svc.PrimeShardLatency(shard, 1000, 128);
  EXPECT_GT(svc.WindowP99(shard), cfg.p99_shed_us * 1000);
  RequestResult r = svc.Get(1);
  EXPECT_EQ(r.outcome, Outcome::kShedOverload);
  EXPECT_GE(r.retry_after_ns, cfg.retry_after_us * 1000);
  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(2, &why)) << why;
}

TEST_F(ServiceTest, WindowedP99DecaysAcrossTicks) {
  ServiceConfig cfg = TestConfig();
  cfg.p99_shed_us = 1000;
  cfg.window_tick_us = 1000;  // 1 ms ticks so the estimator can age out
  PessimisticService svc(cfg);
  svc.Set(1, 11);
  const int shard = svc.ShardFor(1);
  // Slow samples from this thread and from one thread per estimator slot,
  // so every slot holds a tail that must age out.
  svc.PrimeShardLatency(shard, 10'000'000, 256);
  for (int t = 0; t < PessimisticService::kLatencySlots; ++t) {
    std::thread([&] { svc.PrimeShardLatency(shard, 10'000'000, 256); })
        .join();
  }
  EXPECT_GT(svc.WindowP99(shard), cfg.p99_shed_us * 1000);

  // Sleep past every live window (kWindows ticks); the next request's
  // window advance clears the stale tail in every slot and is admitted.
  std::this_thread::sleep_for(std::chrono::milliseconds(
      (support::WindowedPercentile::kWindows + 16)));
  RequestResult r = svc.Get(1);
  EXPECT_EQ(r.outcome, Outcome::kOk);
  EXPECT_EQ(svc.WindowP99(shard), 0u)
      << "aged-out samples must stop feeding the admission signal";
}

// Four threads on one shard with a 100 us tick: tick claims, slot
// rotations, merges and records all interleave. Every request must still
// land in exactly one outcome, and under TSan (the service-tsan test
// preset) no access to the tick or a slot may race.
TEST_F(ServiceTest, ConcurrentTickAdvanceConservesEveryRequest) {
  constexpr int kThreads = 4;
  constexpr int kKeys = 16;
  ServiceConfig cfg = TestConfig();
  cfg.window_tick_us = 100;
  ElidedService svc(cfg);
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; static_cast<int>(keys.size()) < kKeys; ++k) {
    k = KeyForShard(svc, 2, k);
    keys.push_back(k);
    ASSERT_EQ(svc.Set(k, static_cast<int64_t>(k)).outcome, Outcome::kOk);
  }
  svc.stats().Reset();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> issued{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SplitMix64 rng(seed_ * 0x9e37 + static_cast<uint64_t>(t));
      uint64_t sent = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t key = keys[rng.NextBelow(kKeys)];
        RequestResult r = rng.NextBool(0.1)
                              ? svc.Set(key, static_cast<int64_t>(key))
                              : svc.Get(key);
        EXPECT_EQ(r.outcome, Outcome::kOk);
        ++sent;
      }
      issued.fetch_add(sent);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (auto& th : threads) {
    th.join();
  }
  std::string why;
  EXPECT_GT(issued.load(), 0u);
  EXPECT_TRUE(svc.stats().ConservationHolds(issued.load(), &why)) << why;
  EXPECT_EQ(svc.stats().Count(Outcome::kOk), issued.load());
}

TEST_F(ServiceTest, QueueDepthLimitShedsWhileShardIsStalled) {
  ServiceConfig cfg = TestConfig();
  cfg.queue_limit = 1;
  PessimisticService svc(cfg);
  const uint64_t key = KeyForShard(svc, 1);
  svc.Set(key, 7);

  // Stall shard 1's critical section: the writer below parks inside the
  // lock with queue_depth == 1 while the main thread's read arrives.
  FaultPlan plan;
  plan.seed = seed_;
  plan.only_shard = 1;
  plan.WithStallAt(Site::kShardStall, 1.0, /*pauses=*/5'000'000);
  htm::fault::Arm(plan);

  std::thread writer([&] { svc.Set(key, 8); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (svc.QueueDepth(1) < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GE(svc.QueueDepth(1), 1) << "writer never entered the shard";

  RequestResult r = svc.Get(key);
  EXPECT_EQ(r.outcome, Outcome::kShedOverload);
  EXPECT_GE(r.retry_after_ns, cfg.retry_after_us * 1000);

  writer.join();
  htm::fault::Disarm();
  EXPECT_GT(htm::fault::GlobalFaultStats().stalls.load(), 0u);
  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(3, &why)) << why;
}

// Spins until the injector has parked `n` critical sections (a stall is
// counted as it starts), or five seconds pass.
bool WaitForStalls(uint64_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (htm::fault::GlobalFaultStats().stalls.load() < n) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

// The depth gate (DESIGN.md §4.14, admission step 4): with no more live
// callers than queue_limit the limit cannot fire, so no request touches
// queue_depth, and a read behind a hung writer waits instead of shedding.
TEST_F(ServiceTest, DepthGateStaysClosedWhileCallersCannotReachLimit) {
  ServiceConfig cfg = TestConfig();
  cfg.queue_limit = 64;
  PessimisticService svc(cfg);
  const uint64_t key = KeyForShard(svc, 1);
  svc.Set(key, 7);

  FaultPlan plan;
  plan.seed = seed_;
  plan.only_shard = 1;
  plan.WithStallAt(Site::kShardStall, 1.0, /*pauses=*/5'000'000);
  htm::fault::Arm(plan);

  std::thread writer([&] { svc.Set(key, 8); });
  EXPECT_TRUE(WaitForStalls(1)) << "writer never parked in the shard";
  EXPECT_EQ(svc.QueueDepth(1), 0);

  RequestResult r = svc.Get(key);  // waits out the writer's lock
  EXPECT_EQ(r.outcome, Outcome::kOk);
  EXPECT_EQ(r.value, 8);

  writer.join();
  htm::fault::Disarm();
  EXPECT_EQ(svc.QueueDepth(1), 0);
  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(3, &why)) << why;
}

// queue_limit = 2: the main thread plus one parked writer are two live
// callers, so the gate stays closed and the read is admitted; with a second
// writer waiting on the stalled lock there are three, the gate opens, both
// writers are counted, and the read sheds.
TEST_F(ServiceTest, DepthGateOpensOnceCallersExceedLimit) {
  ServiceConfig cfg = TestConfig();
  cfg.queue_limit = 2;
  PessimisticService svc(cfg);
  const uint64_t key = KeyForShard(svc, 1);
  const uint64_t other = KeyForShard(svc, 0);
  svc.Set(key, 7);
  ASSERT_EQ(LiveCallers(), 1u) << "a caller thread outlived its test";

  FaultPlan plan;
  plan.seed = seed_;
  plan.only_shard = 1;
  plan.WithStallAt(Site::kShardStall, 1.0, /*pauses=*/5'000'000);
  htm::fault::Arm(plan);

  // One parked writer: two live callers, gate closed.
  std::thread writer([&] { svc.Set(key, 8); });
  EXPECT_TRUE(WaitForStalls(1)) << "writer never parked in the shard";
  EXPECT_EQ(svc.QueueDepth(1), 0);
  RequestResult admitted = svc.Get(key);
  EXPECT_EQ(admitted.outcome, Outcome::kOk);
  writer.join();

  // Two writers, each a live caller (a read on unstalled shard 0) before
  // either enters shard 1: both pass the gate open and are counted, the
  // second while it waits for the first's stalled lock.
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      svc.Get(other);
      ready.fetch_add(1);
      while (!go.load()) {
        std::this_thread::yield();
      }
      svc.Set(key, 9 + w);
    });
  }
  while (ready.load() < 2) {
    std::this_thread::yield();
  }
  EXPECT_EQ(LiveCallers(), 3u);
  go.store(true);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (svc.QueueDepth(1) < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(svc.QueueDepth(1), 2) << "writers never queued in the shard";
  RequestResult shed = svc.Get(key);
  EXPECT_EQ(shed.outcome, Outcome::kShedOverload);

  for (auto& th : writers) {
    th.join();
  }
  htm::fault::Disarm();
  EXPECT_EQ(svc.QueueDepth(1), 0) << "every counted entry is matched";
  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(8, &why)) << why;
}

// A thread joins the live-caller count once, however many requests it
// makes, and leaves it when it exits.
TEST_F(ServiceTest, LiveCallersReturnToBaselineAfterThreadsExit) {
  PessimisticService svc(TestConfig());
  const uint32_t before = LiveCallers();
  constexpr int kThreads = 4;
  std::atomic<int> called{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const uint64_t key = static_cast<uint64_t>(t) + 1;
      svc.Set(key, t);
      svc.Get(key);
      called.fetch_add(1);
      while (!release.load()) {
        std::this_thread::yield();
      }
    });
  }
  while (called.load() < kThreads) {
    std::this_thread::yield();
  }
  EXPECT_EQ(LiveCallers(), before + kThreads);
  release.store(true);
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(LiveCallers(), before);
}

TEST_F(ServiceTest, HedgeDuplicateIsSuppressedWhenPrimaryAnswers) {
  ServiceConfig cfg = TestConfig();
  cfg.hedge_us = 100;        // hedge when p99 > 100 us
  cfg.deadline_us = 100'000;  // ample budget: the primary should still win
  PessimisticService svc(cfg);
  svc.Set(1, 42);
  const int shard = svc.ShardFor(1);
  svc.PrimeShardLatency(shard, 200'000, 256);  // 200 us > hedge threshold

  RequestResult r = svc.Get(1);
  EXPECT_TRUE(r.hedged);
  EXPECT_EQ(r.outcome, Outcome::kOk);
  EXPECT_EQ(r.value, 42);
  EXPECT_FALSE(r.stale) << "primary answered in budget; hedge must lose";
  EXPECT_EQ(svc.stats().hedges_fired.load(), 1u);
  EXPECT_EQ(svc.stats().hedge_duplicates.load(), 1u);
  EXPECT_EQ(svc.stats().hedges_won.load(), 0u);
  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(2, &why)) << why;
}

TEST_F(ServiceTest, HedgeWinsWhenBudgetCannotAbsorbTheTail) {
  ServiceConfig cfg = TestConfig();
  cfg.hedge_us = 100;
  cfg.deadline_us = 1000;  // 1 ms budget vs a 50 ms estimated primary
  PessimisticService svc(cfg);
  svc.Set(1, 42);
  const int shard = svc.ShardFor(1);
  svc.PrimeShardLatency(shard, 50'000'000, 256);

  RequestResult r = svc.Get(1);
  EXPECT_TRUE(r.hedged);
  EXPECT_EQ(r.outcome, Outcome::kOk);
  EXPECT_EQ(r.value, 42) << "snapshot must remember the committed write";
  EXPECT_TRUE(r.stale);
  EXPECT_EQ(svc.stats().hedges_won.load(), 1u);
  EXPECT_EQ(svc.stats().hedge_duplicates.load(), 0u);
  EXPECT_EQ(svc.stats().stale_reads.load(), 1u);
  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(2, &why)) << why;
}

TEST_F(ServiceTest, HealthLadderEscalatesAndQuarantineServesStale) {
  PessimisticService svc(TestConfig());
  const uint64_t key = KeyForShard(svc, 2);
  svc.Set(key, 5);

  ShardHealth& health = svc.health(2);
  // degrade_trips = 1: first failure degrades...
  health.OnFailure();
  EXPECT_EQ(health.State(), ShardState::kDegraded);
  EXPECT_EQ(svc.stats().degrades.load(), 1u);
  // ...quarantine_trips = 3 more quarantine.
  health.OnFailure();
  health.OnFailure();
  EXPECT_EQ(health.State(), ShardState::kDegraded);
  health.OnFailure();
  EXPECT_EQ(health.State(), ShardState::kQuarantined);
  EXPECT_EQ(svc.stats().quarantines.load(), 1u);

  // Quarantined: reads come from the snapshot (stale), writes are rejected
  // with a retry hint, unknown keys miss.
  RequestResult r = svc.Get(key);
  EXPECT_EQ(r.outcome, Outcome::kOk);
  EXPECT_EQ(r.value, 5);
  EXPECT_TRUE(r.stale);
  r = svc.Set(key, 6);
  EXPECT_EQ(r.outcome, Outcome::kRejectedQuarantine);
  EXPECT_GE(r.retry_after_ns, 1u);
  r = svc.Get(KeyForShard(svc, 2, key + 1));
  EXPECT_EQ(r.outcome, Outcome::kMiss);
  EXPECT_EQ(svc.stats().stale_reads.load(), 1u);

  // The rejected write must not have leaked into the snapshot.
  r = svc.Get(key);
  EXPECT_EQ(r.value, 5);
  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(5, &why)) << why;
}

TEST_F(ServiceTest, QuarantineRecoversThroughCooldownProbes) {
  PessimisticService svc(TestConfig());
  const uint64_t key = KeyForShard(svc, 0);
  svc.Set(key, 9);
  ShardHealth& health = svc.health(0);
  for (int i = 0; i < 4; ++i) {
    health.OnFailure();
  }
  ASSERT_EQ(health.State(), ShardState::kQuarantined);

  // Without a due probe, traffic stays on the stale path (the cooldown in
  // TestConfig is effectively infinite).
  RequestResult r = svc.Get(key);
  EXPECT_TRUE(r.stale);
  EXPECT_EQ(svc.stats().probes_admitted.load(), 0u);

  // probe_successes = 3 successful probes step down to degraded...
  for (int i = 0; i < 3; ++i) {
    health.ForceProbe();
    r = svc.Get(key);
    EXPECT_EQ(r.outcome, Outcome::kOk);
    EXPECT_FALSE(r.stale) << "an admitted probe runs the fresh path";
  }
  EXPECT_EQ(health.State(), ShardState::kDegraded);
  EXPECT_EQ(svc.stats().recoveries.load(), 1u);
  EXPECT_EQ(svc.stats().probes_admitted.load(), 3u);

  // ...and a degraded shard admits normal traffic; 3 more successes heal.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(svc.Get(key).outcome, Outcome::kOk);
  }
  EXPECT_EQ(health.State(), ShardState::kHealthy);
}

TEST_F(ServiceTest, BreakerTripEscalatesShardHealth) {
  // The runtime's own distress signal feeds the ladder: a persistent abort
  // storm on one shard's mutex trips the per-(mutex,site) breaker, whose
  // listener degrades that shard — and only that shard.
  optilib::OptiConfig& ocfg = optilib::MutableOptiConfig();
  ocfg.use_perceptron = false;
  ocfg.breaker_threshold = 2;
  ocfg.breaker_cooldown_episodes = 1u << 20;  // no re-probe mid-test

  ServiceConfig cfg = TestConfig(2);
  ElidedService svc(cfg);
  const uint64_t key = KeyForShard(svc, 0);
  svc.Set(key, 3);

  FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(Site::kCommit, 1.0, htm::AbortCode::kConflict);
  htm::fault::Arm(plan);
  for (int i = 0; i < 8; ++i) {
    RequestResult r = svc.Get(key);
    EXPECT_EQ(r.outcome, Outcome::kOk) << "fallback must keep serving";
  }
  htm::fault::Disarm();

  // The trip reached the ladder: the shard degraded. The served requests
  // after the trip (the router kept answering through the fallback lock)
  // then earn the shard back to healthy — request-level successes
  // de-escalate one rung per probe_successes, which is the intended
  // steady state once the breaker has quarantined speculation.
  EXPECT_GE(optilib::GlobalOptiStats().breaker_trips.load(), 1u);
  EXPECT_GE(svc.stats().breaker_escalations.load(), 1u);
  EXPECT_GE(svc.stats().degrades.load(), 1u);
  EXPECT_EQ(svc.health(0).State(), ShardState::kHealthy)
      << "post-storm successes must have healed the shard";
  EXPECT_EQ(svc.health(1).State(), ShardState::kHealthy)
      << "the storm was per-mutex; the other shard must not be implicated";
  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(9, &why)) << why;
}

// The acceptance scenario: kill one shard mid-run with a scoped storm while
// threaded traffic hammers the router. The router must (a) conserve every
// request, (b) quarantine the dead shard and keep serving its reads stale,
// (c) keep the survivors healthy with a bounded windowed p99, and (d)
// recover the shard through probes once the storm lifts.
TEST_F(ServiceTest, ChaosShardKillKeepsRouterServingAndRecovers) {
  constexpr int kVictim = 1;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  constexpr uint64_t kKeySpace = 256;

  ServiceConfig cfg = TestConfig();
  cfg.deadline_us = 0;       // isolate storm handling from host jitter
  cfg.queue_limit = 64;
  cfg.p99_shed_us = 0;
  cfg.hedge_us = 0;
  ElidedService svc(cfg);
  for (uint64_t k = 1; k <= kKeySpace; ++k) {
    ASSERT_EQ(svc.Set(k, static_cast<int64_t>(k)).outcome, Outcome::kOk);
  }
  svc.stats().Reset();

  FaultPlan plan;
  plan.seed = seed_;
  plan.only_shard = kVictim;
  plan.WithRule(Site::kShardStorm, 1.0, htm::AbortCode::kConflict);
  htm::fault::Arm(plan);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&svc, t] {
      SplitMix64 rng(0xc4a05'0000ULL + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key = 1 + rng.NextBelow(kKeySpace);
        if (rng.NextBool(0.2)) {
          svc.Set(key, static_cast<int64_t>(i));
        } else {
          svc.Get(key);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  htm::fault::Disarm();

  const ServiceStats& st = svc.stats();
  std::string why;
  EXPECT_TRUE(st.ConservationHolds(
      static_cast<uint64_t>(kThreads) * kOpsPerThread, &why))
      << why;
  EXPECT_GT(htm::fault::GlobalFaultStats()
                .injected_by_site[static_cast<int>(Site::kShardStorm)]
                .load(),
            0u);
  EXPECT_GE(st.shard_failures.load(), 4u);
  EXPECT_GE(st.quarantines.load(), 1u);
  EXPECT_EQ(svc.health(kVictim).State(), ShardState::kQuarantined);
  EXPECT_GT(st.stale_reads.load(), 0u)
      << "quarantined reads must fall back to the snapshot";
  EXPECT_GT(st.Count(Outcome::kRejectedQuarantine), 0u);

  // Survivors: untouched by the scoped storm, bounded tail.
  for (int s = 0; s < cfg.shards; ++s) {
    if (s == kVictim) {
      continue;
    }
    EXPECT_EQ(svc.health(s).State(), ShardState::kHealthy)
        << "survivor shard " << s;
    EXPECT_LT(svc.WindowP99(s), 100'000'000u)
        << "survivor shard " << s << " p99 unbounded";
  }

  // Storm over: probes earn the shard's way back (3 probes to degraded,
  // 3 normal successes to healthy).
  int recovery_requests = 0;
  for (int i = 0; i < 32 && svc.health(kVictim).State() != ShardState::kHealthy;
       ++i) {
    svc.health(kVictim).ForceProbe();
    svc.Get(KeyForShard(svc, kVictim));
    ++recovery_requests;
  }
  EXPECT_EQ(svc.health(kVictim).State(), ShardState::kHealthy);
  EXPECT_GE(svc.stats().recoveries.load(), 1u);
  EXPECT_LE(recovery_requests, cfg.probe_successes * 2 + 2);

  // Fully recovered: fresh reads and writes flow again.
  const uint64_t victim_key = KeyForShard(svc, kVictim);
  EXPECT_EQ(svc.Set(victim_key, 777).outcome, Outcome::kOk);
  RequestResult r = svc.Get(victim_key);
  EXPECT_EQ(r.outcome, Outcome::kOk);
  EXPECT_EQ(r.value, 777);
  EXPECT_FALSE(r.stale);
}

TEST_F(ServiceTest, ShardStallRaisesTheWindowedTail) {
  // A stalled-but-alive shard (GC pause model) must show up in the windowed
  // estimator the admission path reads — the stall happens inside the
  // critical section, where RecordLatency sees it.
  PessimisticService svc(TestConfig());
  const uint64_t key = KeyForShard(svc, 3);
  svc.Set(key, 1);
  ASSERT_EQ(svc.WindowP99(3), 0u);

  FaultPlan plan;
  plan.seed = seed_;
  plan.only_shard = 3;
  plan.WithStallAt(Site::kShardStall, 1.0, /*pauses=*/200'000);
  htm::fault::Arm(plan);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(svc.Get(key).outcome, Outcome::kOk);
  }
  htm::fault::Disarm();
  EXPECT_GT(svc.WindowP99(3), 0u);
  // A shard the plan does not name stays quiet.
  EXPECT_GT(htm::fault::GlobalFaultStats().stalls.load(), 0u);
}

}  // namespace
}  // namespace gocc::service
