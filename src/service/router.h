// The sharded cache service router (DESIGN.md §4.14).
//
// CacheService<Policy> fronts N GoCache shards with the robustness layer
// declared in service.h: deadline shedding, queue-depth + windowed-p99
// admission control, snapshot hedging, and the per-shard health ladder.
// Policy is the same template the workloads use — Pessimistic routes every
// shard critical section through the raw RWMutex, Elided through optiLib —
// so bench_service can measure exactly what elision buys and costs at the
// service level, with the identical robustness envelope around both.
//
// Request anatomy (Get):
//
//   route → window advance → health gate → admission → hedge → deadline →
//   storm gate → shard critical section → latency record → accounting
//
// A quarantined shard answers reads from its replica-of-last-resort
// snapshot (lock-free, updated after each committed write, stale by
// design) and rejects writes; one request per cooldown is admitted as a
// probe, and its outcome — not wall-clock optimism — earns the shard's way
// back down the ladder.

#ifndef GOCC_SRC_SERVICE_ROUTER_H_
#define GOCC_SRC_SERVICE_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/gosync/runtime.h"
#include "src/htm/fault.h"
#include "src/service/service.h"
#include "src/support/histogram.h"
#include "src/support/rng.h"
#include "src/support/sharded.h"
#include "src/workloads/gocache.h"
#include "src/workloads/policy.h"

namespace gocc::service {

template <typename Policy>
class CacheService {
 public:
  using Cache = workloads::GoCache<Policy>;

  explicit CacheService(const ServiceConfig& cfg)
      : cfg_(cfg), start_(std::chrono::steady_clock::now()) {
    if (cfg_.shards < 1) {
      cfg_.shards = 1;
    }
    shards_.reserve(static_cast<size_t>(cfg_.shards));
    for (int i = 0; i < cfg_.shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
      shards_.back()->health.Configure(cfg_, &stats_);
    }
  }

  CacheService(const CacheService&) = delete;
  CacheService& operator=(const CacheService&) = delete;

  // `elapsed_ns` is budget already burned before the service saw the
  // request — the open-loop driver passes its queueing lag so deadlines
  // are charged from the *scheduled* arrival, not from whenever a worker
  // thread got around to starting the op.
  RequestResult Get(uint64_t key, uint64_t elapsed_ns = 0) {
    return Route(key, /*is_write=*/false, 0, elapsed_ns);
  }

  RequestResult Set(uint64_t key, int64_t value, uint64_t elapsed_ns = 0) {
    return Route(key, /*is_write=*/true, value, elapsed_ns);
  }

  int ShardFor(uint64_t key) const {
    // Scramble before sharding so Zipf-popular ranks scatter: a hot *key*
    // should storm one shard, not shard 0 by construction.
    return static_cast<int>(SplitMix64(key).Next() %
                            static_cast<uint64_t>(cfg_.shards));
  }

  int shards() const { return cfg_.shards; }
  const ServiceConfig& config() const { return cfg_; }
  ServiceStats& stats() { return stats_; }
  ShardHealth& health(int shard) {
    return shards_[static_cast<size_t>(shard)]->health;
  }
  Cache& cache(int shard) {
    return shards_[static_cast<size_t>(shard)]->cache;
  }
  // Requests counted in the shard's critical section (lock wait included).
  // Reads 0 while the depth gate is closed: depth is counted only while
  // LiveCallers() exceeds queue_limit, the only time the limit can fire.
  int32_t QueueDepth(int shard) const {
    return shards_[static_cast<size_t>(shard)]->queue_depth.load(
        std::memory_order_relaxed);
  }
  uint64_t WindowP99(int shard) {
    return shards_[static_cast<size_t>(shard)]->CachedP99();
  }

  // Test hook: feed synthetic latency samples into a shard's estimator
  // through the calling thread's slot (the admission and hedge paths read
  // the same cached p99 real traffic would update).
  void PrimeShardLatency(int shard, uint64_t ns, int count) {
    Shard& sh = *shards_[static_cast<size_t>(shard)];
    LatencySlot& slot = sh.OwnSlot();
    slot.Lock();
    support::WindowedPercentile& window = sh.WindowOf(slot);
    for (int i = 0; i < count; ++i) {
      window.Record(ns);
    }
    slot.records_since_refresh = 0;
    slot.Unlock();
    sh.RefreshP99();
  }

  // Estimator slots per shard; a thread records into slot
  // support::ThreadSlot<kLatencySlots>().
  static constexpr int kLatencySlots = 4;

  // Monotone ns since service construction.
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  // One thread's share of a shard's windowed latency estimator, on lines
  // of its own: recording a sample writes only the recording thread's slot.
  // The estimator is allocated by the first thread that records into the
  // slot, so a service pays (and page-faults) only for the slots its
  // threads use; null reads as "no samples".
  struct alignas(64) LatencySlot {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    int records_since_refresh = 0;
    std::unique_ptr<support::WindowedPercentile> window;

    void Lock() {
      while (lock.test_and_set(std::memory_order_acquire)) {
        gosync::CpuPause();
      }
    }
    void Unlock() { lock.clear(std::memory_order_release); }
  };

  // Cache-line layout: a request writes its own estimator slot and its own
  // stats slots; queue_depth (own line) only while the depth gate is open.
  // cached_p99, tick and health share read-mostly lines that a request only
  // reads; they are written when the tick moves, when a merge changes the
  // p99, or on a health transition.
  struct Shard {
    Cache cache;
    // Replica-of-last-resort: same open-addressed shape as the cache,
    // plain atomics, written after a Set commits. Readers may see the
    // previous value of a racing write — that is the contract ("stale").
    std::atomic<uint64_t> snap_keys[Cache::kSlots] = {};
    std::atomic<int64_t> snap_vals[Cache::kSlots] = {};

    // The admission signal: the p99 merged over every slot, and the window
    // tick all slots have been (or are being) advanced to.
    alignas(64) std::atomic<uint64_t> cached_p99{0};
    std::atomic<uint64_t> tick{0};
    ShardHealth health;

    alignas(64) std::atomic<int32_t> queue_depth{0};

    LatencySlot slots[kLatencySlots];

    LatencySlot& OwnSlot() {
      return slots[support::ThreadSlot<kLatencySlots>()];
    }

    // With slot.lock held. A new estimator starts at the shard's tick, so
    // the next rotation ages its samples like everyone else's.
    support::WindowedPercentile& WindowOf(LatencySlot& slot) {
      if (slot.window == nullptr) {
        slot.window = std::make_unique<support::WindowedPercentile>();
        slot.window->Advance(tick.load(std::memory_order_relaxed));
      }
      return *slot.window;
    }

    uint64_t CachedP99() const {
      return cached_p99.load(std::memory_order_relaxed);
    }

    // Merges every slot's live windows, taking one slot lock at a time, so
    // no caller ever holds two slot locks. The store is skipped when the
    // estimate has not moved, which keeps the line clean for readers.
    void RefreshP99() {
      support::LatencyHistogram merged;
      for (LatencySlot& slot : slots) {
        slot.Lock();
        if (slot.window != nullptr) {
          slot.window->MergeInto(&merged);
        }
        slot.Unlock();
      }
      const uint64_t p99 = merged.P99();
      if (cached_p99.load(std::memory_order_relaxed) != p99) {
        cached_p99.store(p99, std::memory_order_relaxed);
      }
    }

    // The thread whose CAS claims a newer tick rotates every slot to it,
    // then refreshes the merged p99. A slow claimer whose tick was
    // overtaken is harmless: WindowedPercentile::Advance ignores ticks at
    // or before the slot's own.
    void AdvanceWindow(uint64_t now_tick) {
      uint64_t seen = tick.load(std::memory_order_relaxed);
      do {
        if (now_tick <= seen) {
          return;
        }
      } while (!tick.compare_exchange_weak(seen, now_tick,
                                           std::memory_order_relaxed));
      for (LatencySlot& slot : slots) {
        slot.Lock();
        if (slot.window != nullptr) {
          slot.window->Advance(now_tick);
        }
        slot.Unlock();
      }
      RefreshP99();
    }

    void RecordLatency(uint64_t ns) {
      LatencySlot& slot = OwnSlot();
      slot.Lock();
      WindowOf(slot).Record(ns);
      // Refresh the merged estimate periodically between ticks so a storm
      // inside one window still raises the signal admission reads. The
      // merge takes every slot lock in turn, so release this one first.
      const bool refresh = ++slot.records_since_refresh >= 128;
      if (refresh) {
        slot.records_since_refresh = 0;
      }
      slot.Unlock();
      if (refresh) {
        RefreshP99();
      }
    }

    void SnapshotSet(uint64_t key, int64_t value) {
      size_t ix = static_cast<size_t>(key) & (Cache::kSlots - 1);
      for (size_t n = 0; n < Cache::kSlots; ++n) {
        uint64_t k = snap_keys[ix].load(std::memory_order_acquire);
        if (k == key) {
          snap_vals[ix].store(value, std::memory_order_relaxed);
          return;
        }
        if (k == 0) {
          // Claim the slot first; a racing claimer retries the probe.
          uint64_t expected = 0;
          if (snap_keys[ix].compare_exchange_strong(
                  expected, key, std::memory_order_acq_rel)) {
            snap_vals[ix].store(value, std::memory_order_relaxed);
            return;
          }
          if (expected == key) {
            snap_vals[ix].store(value, std::memory_order_relaxed);
            return;
          }
        }
        ix = (ix + 1) & (Cache::kSlots - 1);
      }
      // Snapshot full: drop. Last-resort replicas prefer stale to blocking.
    }

    bool SnapshotGet(uint64_t key, int64_t* value_out) {
      size_t ix = static_cast<size_t>(key) & (Cache::kSlots - 1);
      for (size_t n = 0; n < Cache::kSlots; ++n) {
        uint64_t k = snap_keys[ix].load(std::memory_order_acquire);
        if (k == key) {
          *value_out = snap_vals[ix].load(std::memory_order_relaxed);
          return true;
        }
        if (k == 0) {
          return false;
        }
        ix = (ix + 1) & (Cache::kSlots - 1);
      }
      return false;
    }
  };

  // Restores the injector's shard context on every exit path.
  struct ShardContextScope {
    explicit ShardContextScope(int shard) {
      htm::fault::SetShardContext(shard);
    }
    ~ShardContextScope() { htm::fault::SetShardContext(-1); }
  };

  RequestResult Route(uint64_t key, bool is_write, int64_t value_in,
                      uint64_t elapsed_ns) {
    RequestResult res;
    const uint64_t start = NowNs();
    // Depth gate: every other request in a shard runs on another live
    // caller, so while LiveCallers() <= queue_limit the depth check cannot
    // fire and the request skips queue_depth entirely. `>` because the
    // depth a request reads does not include itself.
    const bool count_depth =
        NoteCaller() > cfg_.queue_limit && cfg_.queue_limit != 0;
    const uint64_t deadline =
        cfg_.deadline_us == 0
            ? ~uint64_t{0}
            : (elapsed_ns >= cfg_.deadline_us * 1000
                   ? start  // budget already gone before we saw it
                   : start + cfg_.deadline_us * 1000 - elapsed_ns);
    const int shard_index = ShardFor(key);
    Shard& sh = *shards_[static_cast<size_t>(shard_index)];
    ShardContextScope ctx(shard_index);

    sh.AdvanceWindow(start / (cfg_.window_tick_us * 1000));

    // Health gate.
    bool probe = false;
    if (sh.health.State() == ShardState::kQuarantined) {
      if (sh.health.TryClaimProbe()) {
        probe = true;
        stats_.probes_admitted.fetch_add(1);
      } else if (is_write) {
        stats_.Bump(Outcome::kRejectedQuarantine);
        res.outcome = Outcome::kRejectedQuarantine;
        res.retry_after_ns = RetryAfterJitterNs(cfg_);
        return res;
      } else {
        // Stale read: the snapshot answers without touching the sick shard.
        res.stale = true;
        if (sh.SnapshotGet(key, &res.value)) {
          res.outcome = Outcome::kOk;
          stats_.Bump(Outcome::kOk);
          stats_.stale_reads.fetch_add(1);
        } else {
          res.outcome = Outcome::kMiss;
          stats_.Bump(Outcome::kMiss);
        }
        return res;
      }
    }

    const uint64_t p99 = sh.CachedP99();

    // Admission control (probes bypass: they exist to test the shard).
    if (!probe) {
      const bool queue_full =
          count_depth && sh.queue_depth.load(std::memory_order_relaxed) >=
                             static_cast<int32_t>(cfg_.queue_limit);
      const bool p99_breach =
          cfg_.p99_shed_us != 0 && p99 > cfg_.p99_shed_us * 1000;
      if (queue_full || p99_breach) {
        stats_.Bump(Outcome::kShedOverload);
        res.outcome = Outcome::kShedOverload;
        res.retry_after_ns = RetryAfterJitterNs(cfg_);
        return res;
      }
    }

    // Hedge (bounded: at most one per request, reads only). Fires when the
    // windowed p99 says the primary will be slow; the snapshot answers in
    // nanoseconds, so the hedge response is "first". It wins outright when
    // the remaining budget cannot absorb the estimated primary latency —
    // otherwise the primary still runs and the slower answer is dropped.
    bool hedge_hit = false;
    int64_t hedge_val = 0;
    if (!is_write && !probe && cfg_.hedge_us != 0 &&
        p99 > cfg_.hedge_us * 1000) {
      res.hedged = true;
      stats_.hedges_fired.fetch_add(1);
      hedge_hit = sh.SnapshotGet(key, &hedge_val);
      if (hedge_hit && deadline != ~uint64_t{0} && NowNs() + p99 > deadline) {
        stats_.hedges_won.fetch_add(1);
        stats_.stale_reads.fetch_add(1);
        stats_.Bump(Outcome::kOk);
        res.outcome = Outcome::kOk;
        res.value = hedge_val;
        res.stale = true;
        return res;
      }
    }

    // Deadline, checked at the lock boundary: the budget (including
    // upstream lag) must still be open or the critical section is wasted
    // work for a response nobody reads.
    if (NowNs() >= deadline) {
      stats_.Bump(Outcome::kShedDeadline);
      stats_.deadline_in_shard.fetch_add(1);
      res.outcome = Outcome::kShedDeadline;
      return res;
    }

    // Storm gate: chaos models the shard's backing store failing the
    // request before its critical section runs.
    if (htm::fault::MaybeInject(htm::fault::Site::kShardStorm) !=
        htm::AbortCode::kNone) {
      sh.health.OnFailure();
      if (hedge_hit) {
        // The hedge already has an answer; the primary's death is invisible
        // to the caller (that is the point of hedging).
        stats_.hedges_won.fetch_add(1);
        stats_.stale_reads.fetch_add(1);
        stats_.Bump(Outcome::kOk);
        res.outcome = Outcome::kOk;
        res.value = hedge_val;
        res.stale = true;
        return res;
      }
      stats_.Bump(Outcome::kFailed);
      res.outcome = Outcome::kFailed;
      return res;
    }

    // Primary: the shard critical section. The decrement is keyed on the
    // same local bool, so every increment is matched even if the gate
    // closes in between.
    if (count_depth) {
      sh.queue_depth.fetch_add(1, std::memory_order_relaxed);
    }
    bool hit = false;
    int64_t value_out = 0;
    if (is_write) {
      sh.cache.Set(key, value_in, Cache::kNoExpiration);
      hit = true;
    } else {
      hit = sh.cache.Get(key, static_cast<int64_t>(start), &value_out);
    }
    if (count_depth) {
      sh.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    }
    sh.RecordLatency(NowNs() - start);
    sh.health.OnSuccess();

    if (is_write) {
      // Publish to the replica after the critical section: the snapshot is
      // allowed to lag, never to block.
      sh.SnapshotSet(key, value_in);
      stats_.Bump(Outcome::kOk);
      res.outcome = Outcome::kOk;
      res.value = value_in;
      return res;
    }
    if (hit) {
      if (hedge_hit) {
        stats_.hedge_duplicates.fetch_add(1);
      }
      stats_.Bump(Outcome::kOk);
      res.outcome = Outcome::kOk;
      res.value = value_out;
      return res;
    }
    if (hedge_hit) {
      // Fresh lookup missed (expired/evicted) but the last-resort replica
      // still remembers: the hedge answer wins.
      stats_.hedges_won.fetch_add(1);
      stats_.stale_reads.fetch_add(1);
      stats_.Bump(Outcome::kOk);
      res.outcome = Outcome::kOk;
      res.value = hedge_val;
      res.stale = true;
      return res;
    }
    stats_.Bump(Outcome::kMiss);
    res.outcome = Outcome::kMiss;
    return res;
  }

  ServiceConfig cfg_;
  std::chrono::steady_clock::time_point start_;
  ServiceStats stats_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace gocc::service

#endif  // GOCC_SRC_SERVICE_ROUTER_H_
