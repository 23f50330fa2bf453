// Overload-resilient sharded cache service: config, outcome accounting, and
// the per-shard health ladder (DESIGN.md §4.14).
//
// This is the tier ROADMAP item 3 asks for: the existing cache workloads
// composed the way production would run them — a front router over N
// elided-lock shards, driven open-loop — wrapped in the robustness layer
// that keeps tail latency bounded when optimism stops paying:
//
//   * deadlines  — every request carries a budget; one that has already
//     blown it is shed *before* the shard lock (shed_deadline), so overload
//     never spends critical-section time on answers nobody is waiting for.
//   * admission  — per-shard queue depth and a windowed p99 estimate gate
//     entry; shed requests get a jittered retry-after hint so a thundering
//     herd decorrelates instead of re-arriving in phase.
//   * hedging    — reads facing a slow shard fire a bounded hedge against
//     the shard's replica-of-last-resort snapshot; first answer wins, the
//     duplicate is suppressed and counted.
//   * health     — each shard walks healthy → degraded → quarantined,
//     escalated from the runtime's own distress signals (the per-(mutex,
//     site) breaker trips via optilib::SetBreakerTripListener, plus
//     request-level failures). A quarantined shard serves stale reads,
//     rejects writes, and re-admits one probe per cooldown through the
//     same support::Reprobe gate the RTM health probe uses.
//
// The templated router lives in router.h; this header is the policy-free
// core so tests and the DES mirror can reason about the ladder without
// instantiating a cache.

#ifndef GOCC_SRC_SERVICE_SERVICE_H_
#define GOCC_SRC_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "src/support/reprobe.h"
#include "src/support/sharded.h"

namespace gocc::service {

// All knobs read their default from GOCC_SVC_* once per process (see
// DefaultConfig in service.cc); tests and benches override fields directly.
struct ServiceConfig {
  // Shard count the router builds (power of two keeps ShardFor a mask).
  int shards = 8;

  // Per-request budget; 0 disables deadline shedding.
  uint64_t deadline_us = 2000;

  // Admission: shed when a shard's in-flight count reaches the limit
  // (0 disables) ...
  uint32_t queue_limit = 64;
  // ... or when its windowed p99 exceeds this (0 disables).
  uint64_t p99_shed_us = 1000;

  // Base retry-after hint attached to shed responses; the actual hint is
  // jittered in [base, 2*base) per request.
  uint64_t retry_after_us = 200;

  // Reads hedge against the stale snapshot when the shard's windowed p99
  // exceeds this (0 disables hedging).
  uint64_t hedge_us = 500;

  // Length of one estimator window tick; the estimator aggregates the last
  // support::WindowedPercentile::kWindows ticks.
  uint64_t window_tick_us = 5000;

  // Health ladder: breaker trips / request failures before healthy shards
  // degrade, further ones before degraded shards quarantine, and the
  // consecutive successes needed to step back down one rung.
  int degrade_trips = 1;
  int quarantine_trips = 3;
  int probe_successes = 3;

  // Quarantine cooldown between re-probes (the service-level analogue of
  // GOCC_REPROBE_MS, configured separately because operators treat it as
  // an SLO parameter).
  uint64_t quarantine_cooldown_ms = 25;

  // Seed for per-thread retry-after jitter streams.
  uint64_t seed = 0x5345525649434531ULL;
};

// Process defaults with every GOCC_SVC_* override applied (latched once).
const ServiceConfig& DefaultConfig();

// Terminal outcome of one request — every request lands in exactly one.
enum class Outcome : int {
  kOk = 0,                  // served; value present (possibly stale)
  kMiss = 1,                // served; key absent
  kShedDeadline = 2,        // budget blown before the shard lock
  kShedOverload = 3,        // admission control turned it away
  kRejectedQuarantine = 4,  // write at a quarantined shard
  kFailed = 5,              // shard failure (chaos storm) with no hedge net
};
inline constexpr int kNumOutcomes = 6;

const char* OutcomeName(Outcome o);

struct RequestResult {
  Outcome outcome = Outcome::kFailed;
  int64_t value = 0;
  // Nonzero only for kShedOverload: the jittered "come back in" hint.
  uint64_t retry_after_ns = 0;
  // The answer came from the replica-of-last-resort snapshot.
  bool stale = false;
  // A hedge fired for this request (regardless of which answer won).
  bool hedged = false;
};

// Service-level counters. Outcome slots form a conservation identity the
// chaos tests assert: sum(outcomes) == requests issued, no matter what the
// injector does. The rest are diagnostic (subsets, not partitions).
//
// Every request bumps one outcome, so each counter is striped per thread
// (support::SlotCounter): a request writes only its own thread's slot,
// never a line every worker shares. Reads sum the slots.
struct ServiceStats {
  support::SlotCounter outcomes[kNumOutcomes];
  support::SlotCounter stale_reads;        // subset of kOk
  support::SlotCounter hedges_fired;
  support::SlotCounter hedges_won;         // hedge answer was returned
  support::SlotCounter hedge_duplicates;   // primary won; hedge dropped
  support::SlotCounter deadline_in_shard;  // shed at the pre-lock check
  support::SlotCounter degrades;
  support::SlotCounter quarantines;
  support::SlotCounter recoveries;         // quarantined → degraded
  support::SlotCounter probes_admitted;
  support::SlotCounter breaker_escalations;
  support::SlotCounter shard_failures;     // injected/storm failures

  void Bump(Outcome o) { outcomes[static_cast<int>(o)].fetch_add(1); }
  uint64_t Count(Outcome o) const {
    return outcomes[static_cast<int>(o)].load();
  }
  uint64_t TotalOutcomes() const;
  // Verifies the conservation identity and the subset inequalities;
  // explains the first violation in *why.
  bool ConservationHolds(uint64_t issued, std::string* why) const;
  // Zeroes every slot of every counter; exact at writer quiescence.
  void Reset();
  std::string ToString() const;
};

enum class ShardState : int {
  kHealthy = 0,
  kDegraded = 1,
  kQuarantined = 2,
};

const char* ShardStateName(ShardState s);

// The per-shard ladder. Escalations come from two feeds: the runtime's
// breaker (a trip on the shard's mutex is the strongest signal that
// speculation on this shard collapsed) and request-level failures (chaos
// storms, which model the backing store dying). De-escalation is earned:
// consecutive successes step down one rung at a time, and a quarantined
// shard only gets traffic again through rate-limited probes.
//
// Transitions are serialized by a private mutex — they are cold by
// definition (a hot transition path would mean the service is flapping) —
// while State() stays a relaxed atomic load for the per-request fast path.
class ShardHealth {
 public:
  void Configure(const ServiceConfig& cfg, ServiceStats* stats) {
    cfg_ = &cfg;
    stats_ = stats;
    probe_gate_.Reinit(cfg.quarantine_cooldown_ms);
  }

  ShardState State() const {
    return static_cast<ShardState>(state_.load(std::memory_order_relaxed));
  }

  // Breaker trip on this shard's mutex (listener thread).
  void OnBreakerTrip();
  // Request against this shard failed outright (storm injection).
  void OnFailure();
  // Request served successfully (fresh path).
  void OnSuccess();

  // Quarantined only: claims the per-cooldown probe slot. The winning
  // request is routed through the fresh path; its outcome feeds
  // OnSuccess/OnFailure like any other.
  bool TryClaimProbe() {
    if (State() != ShardState::kQuarantined) {
      return false;
    }
    return probe_gate_.Due();
  }

  // Test hook: make the next probe immediately available.
  void ForceProbe() { probe_gate_.ForceNext(); }

  void Reset();

 private:
  void Escalate(std::unique_lock<std::mutex>& held);

  const ServiceConfig* cfg_ = nullptr;
  ServiceStats* stats_ = nullptr;
  std::atomic<int> state_{static_cast<int>(ShardState::kHealthy)};
  std::mutex mu_;
  int trips_ = 0;      // escalation pressure at the current rung
  int successes_ = 0;  // consecutive successes toward de-escalation
  support::Reprobe probe_gate_{1};
};

// Jittered retry-after hint in [base, 2*base) ns, base from
// cfg.retry_after_us; deterministic per-thread streams seeded from
// cfg.seed. The jitter is the thundering-herd defence: shed clients that
// all retry exactly retry_after later just re-create the spike they were
// shed to dissolve.
uint64_t RetryAfterJitterNs(const ServiceConfig& cfg);

// --- live callers (service.cc) ---
//
// Route runs on the calling thread, so a shard can never have more requests
// in flight than there are live threads calling the service. The router
// uses that bound to count a shard's depth only while queue_limit can be
// reached (DESIGN.md §4.14, admission step 4).

namespace internal {
// On a line of its own: every request reads it, so no write to a neighbour
// may invalidate it.
struct alignas(64) LiveCallerCount {
  std::atomic<uint32_t> value{0};
};
inline constinit LiveCallerCount g_live_callers;
// Cold path of NoteCaller: arms a thread-exit guard that holds one unit of
// g_live_callers for the calling thread's lifetime.
void RegisterCaller();
}  // namespace internal

// Threads that have called a service and not yet exited.
inline uint32_t LiveCallers() {
  return internal::g_live_callers.value.load(std::memory_order_relaxed);
}

// Counts the calling thread as a live caller from its first request until
// it exits (one relaxed RMW each way per thread lifetime, none per
// request), then returns LiveCallers().
inline uint32_t NoteCaller() {
  // Constant-initialized: the per-request check has no TLS init guard.
  thread_local bool registered = false;
  if (!registered) [[unlikely]] {
    registered = true;
    internal::RegisterCaller();
  }
  return LiveCallers();
}

// --- breaker escalation bridge (service.cc) ---
//
// The router registers each shard's mutex here; a single process-wide
// optilib breaker-trip listener resolves the tripped mutex back to its
// ShardHealth. Registration installs the listener on first use; the bridge
// survives multiple concurrent services (addresses are unique).
void RegisterShardMutex(const void* mutex, ShardHealth* health,
                        ServiceStats* stats);
void UnregisterShardMutex(const void* mutex);

}  // namespace gocc::service

#endif  // GOCC_SRC_SERVICE_SERVICE_H_
