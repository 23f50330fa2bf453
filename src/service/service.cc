#include "src/service/service.h"

#include "src/support/rng.h"
#include "src/support/strings.h"

namespace gocc::service {

// Deterministic per-thread jitter streams, keyed by the thread's ordinal
// (support::ThreadOrdinal, handed out in first-use order; the same
// compromise the fault injector documents: cross-thread interleaving is
// scheduler-dependent, each thread's stream is exact).
uint64_t RetryAfterJitterNs(const ServiceConfig& cfg) {
  thread_local SplitMix64 rng(
      cfg.seed ^ SplitMix64(uint64_t{support::ThreadOrdinal()} + 1).Next());
  const uint64_t base = cfg.retry_after_us * 1000;
  return base + rng.NextBelow(base == 0 ? 1 : base);
}

namespace internal {
namespace {
struct CallerGuard {
  CallerGuard() {
    g_live_callers.value.fetch_add(1, std::memory_order_relaxed);
  }
  ~CallerGuard() {
    g_live_callers.value.fetch_sub(1, std::memory_order_relaxed);
  }
  CallerGuard(const CallerGuard&) = delete;
  CallerGuard& operator=(const CallerGuard&) = delete;
};
}  // namespace

void RegisterCaller() { thread_local CallerGuard guard; }
}  // namespace internal

const ServiceConfig& DefaultConfig() {
  static const ServiceConfig defaults;
  return defaults;
}

const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kMiss:
      return "miss";
    case Outcome::kShedDeadline:
      return "shed_deadline";
    case Outcome::kShedOverload:
      return "shed_overload";
    case Outcome::kRejectedQuarantine:
      return "rejected_quarantine";
    case Outcome::kFailed:
      return "failed";
  }
  return "unknown";
}

const char* ShardStateName(ShardState s) {
  switch (s) {
    case ShardState::kHealthy:
      return "healthy";
    case ShardState::kDegraded:
      return "degraded";
    case ShardState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

uint64_t ServiceStats::TotalOutcomes() const {
  uint64_t total = 0;
  for (const auto& o : outcomes) {
    total += o.load();
  }
  return total;
}

bool ServiceStats::ConservationHolds(uint64_t issued, std::string* why) const {
  const uint64_t total = TotalOutcomes();
  if (total != issued) {
    if (why != nullptr) {
      *why = StrFormat(
          "outcome sum %llu != issued %llu (%s)",
          static_cast<unsigned long long>(total),
          static_cast<unsigned long long>(issued), ToString().c_str());
    }
    return false;
  }
  const uint64_t ok = Count(Outcome::kOk);
  const uint64_t stale = stale_reads.load();
  if (stale > ok) {
    if (why != nullptr) {
      *why = StrFormat("stale_reads %llu > ok %llu",
                                static_cast<unsigned long long>(stale),
                                static_cast<unsigned long long>(ok));
    }
    return false;
  }
  const uint64_t fired = hedges_fired.load();
  const uint64_t won = hedges_won.load();
  const uint64_t dup = hedge_duplicates.load();
  if (won + dup > fired) {
    if (why != nullptr) {
      *why = StrFormat(
          "hedges won %llu + duplicates %llu > fired %llu",
          static_cast<unsigned long long>(won),
          static_cast<unsigned long long>(dup),
          static_cast<unsigned long long>(fired));
    }
    return false;
  }
  return true;
}

void ServiceStats::Reset() {
  for (auto& o : outcomes) {
    o.Reset();
  }
  for (support::SlotCounter* c :
       {&stale_reads, &hedges_fired, &hedges_won, &hedge_duplicates,
        &deadline_in_shard, &degrades, &quarantines, &recoveries,
        &probes_admitted, &shard_failures}) {
    c->Reset();
  }
}

std::string ServiceStats::ToString() const {
  auto n = [](const support::SlotCounter& c) {
    return static_cast<unsigned long long>(c.load());
  };
  std::string out = "svc{";
  for (int i = 0; i < kNumOutcomes; ++i) {
    out += StrFormat("%s%s=%llu", i == 0 ? "" : " ",
                     OutcomeName(static_cast<Outcome>(i)), n(outcomes[i]));
  }
  out += StrFormat(" stale=%llu hedges{fired=%llu won=%llu dup=%llu}",
                   n(stale_reads), n(hedges_fired), n(hedges_won),
                   n(hedge_duplicates));
  out += StrFormat(
      " health{degrades=%llu quarantines=%llu recoveries=%llu probes=%llu "
      "failures=%llu}}",
      n(degrades), n(quarantines), n(recoveries), n(probes_admitted),
      n(shard_failures));
  return out;
}

// Escalation with mu_ held: one more unit of pressure at the current rung.
void ShardHealth::Escalate(std::unique_lock<std::mutex>& held) {
  (void)held;
  successes_ = 0;
  ++failures_;
  const ShardState state = State();
  if (state == ShardState::kHealthy && failures_ >= kDegradeFailures) {
    state_.store(static_cast<int>(ShardState::kDegraded),
                 std::memory_order_relaxed);
    failures_ = 0;
    if (stats_ != nullptr) {
      stats_->degrades.fetch_add(1);
    }
  } else if (state == ShardState::kDegraded &&
             failures_ >= kQuarantineFailures) {
    state_.store(static_cast<int>(ShardState::kQuarantined),
                 std::memory_order_relaxed);
    failures_ = 0;
    // The first probe waits out a full cooldown; without the Defer a
    // quarantine would re-probe on the very next request and the ladder
    // would flap instead of backing off.
    probe_gate_.Defer();
    if (stats_ != nullptr) {
      stats_->quarantines.fetch_add(1);
    }
  }
  // Already quarantined: stay there; the probe gate owns recovery.
}

void ShardHealth::OnFailure() {
  std::unique_lock<std::mutex> lock(mu_);
  if (stats_ != nullptr) {
    stats_->shard_failures.fetch_add(1);
  }
  Escalate(lock);
}

void ShardHealth::OnSuccess() {
  // Healthy fast path: don't take the mutex for the common case.
  if (State() == ShardState::kHealthy) {
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  const ShardState state = State();
  if (state == ShardState::kHealthy) {
    return;
  }
  failures_ = 0;
  if (++successes_ < kRecoverySuccesses) {
    return;
  }
  successes_ = 0;
  if (state == ShardState::kQuarantined) {
    state_.store(static_cast<int>(ShardState::kDegraded),
                 std::memory_order_relaxed);
    if (stats_ != nullptr) {
      stats_->recoveries.fetch_add(1);
    }
  } else {
    state_.store(static_cast<int>(ShardState::kHealthy),
                 std::memory_order_relaxed);
  }
}

void ShardHealth::Reset() {
  std::unique_lock<std::mutex> lock(mu_);
  state_.store(static_cast<int>(ShardState::kHealthy),
               std::memory_order_relaxed);
  failures_ = 0;
  successes_ = 0;
  probe_gate_.ForceNext();
}

}  // namespace gocc::service
