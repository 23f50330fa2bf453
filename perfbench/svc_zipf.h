// svc-zipf: the sharded cache service over 16 elided go-cache shards,
// 2048 keys, Zipf(theta=0.99) popularity and 5 % writes.
//
// Two phases: an open-loop Poisson phase through gopool::RunOpenLoop at
// one fixed rate well below the knee gives latency, timed from each
// request's scheduled arrival; a closed-loop phase with kThreads clients
// gives throughput.
//
// Why: the only workload that runs open-loop arrival, admission, deadline
// shedding, hedging and the shard health ladder. Its episodes are
// single-lock, read-mostly and mostly read-only commits; it never enters a
// multi-lock episode.
//
// Oracle: ServiceStats::ConservationHolds over every request sent
// (preload included); no preloaded key may ever miss; every value read
// decodes to the key it was read under.

#ifndef GOCC_PERFBENCH_SVC_ZIPF_H_
#define GOCC_PERFBENCH_SVC_ZIPF_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/loops.h"
#include "perfbench/trace.h"
#include "src/gopool/gopool.h"
#include "src/obs/recorder.h"
#include "src/obs/ticks.h"
#include "src/service/router.h"
#include "src/service/service.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "src/support/zipf.h"

namespace perfbench {

// Open-loop arrival rate (requests/s, all workers together), well below
// the knee: 3 closed-loop clients complete ~2.5 M req/s.
inline constexpr double kSvcOpenLoopRate = 150000.0;

// Request budget and p99 shed threshold. The shipped defaults (2 ms and
// 1 ms) shed requests whenever the host deschedules a worker for a few
// milliseconds: on a shared 4-vCPU VM, 150 k req/s lost 1e-6 to 1e-3 of
// its requests that way, a count that differed from run to run with the
// host, not the program. At 1 s only a stall no healthy run has reaches
// them; both checks still run on every request, and a shed still counts
// as a failed request.
inline constexpr uint64_t kSvcDeadlineUs = 1000000;
inline constexpr uint64_t kSvcP99ShedUs = 1000000;

// Arrivals scheduled in the last 1/kSvcCoolDownDiv of an open-loop window
// are cool-down: they run but are not measured. gopool stops its workers
// at the window edge, so an arrival scheduled just before the edge is left
// unstarted when the previous op is still in flight; the cool-down keeps
// such arrivals out of the measured part.
inline constexpr int kSvcCoolDownDiv = 10;

// Point-in-time copy of the ServiceStats fields the traced run reports.
struct ServiceCounts {
  uint64_t outcomes[gocc::service::kNumOutcomes] = {};
  uint64_t stale_reads = 0;
  uint64_t hedges_fired = 0;
  uint64_t hedges_won = 0;
  uint64_t quarantines = 0;

  static ServiceCounts Take(const gocc::service::ServiceStats& st) {
    ServiceCounts c;
    for (int i = 0; i < gocc::service::kNumOutcomes; ++i) {
      c.outcomes[i] = st.Count(static_cast<gocc::service::Outcome>(i));
    }
    c.stale_reads = st.stale_reads.load();
    c.hedges_fired = st.hedges_fired.load();
    c.hedges_won = st.hedges_won.load();
    c.quarantines = st.quarantines.load();
    return c;
  }
  uint64_t Count(gocc::service::Outcome o) const {
    return outcomes[static_cast<int>(o)];
  }
  uint64_t Total() const {
    uint64_t n = 0;
    for (uint64_t v : outcomes) n += v;
    return n;
  }
  ServiceCounts operator-(const ServiceCounts& b) const {
    ServiceCounts d;
    for (int i = 0; i < gocc::service::kNumOutcomes; ++i) {
      d.outcomes[i] = outcomes[i] - b.outcomes[i];
    }
    d.stale_reads = stale_reads - b.stale_reads;
    d.hedges_fired = hedges_fired - b.hedges_fired;
    d.hedges_won = hedges_won - b.hedges_won;
    d.quarantines = quarantines - b.quarantines;
    return d;
  }
};

// Outcomes that count as failures (and as misses of any latency limit).
inline bool IsFailure(gocc::service::Outcome o) {
  using gocc::service::Outcome;
  return o == Outcome::kShedDeadline || o == Outcome::kShedOverload ||
         o == Outcome::kRejectedQuarantine || o == Outcome::kFailed;
}

// `offered` and `completed` are gopool's counts over whole windows. The
// measured requests are those scheduled before each window's cool-down;
// each is either completed (ok or failed) or unstarted, and unstarted ones
// count as failed too.
struct OpenLoopStats {
  std::vector<double> window_p50_ns;  // end to end: lag + service time
  uint64_t offered = 0;
  uint64_t completed = 0;
  uint64_t measured = 0;
  uint64_t unstarted = 0;
  uint64_t failed = 0;  // failed measured outcomes + unstarted
  uint64_t samples = 0;
  LogHistogram latency;  // end to end, measured requests, all windows
  LogHistogram lag;   // traced runs: scheduled arrival -> call start
  LogHistogram call;  // traced runs: inside CacheService::Get/Set
};

template <typename Policy>
class SvcZipf {
 public:
  static constexpr int kShards = 16;
  static constexpr uint64_t kKeys = 2048;
  static constexpr double kTheta = 0.99;
  static constexpr double kWriteFrac = 0.05;
  enum Op : int { kGet, kSet };

  static const std::vector<std::string>& OpNames() {
    static const std::vector<std::string> kNames = {"get", "set"};
    return kNames;
  }

  struct alignas(64) Worker {
    Worker(uint64_t seed, uint64_t scramble_mul, uint64_t scramble_add)
        : zipf(kKeys, kTheta, seed),
          rng(seed ^ 0x7277ULL),
          mul(scramble_mul),
          add(scramble_add) {}
    gocc::support::ZipfianGenerator zipf;
    gocc::SplitMix64 rng;
    uint64_t mul;
    uint64_t add;
    uint64_t key = 0;
    uint64_t seq = 0;
    uint64_t sent = 0;
    uint64_t misses = 0;
    uint64_t bad_values = 0;
  };

  explicit SvcZipf(uint64_t seed) {
    gocc::service::ServiceConfig cfg = gocc::service::DefaultConfig();
    cfg.shards = kShards;
    cfg.deadline_us = kSvcDeadlineUs;
    cfg.p99_shed_us = kSvcP99ShedUs;
    svc_ = std::make_unique<gocc::service::CacheService<Policy>>(cfg);
    // The service may shed a preload Set like any other request (deadline
    // passed during a host stall, or a shard's windowed p99 over the shed
    // threshold); retry it, or the key would be missing for the whole run.
    for (uint64_t k = 1; k <= kKeys; ++k) {
      do {
        ++preload_sent_;
      } while (svc_->Set(k, Encode(k, 0)).outcome !=
               gocc::service::Outcome::kOk);
    }
    gocc::SplitMix64 mix(seed ^ 0x73766373ULL);
    mul_ = mix.Next() | 1;
    add_ = mix.Next();
  }

  Worker MakeWorker(uint64_t seed, int) const { return Worker(seed, mul_, add_); }

  // The seed also picks which keys are hot (rank -> key bijection).
  int NextOp(Worker& w) {
    w.key = 1 + (w.zipf.Next() * w.mul + w.add) % kKeys;
    return w.rng.NextBool(kWriteFrac) ? kSet : kGet;
  }

  bool RunOp(Worker& w, int op) { return RunOp(w, op, 0); }

  // `elapsed_ns` is budget already burned before the call (open-loop lag).
  bool RunOp(Worker& w, int op, uint64_t elapsed_ns) {
    ++w.sent;
    const gocc::service::RequestResult r =
        op == kSet ? svc_->Set(w.key, Encode(w.key, ++w.seq), elapsed_ns)
                   : svc_->Get(w.key, elapsed_ns);
    if (r.outcome == gocc::service::Outcome::kMiss) {
      ++w.misses;
    } else if (r.outcome == gocc::service::Outcome::kOk &&
               static_cast<uint64_t>(r.value) >> 32 != w.key) {
      ++w.bad_values;
    }
    return !IsFailure(r.outcome);
  }

  bool Check(const std::vector<std::unique_ptr<Worker>>& workers,
             std::string* why) {
    uint64_t sent = preload_sent_;
    uint64_t misses = 0;
    uint64_t bad = 0;
    for (const auto& w : workers) {
      sent += w->sent;
      misses += w->misses;
      bad += w->bad_values;
    }
    std::string detail;
    if (!svc_->stats().ConservationHolds(sent, &detail)) {
      *why = std::string("svc-zipf ") + PolicyName() +
             ": conservation violated: " + detail;
      return false;
    }
    if (misses != 0 || bad != 0) {
      *why = gocc::StrFormat(
          "svc-zipf %s: %llu misses on preloaded keys, %llu wrong values",
          PolicyName(), static_cast<unsigned long long>(misses),
          static_cast<unsigned long long>(bad));
      return false;
    }
    return true;
  }

  gocc::service::ServiceStats& stats() { return svc_->stats(); }

  static const char* PolicyName() { return Policy::kElided ? "gocc" : "lock"; }

  // Open-loop phase: `windows` windows of `window` at kSvcOpenLoopRate.
  // With `trace`, each request records request / arrival_lag /
  // service_call spans and the call runs under its (worker, op) obs site.
  OpenLoopStats RunOpenLoop(std::vector<std::unique_ptr<Worker>>& workers,
                            int windows, std::chrono::nanoseconds window,
                            uint64_t seed, TraceState* trace) {
    struct alignas(64) Local {
      LogHistogram hist;
      LogHistogram lag;
      LogHistogram call;
      uint64_t completed = 0;  // measured, this window
      uint64_t failed = 0;
      uint64_t next_request = 0;
      bool reached_cool_down = false;  // this window
    };
    const uint64_t cool_down_ns = static_cast<uint64_t>(
        window.count() - window.count() / kSvcCoolDownDiv);
    std::vector<std::unique_ptr<Local>> locals;
    for (int i = 0; i < kThreads; ++i) {
      locals.push_back(std::make_unique<Local>());
      locals.back()->next_request = (static_cast<uint64_t>(i) + 1) << 40;
    }
    auto body = [&](const gocc::gopool::OpenLoopOp& arrival) {
      Worker& w = *workers[static_cast<size_t>(arrival.thread)];
      Local& local = *locals[static_cast<size_t>(arrival.thread)];
      const int op = NextOp(w);
      bool ok;
      uint64_t service_ns;
      if (trace == nullptr) {
        const uint64_t t0 = SteadyNs();
        ok = RunOp(w, op, arrival.lag_ns);
        service_ns = SteadyNs() - t0;
      } else {
        gocc::obs::ScopedSite site(trace->sites.Site(arrival.thread, op));
        const uint64_t t0 = gocc::obs::NowTicks();
        ok = RunOp(w, op, arrival.lag_ns);
        const uint64_t t1 = gocc::obs::NowTicks();
        const uint64_t arrived =
            t0 - static_cast<uint64_t>(static_cast<double>(arrival.lag_ns) *
                                       trace->ticks_per_ns);
        const uint64_t id = local.next_request++;
        SpanRing& ring = *trace->rings[static_cast<size_t>(arrival.thread)];
        const auto op16 = static_cast<uint16_t>(op);
        ring.Add({arrived, t0, id, SpanKind::kArrivalLag, op16});
        ring.Add({t0, t1, id, SpanKind::kServiceCall, op16});
        ring.Add({arrived, t1, id, SpanKind::kRequest, op16});
        service_ns = trace->TicksToNs(t1 - t0);
        local.lag.Record(arrival.lag_ns);
        local.call.Record(service_ns);
      }
      if (arrival.scheduled_ns >= cool_down_ns) {
        local.reached_cool_down = true;
        return;
      }
      if (ok) {
        local.hist.Record(arrival.lag_ns + service_ns);
      } else {
        local.hist.RecordInfinite();
        ++local.failed;
      }
      ++local.completed;
    };

    OpenLoopStats stats;
    for (int i = 0; i < windows; ++i) {
      const gocc::gopool::OpenLoopResult r = gocc::gopool::RunOpenLoop(
          kThreads, window, kSvcOpenLoopRate,
          DeriveSeed(seed, 0x6f6c, static_cast<uint64_t>(i)), body);
      LogHistogram merged;
      bool all_reached_cool_down = true;
      for (auto& local : locals) {
        merged.Merge(local->hist);
        local->hist.Reset();
        all_reached_cool_down &= local->reached_cool_down;
        local->reached_cool_down = false;
        stats.measured += local->completed;
        stats.failed += local->failed;
        local->completed = 0;
        local->failed = 0;
      }
      // Each worker starts its arrivals in schedule order, so one that
      // started a cool-down arrival left none of the measured ones
      // unstarted. A worker that never got that far (stalled through the
      // cool-down) may have: then every unstarted arrival of the window
      // counts, as a failed request and a miss of every latency limit.
      const uint64_t unstarted =
          all_reached_cool_down ? 0 : r.offered - r.completed;
      merged.RecordInfinite(unstarted);
      stats.unstarted += unstarted;
      stats.measured += unstarted;
      stats.failed += unstarted;
      stats.window_p50_ns.push_back(merged.Quantile(0.50));
      stats.latency.Merge(merged);
      stats.offered += r.offered;
      stats.completed += r.completed;
      stats.samples += merged.Count();
    }
    for (auto& local : locals) {
      stats.lag.Merge(local->lag);
      stats.call.Merge(local->call);
    }
    return stats;
  }

 private:
  static int64_t Encode(uint64_t key, uint64_t seq) {
    return static_cast<int64_t>((key << 32) | (seq & 0xffffffffULL));
  }

  std::unique_ptr<gocc::service::CacheService<Policy>> svc_;
  uint64_t preload_sent_ = 0;  // preload Sets, retries included
  uint64_t mul_ = 1;
  uint64_t add_ = 0;
};

}  // namespace perfbench

#endif  // GOCC_PERFBENCH_SVC_ZIPF_H_
