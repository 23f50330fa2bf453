// perfbench: the repository benchmark binary (run it through run.py, which
// builds it first).
//
//   perfbench --workload svc-zipf|ycsb-txn|pkg-mix --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics (never
// gated). Every run is stamped, checks its workload's oracle, and ends
// with one JSON result line; an oracle violation exits 1.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/layers.h"
#include "perfbench/loops.h"
#include "perfbench/pkg_mix.h"
#include "perfbench/probes.h"
#include "perfbench/svc_zipf.h"
#include "perfbench/trace.h"
#include "perfbench/ycsb_txn.h"
#include "src/htm/config.h"
#include "src/obs/recorder.h"
#include "src/optilib/optilock.h"
#include "src/support/strings.h"
#include "src/workloads/policy.h"

namespace perfbench {
namespace {

using gocc::StrFormat;
using gocc::workloads::Elided;
using gocc::workloads::Pessimistic;

constexpr int kSetupReps = 9;
// Episode-recorder ring per worker in traced runs: enough to cover the
// newest spans the harness keeps (SpanRing::kSpanRing).
constexpr size_t kEpisodeRing = size_t{1} << 15;
// Newest slice of the traced phase written to the Chrome trace.
constexpr double kChromeWindowUs = 2000.0;

struct RunOutcome {
  bool correct = true;
  std::string why;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string info;  // extra JSON members for the run's info line
};

template <typename W>
constexpr bool kHasOpenLoop = requires(W& w, Workers<W>& ws) {
  w.RunOpenLoop(ws, 1, std::chrono::nanoseconds(1), uint64_t{0},
                static_cast<TraceState*>(nullptr));
};

std::string JsonArray(const std::vector<double>& values, double scale) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += StrFormat("%s%.6g", i == 0 ? "" : ", ", values[i] * scale);
  }
  return out + "]";
}

template <typename W>
void CheckOracle(W& wl, const Workers<W>& workers, RunOutcome* out) {
  std::string why;
  if (!wl.Check(workers, &why)) {
    out->correct = false;
    out->why += (out->why.empty() ? "" : "; ") + why;
  }
}

// End-to-end run (tracing off).
template <template <typename> class WT>
RunOutcome MeasureEndToEnd(const Options& opts, Report* report) {
  using Gocc = WT<Elided>;
  RunOutcome out;
  const int windows = std::max(4, opts.seconds);
  const std::chrono::nanoseconds window(
      static_cast<int64_t>(opts.seconds * 1e9 / windows));

  const std::vector<double> setup_reps =
      ColdSetupSeconds<Gocc>(opts.seed, kSetupReps);
  std::unique_ptr<Gocc> wl = std::make_unique<Gocc>(opts.seed);
  Workers<Gocc> workers = MakeWorkers(*wl, opts.seed);

  // Warm-up: fill caches, train the perceptron and site caches.
  if constexpr (kHasOpenLoop<Gocc>) {
    wl->RunOpenLoop(workers, 1, window / 2, DeriveSeed(opts.seed, 0x7761, 0),
                    nullptr);
  }
  RunClosedLoop(*wl, workers, 1, window / 2);

  std::vector<double> window_p50_ns;
  uint64_t samples = 0;
  LoopStats closed;
  if constexpr (kHasOpenLoop<Gocc>) {
    const ServiceCounts before = ServiceCounts::Take(wl->stats());
    const int open_windows = windows / 2;
    const OpenLoopStats open =
        wl->RunOpenLoop(workers, open_windows, window,
                        DeriveSeed(opts.seed, 0x6f70, 0), nullptr);
    closed = RunClosedLoop(*wl, workers, windows - open_windows, window);
    const ServiceCounts d = ServiceCounts::Take(wl->stats()) - before;
    window_p50_ns = open.window_p50_ns;
    samples = open.samples;
    out.attempted = open.measured + closed.ops;
    out.failed = open.failed + closed.failed;
    using gocc::service::Outcome;
    out.info = StrFormat(
        ", \"open_loop_rate\": %.0f, \"offered\": %llu, \"completed\": %llu, "
        "\"measured\": %llu, \"unstarted\": %llu, "
        "\"shed_deadline\": %llu, \"shed_overload\": %llu, "
        "\"rejected_quarantine\": %llu, \"failed_outcome\": %llu",
        kSvcOpenLoopRate, static_cast<unsigned long long>(open.offered),
        static_cast<unsigned long long>(open.completed),
        static_cast<unsigned long long>(open.measured),
        static_cast<unsigned long long>(open.unstarted),
        static_cast<unsigned long long>(d.Count(Outcome::kShedDeadline)),
        static_cast<unsigned long long>(d.Count(Outcome::kShedOverload)),
        static_cast<unsigned long long>(d.Count(Outcome::kRejectedQuarantine)),
        static_cast<unsigned long long>(d.Count(Outcome::kFailed)));
  } else {
    closed = RunClosedLoop(*wl, workers, windows, window);
    window_p50_ns = closed.window_p50_ns;
    samples = closed.samples;
    out.attempted = closed.ops;
    out.failed = closed.failed;
  }
  out.info += StrFormat(
      ", \"latency_samples\": %llu, \"window_ops_s\": %s, "
      "\"window_p50_us\": %s, \"setup_s\": %s",
      static_cast<unsigned long long>(samples),
      JsonArray(closed.window_ops_s, 1.0).c_str(),
      JsonArray(window_p50_ns, 1e-3).c_str(),
      JsonArray(setup_reps, 1.0).c_str());

  CheckOracle(*wl, workers, &out);
  report->Add("throughput_ops_s", Median(closed.window_ops_s));
  report->Add("setup_s", Median(setup_reps));
  report->Add("peak_rss_mb", PeakRssMb());
  return out;
}

// Traced run: untraced and traced closed-loop phases (tracing overhead),
// the svc-zipf open-loop phase traced, the lock reference, layer probes.
template <template <typename> class WT>
RunOutcome MeasureLayers(const Options& opts, Report* report) {
  using Gocc = WT<Elided>;
  using Lock = WT<Pessimistic>;
  constexpr bool kOpenLoop = kHasOpenLoop<Gocc>;
  RunOutcome out;
  const int windows = std::max(4, opts.seconds);
  const std::chrono::nanoseconds window(
      static_cast<int64_t>(opts.seconds * 1e9 / windows));
  const int per_phase = std::max(1, windows / (kOpenLoop ? 5 : 4));

  std::unique_ptr<Gocc> wl = std::make_unique<Gocc>(opts.seed);
  Workers<Gocc> workers = MakeWorkers(*wl, opts.seed);
  TraceState trace(opts.workload, Gocc::OpNames());
  if constexpr (kOpenLoop) {
    wl->RunOpenLoop(workers, 1, window / 2, DeriveSeed(opts.seed, 0x7761, 0),
                    nullptr);
  }
  RunClosedLoop(*wl, workers, 1, window / 2);

  const LoopStats untraced = RunClosedLoop(*wl, workers, per_phase, window);

  gocc::obs::SetTraceRingCapacityForNewThreads(kEpisodeRing);
  gocc::optilib::MutableOptiConfig().trace_episodes = true;
  trace.Begin();
  const RuntimeCounters base = RuntimeCounters::Take();
  const LoopStats traced =
      RunClosedLoop(*wl, workers, per_phase, window, &trace);
  uint64_t ops = traced.ops;
  uint64_t attempted = untraced.ops + traced.ops;
  uint64_t failed = untraced.failed + traced.failed;
  SpanKind parent_kind = SpanKind::kWorkloadOp;
  LogHistogram latency;  // end to end, for p50_us and p99_us
  if constexpr (kOpenLoop) {
    trace.Begin();  // keep the open-loop phase's spans and episodes
    const ServiceCounts before = ServiceCounts::Take(wl->stats());
    const OpenLoopStats open = wl->RunOpenLoop(
        workers, per_phase, window, DeriveSeed(opts.seed, 0x7472, 0), &trace);
    const ServiceCounts d = ServiceCounts::Take(wl->stats()) - before;
    ops += open.completed;
    attempted += open.measured;
    failed += open.failed;
    parent_kind = SpanKind::kServiceCall;
    latency = open.latency;
    using gocc::service::Outcome;
    const double sent = static_cast<double>(d.Total());
    report->Add("gopool.lag_p50_us", open.lag.Quantile(0.50) / 1000.0);
    report->Add("gopool.lag_p99_us", open.lag.Quantile(0.99) / 1000.0);
    report->Add("gopool.backlog_frac",
                Ratio(static_cast<double>(open.offered - open.completed),
                      static_cast<double>(open.offered)));
    report->Add("service.call_p50_us", open.call.Quantile(0.50) / 1000.0);
    report->Add("service.call_p99_us", open.call.Quantile(0.99) / 1000.0);
    report->Add("service.shed_frac",
                Ratio(static_cast<double>(d.Count(Outcome::kShedDeadline) +
                                          d.Count(Outcome::kShedOverload)),
                      sent));
    report->Add("service.rejected_frac",
                Ratio(static_cast<double>(d.Count(Outcome::kRejectedQuarantine)),
                      sent));
    report->Add("service.failed_frac",
                Ratio(static_cast<double>(d.Count(Outcome::kFailed)), sent));
    report->Add("service.hedge_frac",
                Ratio(static_cast<double>(d.hedges_fired), sent));
    report->Add("service.hedge_win_frac",
                Ratio(static_cast<double>(d.hedges_won),
                      static_cast<double>(d.hedges_fired)));
    report->Add("service.stale_read_frac",
                Ratio(static_cast<double>(d.stale_reads), sent));
    report->Add("service.quarantines", static_cast<double>(d.quarantines));
  } else {
    const std::vector<std::string>& names = Gocc::OpNames();
    for (size_t op = 0; op < names.size(); ++op) {
      const std::string metric =
          opts.workload == "ycsb-txn" ? "workloads.ycsb." + names[op] + "_p50_ns"
                                      : "workloads." + names[op] + ".p50_ns";
      const LogHistogram hist = trace.OpHistogram(static_cast<int>(op));
      report->Add(metric, hist.Quantile(0.5));
      latency.Merge(hist);
    }
  }
  // A percentile whose sample is a failed request reads as the window
  // length, an upper bound on any latency the run could see.
  const auto latency_us = [&](double q) {
    const double ns = latency.Quantile(q);
    return (std::isfinite(ns) ? ns : static_cast<double>(window.count())) /
           1000.0;
  };
  report->Add("p50_us", latency_us(0.50));
  report->Add("p99_us", latency_us(0.99));
  SetRuntimeLayerMetrics(RuntimeCounters::Take() - base, ops, report);
  gocc::optilib::MutableOptiConfig().trace_episodes = false;

  gocc::obs::DrainStats drain;
  const std::vector<gocc::obs::Event> events = gocc::obs::DrainTrace(&drain);
  SetEpisodeLatencyMetrics(events, trace.ticks_per_ns, report);
  const std::vector<std::vector<Span>> spans = trace.Spans();
  const JoinStats join =
      JoinEpisodes(spans, events, trace.sites, parent_kind, trace.ticks_per_ns);
  if constexpr (kOpenLoop) {
    report->Add("service.self_p50_us", Median(join.self_ns) / 1000.0);
  }
  const double untraced_ops_s = Median(untraced.window_ops_s);
  report->Add("obs.trace_overhead_frac",
              1.0 - Ratio(Median(traced.window_ops_s), untraced_ops_s));
  bool trace_written = false;
  if (!opts.trace_out.empty()) {
    trace_written = WriteChromeTrace(opts.trace_out, spans, events,
                                     Gocc::OpNames(), kChromeWindowUs);
  }

  // Lock reference: the same seeded inputs on the original locks.
  std::unique_ptr<Lock> lock_wl = std::make_unique<Lock>(opts.seed);
  Workers<Lock> lock_workers = MakeWorkers(*lock_wl, opts.seed);
  RunClosedLoop(*lock_wl, lock_workers, 1, window / 2);
  const LoopStats lock = RunClosedLoop(*lock_wl, lock_workers, per_phase, window);
  const double lock_ops_s = Median(lock.window_ops_s);
  report->Add("workloads.lock_ref_ops_s", lock_ops_s);
  report->Add("workloads.speedup_vs_lock", Ratio(untraced_ops_s, lock_ops_s));

  RunLayerProbes(report);
  report->Add("fail_frac", Ratio(static_cast<double>(failed),
                                 static_cast<double>(attempted)));

  CheckOracle(*wl, workers, &out);
  CheckOracle(*lock_wl, lock_workers, &out);
  out.attempted = attempted;
  out.failed = failed;

  out.info += StrFormat(
      ", \"latency_samples\": %llu, \"episodes_drained\": %llu, "
      "\"episodes_dropped\": %llu, "
      "\"episodes_joined\": %llu, \"self_time_spans\": %zu, "
      "\"chrome_trace\": \"%s\"",
      static_cast<unsigned long long>(latency.Count()),
      static_cast<unsigned long long>(drain.drained),
      static_cast<unsigned long long>(drain.dropped),
      static_cast<unsigned long long>(join.joined), join.self_ns.size(),
      trace_written ? opts.trace_out.c_str() : "");
  return out;
}

template <template <typename> class WT>
RunOutcome Run(const Options& opts, Report* report) {
  return opts.trace ? MeasureLayers<WT>(opts, report)
                    : MeasureEndToEnd<WT>(opts, report);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  std::string error;
  if (!ParseOptions(argc, argv, &opts, &error)) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "svc-zipf|ycsb-txn|pkg-mix --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n",
                 error.c_str());
    return 2;
  }
  // What an application does at start-up: use RTM when the CPU has it,
  // else the resolved software backend (SimTM by default).
  gocc::htm::EnableRtmIfSupported();

  const double load_start = LoadAverage1m();
  Report report;
  RunOutcome out;
  if (opts.workload == "svc-zipf") {
    out = Run<SvcZipf>(opts, &report);
  } else if (opts.workload == "ycsb-txn") {
    out = Run<YcsbTxn>(opts, &report);
  } else if (opts.workload == "pkg-mix") {
    out = Run<PkgMix>(opts, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 opts.workload.c_str());
    return 2;
  }
  const double load_end = LoadAverage1m();

  std::printf("perfbench.stamp %s\n",
              StampJson(opts, load_start, load_end).c_str());
  std::printf("perfbench.info {\"workload\": \"%s\"%s}\n",
              opts.workload.c_str(), out.info.c_str());
  if (!out.correct) {
    std::printf("perfbench.oracle_violation %s\n", out.why.c_str());
  }
  std::printf("%s\n",
              report.ResultLine(out.correct, out.attempted, out.failed).c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
