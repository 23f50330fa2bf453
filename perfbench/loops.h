// Closed-loop measurement loops shared by the three workloads.
//
// A workload is a class template over the lock policy
// (workloads::Elided for the measured runs, workloads::Pessimistic for the
// lock reference) with this shape:
//
//   explicit W(uint64_t seed);               // set-up: build + preload
//   static const std::vector<std::string>& OpNames();
//   struct Worker;                           // per-thread streams, counts
//   Worker MakeWorker(uint64_t seed, int slot) const;
//   int NextOp(Worker&);                     // draw the next input
//   bool RunOp(Worker&, int op);             // run it; false = failed op
//   bool Check(const std::vector<std::unique_ptr<Worker>>&,
//              std::string* why);            // oracle, at quiescence
//
// NextOp is kept apart from RunOp so input generation is never timed.

#ifndef GOCC_PERFBENCH_LOOPS_H_
#define GOCC_PERFBENCH_LOOPS_H_

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/trace.h"
#include "src/obs/recorder.h"
#include "src/obs/ticks.h"

namespace perfbench {

// 1 in kSampleEvery closed-loop operations is timed for the latency
// percentiles; timing every one would add two clock reads to ops that
// take a few hundred ns.
inline constexpr uint64_t kSampleEvery = 8;

template <typename W>
using Workers = std::vector<std::unique_ptr<typename W::Worker>>;

template <typename W>
Workers<W> MakeWorkers(const W& wl, uint64_t seed) {
  Workers<W> workers;
  for (int slot = 0; slot < kThreads; ++slot) {
    workers.push_back(std::make_unique<typename W::Worker>(
        wl.MakeWorker(DeriveSeed(seed, 0x776b, static_cast<uint64_t>(slot)),
                      slot)));
  }
  return workers;
}

// Builds the workload cold `reps` times and returns each build's seconds.
// Every build runs in a forked child that starts from the same pre-set-up
// process state, so each one pays the same first-touch page faults and
// one-time initialisation. Repeated in-process builds instead drift
// between allocator regimes (fresh mmap, reused heap) at a rep that varies
// run to run, which made their median jump by up to 5x. Must be called
// before the process starts any thread.
template <typename W>
std::vector<double> ColdSetupSeconds(uint64_t seed, int reps) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    int fds[2];
    if (pipe(fds) != 0) {
      break;
    }
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      const uint64_t t0 = SteadyNs();
      W* wl = new W(seed);  // never freed: the child exits right away
      static_cast<void>(wl);
      const double s = static_cast<double>(SteadyNs() - t0) * 1e-9;
      _exit(write(fds[1], &s, sizeof(s)) == sizeof(s) ? 0 : 1);
    }
    close(fds[1]);
    double s = 0.0;
    const bool got = pid > 0 && read(fds[0], &s, sizeof(s)) == sizeof(s);
    close(fds[0]);
    int status = 0;
    if (pid > 0) {
      waitpid(pid, &status, 0);
    }
    if (got && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      seconds.push_back(s);
    }
  }
  return seconds;
}

struct LoopStats {
  std::vector<double> window_ops_s;  // successful ops per second, per window
  std::vector<double> window_p50_ns;  // untraced loops only
  uint64_t ops = 0;  // attempted
  uint64_t failed = 0;
  uint64_t samples = 0;  // untraced: timed ops (latency percentiles)
};

// State of a traced phase: harness span rings, per-(worker, op) latency
// histograms of the timed calls, and the obs site table.
struct TraceState {
  TraceState(const std::string& workload,
             const std::vector<std::string>& op_names)
      : sites(workload, kThreads, op_names),
        ticks_per_ns(gocc::obs::TicksPerMicrosecond() / 1000.0) {
    for (int i = 0; i < kThreads; ++i) {
      rings.push_back(std::make_unique<SpanRing>());
      op_hists.emplace_back(op_names.size());
    }
  }

  // Clears spans, histograms and the episode recorder's rings before a
  // traced phase.
  void Begin() {
    for (auto& ring : rings) {
      ring->Clear();
    }
    for (auto& hists : op_hists) {
      for (auto& h : hists) {
        h.Reset();
      }
    }
    gocc::obs::DiscardTrace();
  }

  std::vector<std::vector<Span>> Spans() const {
    std::vector<std::vector<Span>> out;
    for (const auto& ring : rings) {
      out.push_back(ring->Snapshot());
    }
    return out;
  }

  // Pooled histogram of one op across workers.
  LogHistogram OpHistogram(int op) const {
    LogHistogram merged;
    for (const auto& hists : op_hists) {
      merged.Merge(hists[static_cast<size_t>(op)]);
    }
    return merged;
  }

  uint64_t TicksToNs(uint64_t ticks) const {
    return static_cast<uint64_t>(static_cast<double>(ticks) / ticks_per_ns);
  }

  SiteTable sites;
  double ticks_per_ns;
  std::vector<std::unique_ptr<SpanRing>> rings;
  std::vector<std::vector<LogHistogram>> op_hists;
};

// Closed loop: `windows` windows of `window`, kThreads workers. Untraced
// (`trace` null), 1 op in kSampleEvery is timed for the window p50s. With
// `trace`, every op runs under its (worker, op) obs site and is recorded
// as a workload_op span and in its op histogram.
template <typename W>
LoopStats RunClosedLoop(W& wl, Workers<W>& workers, int windows,
                        std::chrono::nanoseconds window,
                        TraceState* trace = nullptr) {
  struct alignas(64) Local {
    LogHistogram hist;
    uint64_t ops = 0;
    uint64_t failed = 0;
  };
  std::vector<std::unique_ptr<Local>> locals;
  for (int i = 0; i < kThreads; ++i) {
    locals.push_back(std::make_unique<Local>());
  }
  LoopStats stats;
  uint64_t request_base = 1;
  ClosedLoopWindows(
      windows, window,
      [&](int slot, gocc::gopool::PB& pb) {
        typename W::Worker& w = *workers[static_cast<size_t>(slot)];
        Local& local = *locals[static_cast<size_t>(slot)];
        uint64_t n = 0;
        if (trace == nullptr) {
          while (pb.Next()) {
            const int op = wl.NextOp(w);
            if (++n % kSampleEvery == 0) {
              const uint64_t t0 = SteadyNs();
              const bool ok = wl.RunOp(w, op);
              const uint64_t t1 = SteadyNs();
              if (ok) {
                local.hist.Record(t1 - t0);
              } else {
                local.hist.RecordInfinite();
                ++local.failed;
              }
            } else if (!wl.RunOp(w, op)) {
              ++local.failed;
            }
          }
        } else {
          SpanRing& ring = *trace->rings[static_cast<size_t>(slot)];
          auto& hists = trace->op_hists[static_cast<size_t>(slot)];
          uint64_t request =
              request_base + (static_cast<uint64_t>(slot) << 40);
          while (pb.Next()) {
            const int op = wl.NextOp(w);
            gocc::obs::ScopedSite site(trace->sites.Site(slot, op));
            const uint64_t t0 = gocc::obs::NowTicks();
            const bool ok = wl.RunOp(w, op);
            const uint64_t t1 = gocc::obs::NowTicks();
            ring.Add({t0, t1, request++, SpanKind::kWorkloadOp,
                      static_cast<uint16_t>(op)});
            hists[static_cast<size_t>(op)].Record(trace->TicksToNs(t1 - t0));
            ++n;
            local.failed += ok ? 0 : 1;
          }
        }
        local.ops += n;
      },
      [&](int, const gocc::gopool::BenchResult& r) {
        LogHistogram merged;
        uint64_t ops = 0;
        uint64_t failed = 0;
        for (auto& local : locals) {
          merged.Merge(local->hist);
          ops += local->ops;
          failed += local->failed;
          local->hist.Reset();
          local->ops = 0;
          local->failed = 0;
        }
        request_base += ops + 1;
        stats.window_ops_s.push_back(
            Ratio(static_cast<double>(ops - failed), r.wall_seconds));
        stats.window_p50_ns.push_back(merged.Quantile(0.50));
        stats.ops += ops;
        stats.failed += failed;
        stats.samples += merged.Count();
      });
  return stats;
}

}  // namespace perfbench

#endif  // GOCC_PERFBENCH_LOOPS_H_
