#include "perfbench/probes.h"

#include <atomic>
#include <csetjmp>
#include <memory>
#include <string>
#include <vector>

#include "src/gosync/mutex.h"
#include "src/gosync/runtime.h"
#include "src/gosync/rwmutex.h"
#include "src/htm/tx.h"
#include "src/optilib/optilock.h"

namespace perfbench {
namespace {

constexpr int kReps = 5;

// Median over kReps of (elapsed ns / iterations) for `loop(iterations)`.
template <typename Loop>
double NsPerCall(uint64_t iterations, Loop&& loop) {
  loop(iterations / 8);  // warm caches and lazily created per-thread state
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    const uint64_t t0 = SteadyNs();
    loop(iterations);
    const uint64_t t1 = SteadyNs();
    reps.push_back(static_cast<double>(t1 - t0) /
                   static_cast<double>(iterations));
  }
  return Median(reps);
}

struct alignas(64) Line {
  std::atomic<uint64_t> word{0};
};

// One transaction of `footprint` loads then `footprint` stores, each on its
// own cache line. Kept out of line so the setjmp checkpoint GOCC_TX_BEGIN
// plants has no caller loop state to clobber.
__attribute__((noinline)) void FootprintTx(Line* lines, int footprint) {
  std::jmp_buf env;
  gocc::htm::BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    uint64_t sum = 0;
    for (int k = 0; k < footprint; ++k) {
      sum += gocc::htm::TxLoad(&lines[k].word);
    }
    for (int k = 0; k < footprint; ++k) {
      gocc::htm::TxStore(&lines[k].word, sum + static_cast<uint64_t>(k));
    }
    gocc::htm::TxCommit();
  }
}

double TxFootprintNs(int footprint) {
  std::unique_ptr<Line[]> lines(new Line[static_cast<size_t>(footprint)]);
  return NsPerCall(20000, [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      FootprintTx(lines.get(), footprint);
    }
  });
}

}  // namespace

void RunLayerProbes(Report* report) {
  // Elision is bypassed at GOMAXPROCS=1; probe at the workloads' setting.
  const int prev_procs = gocc::gosync::SetMaxProcs(kThreads);

  {
    gocc::gosync::Mutex mu(gocc::gosync::ElisionTracking::kEnabled);
    gocc::optilib::OptiLock ol;
    report->Add("optilib.withlock_empty_ns",
                 NsPerCall(400000,
                           [&](uint64_t n) {
                             for (uint64_t i = 0; i < n; ++i) {
                               ol.WithLock(&mu, [] {});
                             }
                           }));
  }

  for (int fp : {1, 16, 64, 256}) {
    report->Add("htm.tx_ns.fp" + std::to_string(fp), TxFootprintNs(fp));
  }

  for (bool tracked : {true, false}) {
    const auto tracking = tracked ? gocc::gosync::ElisionTracking::kEnabled
                                  : gocc::gosync::ElisionTracking::kDisabled;
    const std::string suffix = tracked ? "tracked" : "untracked";
    gocc::gosync::Mutex mu(tracking);
    report->Add("gosync.mutex_pair_ns." + suffix,
                 NsPerCall(1000000,
                           [&](uint64_t n) {
                             for (uint64_t i = 0; i < n; ++i) {
                               mu.Lock();
                               mu.Unlock();
                             }
                           }));
    gocc::gosync::RWMutex rw(tracking);
    report->Add("gosync.rwmutex_rpair_ns." + suffix,
                 NsPerCall(1000000,
                           [&](uint64_t n) {
                             for (uint64_t i = 0; i < n; ++i) {
                               rw.RLock();
                               rw.RUnlock();
                             }
                           }));
  }

  gocc::gosync::SetMaxProcs(prev_procs);
}

}  // namespace perfbench
