// Shared machinery of the repository benchmark: command line, run stamp,
// fine-grained latency histograms, windowed closed-loop runs,
// runtime-counter deltas and the result line.
//
// The benchmark drives the shipped runtime only through public APIs
// (gopool, service, workloads, optilib, htm, gosync, obs) and measures it
// from outside: it times calls into each layer and differences the layers'
// public counters. Nothing here reaches into a layer's internals.

#ifndef GOCC_PERFBENCH_HARNESS_H_
#define GOCC_PERFBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/gopool/gopool.h"
#include "src/htm/abort.h"
#include "src/support/rng.h"

namespace perfbench {

// One process, at most this many load threads: one of the host's four
// hardware threads stays free for the harness thread and the OS.
inline constexpr int kThreads = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace destination (traced runs only)
};

// Parses `--workload W --seed N --seconds S --trace 0|1 [--trace-out F]`.
bool ParseOptions(int argc, char** argv, Options* out, std::string* error);

// Independent deterministic stream for (run seed, purpose, index).
inline uint64_t DeriveSeed(uint64_t seed, uint64_t purpose, uint64_t index) {
  gocc::SplitMix64 mix(seed ^ (purpose * 0x9e3779b97f4a7c15ULL) ^
                       (index * 0xc2b2ae3d27d4eb4fULL));
  mix.Next();
  return mix.Next();
}

inline uint64_t SteadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Median(std::vector<double> values);

// Log-linear latency histogram over nanoseconds: exact below 128 ns, then
// 128 sub-buckets per power of two, so no bin is wider than 1/128 (0.79 %)
// of its lower edge. Fixed size — recording never allocates, so peak RSS
// does not grow with the number of operations. Failed operations are
// recorded as +infinity: they miss every latency limit.
class LogHistogram {
 public:
  void Record(uint64_t ns) { ++counts_[Index(ns)]; ++total_; }
  void RecordInfinite(uint64_t n = 1) { infinite_ += n; total_ += n; }
  void Merge(const LogHistogram& other);
  void Reset();

  uint64_t Count() const { return total_; }
  // Value (ns) at quantile q in [0,1]: the ceil(q*N)-th sample, placed
  // inside its bin by its rank among the bin's samples (one sample sits at
  // the midpoint), so a quantile moves with the samples, not in bin steps.
  // +infinity when that sample is a failure; 0 when empty.
  double Quantile(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBins = (64 - kSubBits + 1) * kSub;

  static int Index(uint64_t v);
  static double BinLow(int index);
  static double BinWidth(int index);

  std::array<uint64_t, kBins> counts_{};
  uint64_t infinite_ = 0;
  uint64_t total_ = 0;
};

// Closed-loop windows through gopool::RunParallel. `body(slot, pb)` runs
// on each of kThreads workers; `slot` in [0, kThreads) is stable for the
// window so per-worker state (RNG streams, histograms) can be indexed by
// it. `after_window(i, result)` runs on the calling thread between windows.
void ClosedLoopWindows(
    int windows, std::chrono::nanoseconds window,
    const std::function<void(int slot, gocc::gopool::PB& pb)>& body,
    const std::function<void(int index, const gocc::gopool::BenchResult&)>&
        after_window);

// Public runtime counters (OptiStats, TxStats) sampled at one instant;
// differences of two samples are the per-layer counts of an interval.
struct RuntimeCounters {
  uint64_t fast_commits = 0;
  uint64_t nested_fast_commits = 0;
  uint64_t slow_acquires = 0;
  uint64_t htm_attempts = 0;
  uint64_t perceptron_slow = 0;
  uint64_t site_cache_hits = 0;
  uint64_t backoff_pauses = 0;
  uint64_t breaker_trips = 0;
  uint64_t watchdog_trips = 0;
  uint64_t multilock_episodes = 0;
  uint64_t multilock_fast_commits = 0;
  uint64_t multilock_slow_acquires = 0;
  uint64_t tx_begins = 0;
  uint64_t tx_commits = 0;
  uint64_t tx_read_only_commits = 0;
  uint64_t tx_aborts[gocc::htm::kNumAbortCodes] = {};

  static RuntimeCounters Take();
  RuntimeCounters operator-(const RuntimeCounters& base) const;
  uint64_t Episodes() const {
    return fast_commits + nested_fast_commits + slow_acquires;
  }
};

double Ratio(double num, double den);

// The metrics a run measured, in the order it produced them. Units and
// report order come from BENCHMARK.json: run.py attaches them.
class Report {
 public:
  void Add(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }
  // The result object the run ends with (one line of JSON).
  std::string ResultLine(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, double>> metrics_;
};

// Host and build facts every run is stamped with.
double LoadAverage1m();
double PeakRssMb();
// The stamp marks a run with a GOCC_* knob set, or from an unoptimized
// build, as not comparable.
std::string StampJson(const Options& opts, double load_start,
                      double load_end);

}  // namespace perfbench

#endif  // GOCC_PERFBENCH_HARNESS_H_
