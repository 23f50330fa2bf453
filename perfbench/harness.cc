#include "perfbench/harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "src/htm/config.h"
#include "src/htm/stats.h"
#include "src/optilib/optilock.h"
#include "src/support/strings.h"

extern char** environ;

namespace perfbench {

using gocc::StrFormat;

bool ParseOptions(int argc, char** argv, Options* out, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      out->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(value, &end, 0);
    } else if (flag == "--seconds") {
      out->seconds = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--trace") {
      out->trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--trace-out") {
      out->trace_out = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (!have_workload) {
    *error = "--workload is required";
    return false;
  }
  if (out->seconds < 1 || out->seconds > 600) {
    *error = "--seconds must be in [1, 600]";
    return false;
  }
  return true;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int LogHistogram::Index(uint64_t v) {
  if (v < kSub) {
    return static_cast<int>(v);
  }
  const int e = 63 - __builtin_clzll(v);
  const int sub = static_cast<int>((v >> (e - kSubBits)) & (kSub - 1));
  return (e - kSubBits + 1) * kSub + sub;
}

double LogHistogram::BinWidth(int index) {
  return index < kSub ? 1.0 : std::ldexp(1.0, index / kSub - 1);
}

double LogHistogram::BinLow(int index) {
  return index < kSub ? static_cast<double>(index)
                      : (kSub + index % kSub) * BinWidth(index);
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (int i = 0; i < kBins; ++i) {
    counts_[static_cast<size_t>(i)] += other.counts_[static_cast<size_t>(i)];
  }
  infinite_ += other.infinite_;
  total_ += other.total_;
}

void LogHistogram::Reset() {
  counts_.fill(0);
  infinite_ = 0;
  total_ = 0;
}

double LogHistogram::Quantile(double q) const {
  if (total_ == 0) {
    return 0.0;
  }
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(total_)));
  rank = std::clamp<uint64_t>(rank, 1, total_);
  uint64_t seen = 0;
  for (int i = 0; i < kBins; ++i) {
    const uint64_t count = counts_[static_cast<size_t>(i)];
    if (seen + count >= rank) {
      const double within = (static_cast<double>(rank - seen) - 0.5) /
                            static_cast<double>(count);
      return BinLow(i) + within * BinWidth(i);
    }
    seen += count;
  }
  return std::numeric_limits<double>::infinity();
}

void ClosedLoopWindows(
    int windows, std::chrono::nanoseconds window,
    const std::function<void(int slot, gocc::gopool::PB& pb)>& body,
    const std::function<void(int index, const gocc::gopool::BenchResult&)>&
        after_window) {
  for (int w = 0; w < windows; ++w) {
    std::atomic<int> next_slot{0};
    const gocc::gopool::BenchResult r =
        gocc::gopool::RunParallel(kThreads, window, [&](gocc::gopool::PB& pb) {
          body(next_slot.fetch_add(1, std::memory_order_relaxed), pb);
        });
    after_window(w, r);
  }
}

RuntimeCounters RuntimeCounters::Take() {
  const auto& os = gocc::optilib::GlobalOptiStats();
  const auto& ts = gocc::htm::GlobalTxStats();
  RuntimeCounters c;
  c.fast_commits = os.fast_commits.load();
  c.nested_fast_commits = os.nested_fast_commits.load();
  c.slow_acquires = os.slow_acquires.load();
  c.htm_attempts = os.htm_attempts.load();
  c.perceptron_slow = os.perceptron_slow_decisions.load();
  c.site_cache_hits = os.site_cache_hits.load();
  c.backoff_pauses = os.backoff_pauses.load();
  c.breaker_trips = os.breaker_trips.load();
  c.watchdog_trips = os.watchdog_trips.load();
  c.multilock_episodes = os.multilock_episodes.load();
  c.multilock_fast_commits = os.multilock_fast_commits.load();
  c.multilock_slow_acquires = os.multilock_slow_acquires.load();
  c.tx_begins = ts.begins.load();
  c.tx_commits = ts.commits.load();
  c.tx_read_only_commits = ts.read_only_commits.load();
  for (int i = 0; i < gocc::htm::kNumAbortCodes; ++i) {
    c.tx_aborts[i] = ts.Aborts(static_cast<gocc::htm::AbortCode>(i));
  }
  return c;
}

RuntimeCounters RuntimeCounters::operator-(const RuntimeCounters& b) const {
  RuntimeCounters d;
  d.fast_commits = fast_commits - b.fast_commits;
  d.nested_fast_commits = nested_fast_commits - b.nested_fast_commits;
  d.slow_acquires = slow_acquires - b.slow_acquires;
  d.htm_attempts = htm_attempts - b.htm_attempts;
  d.perceptron_slow = perceptron_slow - b.perceptron_slow;
  d.site_cache_hits = site_cache_hits - b.site_cache_hits;
  d.backoff_pauses = backoff_pauses - b.backoff_pauses;
  d.breaker_trips = breaker_trips - b.breaker_trips;
  d.watchdog_trips = watchdog_trips - b.watchdog_trips;
  d.multilock_episodes = multilock_episodes - b.multilock_episodes;
  d.multilock_fast_commits = multilock_fast_commits - b.multilock_fast_commits;
  d.multilock_slow_acquires =
      multilock_slow_acquires - b.multilock_slow_acquires;
  d.tx_begins = tx_begins - b.tx_begins;
  d.tx_commits = tx_commits - b.tx_commits;
  d.tx_read_only_commits = tx_read_only_commits - b.tx_read_only_commits;
  for (int i = 0; i < gocc::htm::kNumAbortCodes; ++i) {
    d.tx_aborts[i] = tx_aborts[i] - b.tx_aborts[i];
  }
  return d;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string Report::ResultLine(bool correct, uint64_t attempted,
                               uint64_t failed) const {
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, v] = metrics_[i];
    // %.17g keeps every digit; a non-finite value cannot be written as
    // JSON and would be a harness bug, so it is spelled null (run.py
    // rejects the result).
    const std::string value = std::isfinite(v) ? StrFormat("%.17g", v) : "null";
    out += StrFormat("%s\"%s\": %s", i == 0 ? "" : ", ", name.c_str(),
                     value.c_str());
  }
  out += "}}";
  return out;
}

double LoadAverage1m() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::vector<std::string> GoccEnvironment() {
  std::vector<std::string> knobs;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    if (std::strncmp(*env, "GOCC_", 5) == 0) {
      knobs.emplace_back(*env);
    }
  }
  std::sort(knobs.begin(), knobs.end());
  return knobs;
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

std::string JsonString(const std::string& in) {
  std::string out = "\"";
  for (char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool RunComparable() {
  return OptimizedBuild() && GoccEnvironment().empty();
}

}  // namespace

std::string StampJson(const Options& opts, double load_start,
                      double load_end) {
  std::string knobs = "[";
  const std::vector<std::string> env = GoccEnvironment();
  for (size_t i = 0; i < env.size(); ++i) {
    knobs += (i == 0 ? "" : ", ") + JsonString(env[i]);
  }
  knobs += "]";
  return StrFormat(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %d, \"trace\": %d, "
      "\"backend\": \"%s\", \"build_type\": %s, \"optimized\": %s, "
      "\"nproc\": %ld, \"threads\": %d, \"loadavg_1m_start\": %.2f, "
      "\"loadavg_1m_end\": %.2f, \"gocc_env\": %s, \"comparable\": %s}",
      JsonString(opts.workload).c_str(),
      static_cast<unsigned long long>(opts.seed), opts.seconds,
      opts.trace ? 1 : 0,
      gocc::htm::BackendName(gocc::htm::ActiveBackend()),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      OptimizedBuild() ? "true" : "false", sysconf(_SC_NPROCESSORS_ONLN),
      kThreads, load_start, load_end, knobs.c_str(),
      RunComparable() ? "true" : "false");
}

}  // namespace perfbench
