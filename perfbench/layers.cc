#include "perfbench/layers.h"

#include <string>
#include <utility>

namespace perfbench {

void SetRuntimeLayerMetrics(const RuntimeCounters& d, uint64_t ops,
                            Report* report) {
  using gocc::htm::AbortCode;
  const double episodes = static_cast<double>(d.Episodes());
  const double begins = static_cast<double>(d.tx_begins);
  report->Add("optilib.episodes_per_op",
               Ratio(episodes, static_cast<double>(ops)));
  report->Add("optilib.fast_commit_frac",
               Ratio(static_cast<double>(d.fast_commits),
                     static_cast<double>(d.fast_commits + d.slow_acquires)));
  report->Add("optilib.site_cache_hit_frac",
               Ratio(static_cast<double>(d.site_cache_hits), episodes));
  report->Add("optilib.perceptron_slow_frac",
               Ratio(static_cast<double>(d.perceptron_slow), episodes));
  report->Add("optilib.attempts_per_episode",
               Ratio(static_cast<double>(d.htm_attempts), episodes));
  report->Add("optilib.backoff_pauses_per_op",
               Ratio(static_cast<double>(d.backoff_pauses),
                     static_cast<double>(ops)));
  report->Add("optilib.multilock_commit_frac",
               Ratio(static_cast<double>(d.multilock_fast_commits),
                     static_cast<double>(d.multilock_episodes)));
  report->Add("optilib.multilock_slow_frac",
               Ratio(static_cast<double>(d.multilock_slow_acquires),
                     static_cast<double>(d.multilock_episodes)));
  report->Add("optilib.breaker_trips", static_cast<double>(d.breaker_trips));
  report->Add("optilib.watchdog_trips", static_cast<double>(d.watchdog_trips));
  report->Add("htm.commit_frac",
               Ratio(static_cast<double>(d.tx_commits), begins));
  const std::pair<const char*, AbortCode> aborts[] = {
      {"conflict", AbortCode::kConflict},
      {"capacity", AbortCode::kCapacity},
      {"lock_held", AbortCode::kLockHeld},
      {"occ_validate", AbortCode::kOccValidateFail},
  };
  for (const auto& [name, code] : aborts) {
    report->Add(
        std::string("htm.aborts_per_1k_begins.") + name,
        1000.0 * Ratio(static_cast<double>(d.tx_aborts[static_cast<int>(code)]),
                       begins));
  }
  report->Add("htm.read_only_commit_frac",
               Ratio(static_cast<double>(d.tx_read_only_commits),
                     static_cast<double>(d.tx_commits)));
}

void SetEpisodeLatencyMetrics(const std::vector<gocc::obs::Event>& events,
                              double ticks_per_ns, Report* report) {
  std::vector<double> fast;
  std::vector<double> slow;
  for (const gocc::obs::Event& ev : events) {
    const double ns = static_cast<double>(ev.duration_ticks) / ticks_per_ns;
    switch (ev.outcome) {
      case gocc::obs::Outcome::kFastCommit:
      case gocc::obs::Outcome::kNestedFastCommit:
        fast.push_back(ns);
        break;
      case gocc::obs::Outcome::kSlowAcquire:
      case gocc::obs::Outcome::kOccFallback:
        slow.push_back(ns);
        break;
      case gocc::obs::Outcome::kUnwind:
        break;
    }
  }
  report->Add("optilib.episode_p50_ns.fast", Median(fast));
  report->Add("optilib.episode_p50_ns.slow", Median(slow));
}

}  // namespace perfbench
