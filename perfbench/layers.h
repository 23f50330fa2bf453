// Per-layer metrics a traced run derives from runtime-counter deltas and
// drained episode events.
//
// A run reports only the metrics its workload drives; run.py puts them in
// BENCHMARK.json's order, reads the rest (the service tier on ycsb-txn, a
// pkg-mix op on svc-zipf) as 0 and names those on the run's
// `not_exercised` line.

#ifndef GOCC_PERFBENCH_LAYERS_H_
#define GOCC_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "perfbench/harness.h"
#include "src/obs/event.h"

namespace perfbench {

// optilib.* and htm.* ratios over an interval of `ops` workload operations.
void SetRuntimeLayerMetrics(const RuntimeCounters& delta, uint64_t ops,
                            Report* report);

// optilib.episode_p50_ns.{fast,slow} from drained episode events.
void SetEpisodeLatencyMetrics(const std::vector<gocc::obs::Event>& events,
                              double ticks_per_ns, Report* report);

}  // namespace perfbench

#endif  // GOCC_PERFBENCH_LAYERS_H_
