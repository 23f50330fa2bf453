// Single-thread layer probes for the traced run: each times one public
// entry point of a layer in a tight loop and reports the median of several
// repetitions in nanoseconds per call.

#ifndef GOCC_PERFBENCH_PROBES_H_
#define GOCC_PERFBENCH_PROBES_H_

#include "perfbench/harness.h"

namespace perfbench {

// Reports optilib.withlock_empty_ns, htm.tx_ns.fp{1,16,64,256},
// gosync.mutex_pair_ns.{tracked,untracked} and
// gosync.rwmutex_rpair_ns.{tracked,untracked}.
void RunLayerProbes(Report* report);

}  // namespace perfbench

#endif  // GOCC_PERFBENCH_PROBES_H_
