// Harness spans for the traced run, their join with the runtime's own obs
// episode events, layer self time, and the Chrome-trace dump.
//
// Each worker keeps its spans in a fixed ring (the newest kSpanRing
// survive), timed with obs::NowTicks so they share the episode recorder's
// clock. Every traced call runs under an obs::ScopedSite whose site names
// the worker and the operation, so each drained episode event names the
// worker whose spans can contain it; within that worker it is joined by
// time to the innermost harness span around it.

#ifndef GOCC_PERFBENCH_TRACE_H_
#define GOCC_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/event.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kRequest = 0,      // open-loop request: scheduled arrival .. response
  kArrivalLag = 1,   // scheduled arrival .. start of the call (gopool)
  kServiceCall = 2,  // inside CacheService::Get/Set (service)
  kWorkloadOp = 3,   // one closed-loop workload operation (workloads)
};

const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t start_ticks = 0;
  uint64_t end_ticks = 0;
  uint64_t request_id = 0;  // shared by every span of one request
  SpanKind kind = SpanKind::kWorkloadOp;
  uint16_t op = 0;  // caller-defined operation index (site table below)
  // Parent span id; span ids are request_id * 4 + kind, 0 = root.
  uint64_t Id() const { return request_id * 4 + static_cast<uint64_t>(kind); }
  uint64_t ParentId() const {
    return kind == SpanKind::kArrivalLag || kind == SpanKind::kServiceCall
               ? request_id * 4 + static_cast<uint64_t>(SpanKind::kRequest)
               : 0;
  }
};

// Per-worker span ring; single writer.
class SpanRing {
 public:
  static constexpr size_t kSpanRing = 1 << 16;
  SpanRing() : spans_(kSpanRing) {}
  void Add(const Span& span) { spans_[next_++ & (kSpanRing - 1)] = span; }
  // Surviving spans, oldest first.
  std::vector<Span> Snapshot() const;
  void Clear() { next_ = 0; }

 private:
  std::vector<Span> spans_;
  uint64_t next_ = 0;
};

// Registers one obs site per (worker, op) as "<workload>/w<k>/<op>" and
// maps site ids back to (worker, op).
class SiteTable {
 public:
  SiteTable(const std::string& workload, int workers,
            const std::vector<std::string>& ops);
  uint32_t Site(int worker, int op) const {
    return sites_[static_cast<size_t>(worker) * ops_ + static_cast<size_t>(op)];
  }
  // False when `site_id` is not one of this table's sites.
  bool Lookup(uint32_t site_id, int* worker, int* op) const;

 private:
  size_t ops_;
  std::vector<uint32_t> sites_;
};

struct JoinStats {
  uint64_t joined = 0;  // contained in a harness span of their worker
  // Self time (ns) of every `parent_kind` span that lies inside the
  // episode-covered part of the trace: duration minus the union of the
  // episode spans joined to it.
  std::vector<double> self_ns;
};

// Joins drained episode events to the innermost `parent_kind` spans of the
// worker each event's site names.
JoinStats JoinEpisodes(const std::vector<std::vector<Span>>& spans_by_worker,
                       const std::vector<gocc::obs::Event>& events,
                       const SiteTable& sites, SpanKind parent_kind,
                       double ticks_per_ns);

// Writes the newest `window_us` of spans and events to `path` as Chrome
// trace JSON (episodes through obs::ChromeTraceJson, harness spans on
// their own worker tracks). Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<std::vector<Span>>& spans_by_worker,
                      const std::vector<gocc::obs::Event>& events,
                      const std::vector<std::string>& op_names,
                      double window_us);

}  // namespace perfbench

#endif  // GOCC_PERFBENCH_TRACE_H_
