#include "perfbench/trace.h"

#include <algorithm>
#include <fstream>

#include "src/obs/recorder.h"
#include "src/obs/ticks.h"
#include "src/obs/trace_export.h"
#include "src/support/strings.h"

namespace perfbench {

using gocc::StrFormat;

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest:
      return "request";
    case SpanKind::kArrivalLag:
      return "arrival_lag";
    case SpanKind::kServiceCall:
      return "service_call";
    case SpanKind::kWorkloadOp:
      return "workload_op";
  }
  return "unknown";
}

std::vector<Span> SpanRing::Snapshot() const {
  std::vector<Span> out;
  const uint64_t begin = next_ > kSpanRing ? next_ - kSpanRing : 0;
  out.reserve(static_cast<size_t>(next_ - begin));
  for (uint64_t i = begin; i < next_; ++i) {
    out.push_back(spans_[i & (kSpanRing - 1)]);
  }
  return out;
}

SiteTable::SiteTable(const std::string& workload, int workers,
                     const std::vector<std::string>& ops)
    : ops_(ops.size()) {
  for (int w = 0; w < workers; ++w) {
    for (const std::string& op : ops) {
      sites_.push_back(gocc::obs::RegisterSite(
          StrFormat("%s/w%d/%s", workload.c_str(), w, op.c_str())));
    }
  }
}

bool SiteTable::Lookup(uint32_t site_id, int* worker, int* op) const {
  for (size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i] == site_id) {
      *worker = static_cast<int>(i / ops_);
      *op = static_cast<int>(i % ops_);
      return true;
    }
  }
  return false;
}

namespace {

struct Interval {
  uint64_t start;
  uint64_t end;
};

// Length of the union of `parts` (all inside one parent span).
uint64_t CoveredTicks(std::vector<Interval>& parts) {
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  uint64_t covered = 0;
  uint64_t cur_start = 0;
  uint64_t cur_end = 0;
  bool open = false;
  for (const Interval& p : parts) {
    if (!open || p.start > cur_end) {
      if (open) {
        covered += cur_end - cur_start;
      }
      cur_start = p.start;
      cur_end = p.end;
      open = true;
    } else {
      cur_end = std::max(cur_end, p.end);
    }
  }
  if (open) {
    covered += cur_end - cur_start;
  }
  return covered;
}

}  // namespace

JoinStats JoinEpisodes(const std::vector<std::vector<Span>>& spans_by_worker,
                       const std::vector<gocc::obs::Event>& events,
                       const SiteTable& sites, SpanKind parent_kind,
                       double ticks_per_ns) {
  const size_t workers = spans_by_worker.size();
  std::vector<std::vector<Span>> parents(workers);
  for (size_t w = 0; w < workers; ++w) {
    for (const Span& s : spans_by_worker[w]) {
      if (s.kind == parent_kind) {
        parents[w].push_back(s);
      }
    }
    std::sort(parents[w].begin(), parents[w].end(),
              [](const Span& a, const Span& b) {
                return a.start_ticks < b.start_ticks;
              });
  }

  JoinStats stats;
  std::vector<std::vector<std::vector<Interval>>> children(workers);
  std::vector<uint64_t> first_event(workers, ~uint64_t{0});
  for (size_t w = 0; w < workers; ++w) {
    children[w].resize(parents[w].size());
  }
  for (const gocc::obs::Event& ev : events) {
    int worker = 0;
    int op = 0;
    if (!sites.Lookup(ev.site_id, &worker, &op) ||
        static_cast<size_t>(worker) >= workers) {
      continue;
    }
    const size_t w = static_cast<size_t>(worker);
    first_event[w] = std::min(first_event[w], ev.start_ticks);
    const std::vector<Span>& ps = parents[w];
    auto it = std::upper_bound(
        ps.begin(), ps.end(), ev.start_ticks,
        [](uint64_t t, const Span& s) { return t < s.start_ticks; });
    if (it == ps.begin()) {
      continue;
    }
    --it;
    const uint64_t ev_end = ev.start_ticks + ev.duration_ticks;
    if (ev_end > it->end_ticks) {
      continue;
    }
    ++stats.joined;
    children[w][static_cast<size_t>(it - ps.begin())].push_back(
        {ev.start_ticks, ev_end});
  }

  for (size_t w = 0; w < workers; ++w) {
    for (size_t i = 0; i < parents[w].size(); ++i) {
      const Span& s = parents[w][i];
      if (s.start_ticks < first_event[w]) {
        continue;  // older than the surviving episode record
      }
      const uint64_t covered = CoveredTicks(children[w][i]);
      const uint64_t dur = s.end_ticks - s.start_ticks;
      stats.self_ns.push_back(
          static_cast<double>(dur - std::min(dur, covered)) / ticks_per_ns);
    }
  }
  return stats;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<std::vector<Span>>& spans_by_worker,
                      const std::vector<gocc::obs::Event>& events,
                      const std::vector<std::string>& op_names,
                      double window_us) {
  const double ticks_per_us = gocc::obs::TicksPerMicrosecond();
  uint64_t last = 0;
  for (const auto& spans : spans_by_worker) {
    for (const Span& s : spans) {
      last = std::max(last, s.end_ticks);
    }
  }
  for (const gocc::obs::Event& ev : events) {
    last = std::max(last, ev.start_ticks + ev.duration_ticks);
  }
  const uint64_t window_ticks = static_cast<uint64_t>(window_us * ticks_per_us);
  const uint64_t cutoff = last > window_ticks ? last - window_ticks : 0;

  std::vector<gocc::obs::Event> recent;
  uint64_t base = ~uint64_t{0};
  for (const gocc::obs::Event& ev : events) {
    if (ev.start_ticks >= cutoff) {
      recent.push_back(ev);
      base = std::min(base, ev.start_ticks);
    }
  }
  if (recent.empty()) {
    base = cutoff;
  }

  // ChromeTraceJson rebases to its earliest event; harness spans are
  // rebased to the same origin and only spans at or after it are kept, so
  // both share one timeline.
  std::string harness;
  for (size_t w = 0; w < spans_by_worker.size(); ++w) {
    const int tid = 100 + static_cast<int>(w);
    harness += StrFormat(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
        "\"args\":{\"name\":\"harness-worker-%zu\"}},",
        tid, w);
    for (const Span& s : spans_by_worker[w]) {
      if (s.start_ticks < base) {
        continue;
      }
      const std::string op =
          s.op < op_names.size() ? op_names[s.op] : std::string("op");
      harness += StrFormat(
          "{\"name\":\"%s:%s\",\"cat\":\"harness\",\"ph\":\"X\","
          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{"
          "\"request\":%llu,\"span\":%llu,\"parent\":%llu}},",
          SpanKindName(s.kind), op.c_str(),
          static_cast<double>(s.start_ticks - base) / ticks_per_us,
          static_cast<double>(s.end_ticks - s.start_ticks) / ticks_per_us,
          tid, static_cast<unsigned long long>(s.request_id),
          static_cast<unsigned long long>(s.Id()),
          static_cast<unsigned long long>(s.ParentId()));
    }
  }

  std::string json = gocc::obs::ChromeTraceJson(recent);
  const size_t open = json.find('[');
  if (open == std::string::npos) {
    return false;
  }
  json.insert(open + 1, harness);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json;
  out.close();
  return static_cast<bool>(out);
}

}  // namespace perfbench
