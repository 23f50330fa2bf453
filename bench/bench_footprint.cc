// SimTM footprint cost: what does one transactional access cost as the
// transaction grows?
//
// One transaction of N loads then N stores, timed at N in {1, 8, 16, 64,
// 256} on the calling thread, in two series:
//
//   raw     each access on its own cache line, a raw std::atomic validated
//           against the hashed global stripe table (the same shape as
//           perfbench's htm.tx_ns.fp<N> probe);
//   shared  htm::Shared<uint64_t> cells packed four to a line, each
//           validated against its own inline stripe — the path the
//           workloads take.
//
// The reported figure is ns per access: transaction time / 2N. TL2's global
// clock makes each read's check O(1), so a flat per-access cost across N is
// what the protocol allows; a per-access cost that climbs with N is
// bookkeeping overhead (set lookups, commit-time scans) growing with the
// footprint.
//
// Methodology: reps are interleaved across footprints (rep loop outside,
// footprint loop inside) so every footprint is timed under the same host
// conditions, and each footprint reports the MINIMUM over its reps — the
// de-noised estimate on a shared host (see bench_overhead.cc). Every rep
// performs the same number of accesses at every footprint.
//
// Flags:
//   --gate   quick run of the raw series at N = 8 and 256 only; exits 1
//            unless the per-access cost at 256 is at most kMaxFootprintRatio
//            times the cost at 8 (`ctest -L perf-smoke`, Release only).
//
// Emits BENCH_footprint.json (see bench_util.h), one record per series and
// footprint: `footprint/<N>` (raw) and `footprint_shared/<N>`.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csetjmp>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/htm/config.h"
#include "src/htm/shared.h"
#include "src/htm/tx.h"

namespace {

constexpr double kMaxFootprintRatio = 2.0;

struct alignas(64) Line {
  std::atomic<uint64_t> word{0};
};

using Cell = gocc::htm::Shared<uint64_t>;

// Kept out of line so the setjmp checkpoint GOCC_TX_BEGIN plants has no
// caller loop state to clobber.
__attribute__((noinline)) void RawFootprintTx(Line* lines, int footprint) {
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

__attribute__((noinline)) void SharedFootprintTx(Cell* cells, int footprint) {
  std::jmp_buf env;
  gocc::htm::BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    uint64_t sum = 0;
    for (int k = 0; k < footprint; ++k) {
      sum += cells[k].Load();
    }
    for (int k = 0; k < footprint; ++k) {
      cells[k].Store(sum + static_cast<uint64_t>(k));
    }
    gocc::htm::TxCommit();
  }
}

// One measured (series, footprint) point over `lines` (raw) or `cells`.
struct Point {
  const char* series;
  int footprint;
  Line* lines;
  Cell* cells;
  double best_ns = 0.0;
};

// Runs `n` transactions of `p` with direct calls (no per-transaction
// dispatch inside the timed loop).
void RunTxs(const Point& p, uint64_t n) {
  if (p.lines != nullptr) {
    for (uint64_t i = 0; i < n; ++i) {
      RawFootprintTx(p.lines, p.footprint);
    }
  } else {
    for (uint64_t i = 0; i < n; ++i) {
      SharedFootprintTx(p.cells, p.footprint);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gocc::bench;

  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
    }
  }

  const std::vector<int> footprints =
      gate ? std::vector<int>{8, 256} : std::vector<int>{1, 8, 16, 64, 256};
  const int reps = gate ? 9 : 7;
  const uint64_t accesses_per_rep = gate ? (1u << 18) : (1u << 20);

  gocc::htm::ForceSimBackend();
  gocc::htm::MutableConfig() = gocc::htm::TxConfig{};

  JsonReport report("footprint");
  report.Config("backend", "sim");
  report.Config("reps_min_of", static_cast<double>(reps));
  report.Config("accesses_per_rep", static_cast<double>(accesses_per_rep));
  std::printf("== SimTM per-access cost vs transaction footprint ==\n");

  std::vector<std::unique_ptr<Line[]>> lines;
  std::vector<std::unique_ptr<Cell[]>> cells;
  std::vector<Point> points;
  for (int fp : footprints) {
    Line* l = lines.emplace_back(new Line[static_cast<size_t>(fp)]).get();
    points.push_back({"raw", fp, l, nullptr});
  }
  if (!gate) {
    for (int fp : footprints) {
      Cell* c = cells.emplace_back(new Cell[static_cast<size_t>(fp)]).get();
      points.push_back({"shared", fp, nullptr, c});
    }
  }
  for (const Point& p : points) {
    RunTxs(p, 1);  // warm the per-thread context
  }
  for (int rep = 0; rep < reps; ++rep) {
    for (Point& p : points) {
      const uint64_t iterations = std::max<uint64_t>(
          1, accesses_per_rep / (2 * static_cast<uint64_t>(p.footprint)));
      const auto t0 = std::chrono::steady_clock::now();
      RunTxs(p, iterations);
      const auto t1 = std::chrono::steady_clock::now();
      const double ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count() /
          static_cast<double>(iterations);
      if (rep == 0 || ns < p.best_ns) {
        p.best_ns = ns;
      }
    }
  }

  std::printf("  %8s %10s %14s %16s\n", "series", "footprint", "ns/tx",
              "ns/access");
  for (const Point& p : points) {
    const double per_access = p.best_ns / (2.0 * p.footprint);
    std::printf("  %8s %10d %14.1f %16.2f\n", p.series, p.footprint,
                p.best_ns, per_access);
    JsonRecord rec;
    rec.benchmark = (p.lines != nullptr ? "footprint/" : "footprint_shared/") +
                    std::to_string(p.footprint);
    rec.mode = "sim";
    rec.section = "measured";
    rec.threads = 1;
    rec.ns_per_op = p.best_ns;
    rec.ops_per_sec = p.best_ns > 0 ? 1e9 / p.best_ns : 0.0;
    rec.counters.push_back({"ns_per_access", per_access});
    report.Add(std::move(rec));
  }

  auto per_access_at = [&](const char* series, int fp) {
    for (const Point& p : points) {
      if (std::strcmp(p.series, series) == 0 && p.footprint == fp) {
        return p.best_ns / (2.0 * fp);
      }
    }
    return 0.0;
  };
  const double ratio = per_access_at("raw", 256) / per_access_at("raw", 8);
  report.Config("per_access_ratio_256_vs_8", ratio);
  std::printf(
      "\n  raw per-access cost, footprint 256 vs 8: %.2fx (gate %.1fx)\n",
      ratio, kMaxFootprintRatio);
  if (!gate) {
    const double shared_ratio =
        per_access_at("shared", 256) / per_access_at("shared", 8);
    report.Config("shared_per_access_ratio_256_vs_8", shared_ratio);
    std::printf("  shared per-access cost, footprint 256 vs 8: %.2fx\n",
                shared_ratio);
  }
  if (gate && !(ratio <= kMaxFootprintRatio)) {
    std::fprintf(stderr,
                 "perf-smoke FAILED: SimTM per-access cost at footprint 256 "
                 "is %.2fx the cost at footprint 8 (limit %.1fx)\n",
                 ratio, kMaxFootprintRatio);
    return 1;
  }
  return 0;
}
