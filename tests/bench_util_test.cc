// Latency-percentile plumbing shared by the benches: the log-linear
// histogram (src/support/histogram.h) and the per-thread recorder /
// batch-timed loop in bench/bench_util.h. The histogram trades memory for
// a bounded ~12.5% relative bucket error; the tests below pin both the
// exact small-value region and that bound, plus the deterministic
// pace-bound interaction of BatchTimedLoop and JsonReport's config block.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "src/gopool/gopool.h"
#include "src/support/histogram.h"

namespace gocc::bench {
namespace {

TEST(LatencyHistogramTest, EmptyHistogramReportsZero) {
  support::LatencyHistogram h;
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.P50(), 0u);
  EXPECT_EQ(h.P999(), 0u);
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  // 0..7 occupy dedicated unit-width buckets, so tiny fast-path latencies
  // round-trip exactly.
  support::LatencyHistogram h;
  for (uint64_t v = 0; v < 8; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.TotalCount(), 8u);
  EXPECT_EQ(h.P50(), 4u);
  EXPECT_EQ(h.P999(), 7u);
}

TEST(LatencyHistogramTest, QuantilesOfKnownDistributionWithinBucketError) {
  support::LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  // Log-linear with 4 sub-buckets bounds relative error at ~12.5%; allow a
  // little slack for the midpoint representative.
  EXPECT_NEAR(static_cast<double>(h.P50()), 500.0, 500.0 * 0.15);
  EXPECT_NEAR(static_cast<double>(h.P99()), 990.0, 990.0 * 0.15);
  EXPECT_GE(h.P999(), h.P99());
  EXPECT_GE(h.P99(), h.P50());
}

TEST(LatencyHistogramTest, MergeAndResetCombineCounts) {
  support::LatencyHistogram a, b;
  for (int i = 0; i < 150; ++i) {
    a.Record(10);
  }
  for (int i = 0; i < 50; ++i) {
    b.Record(1000);
  }
  a.Merge(b);
  EXPECT_EQ(a.TotalCount(), 200u);
  // Three quarters of the mass at ~10, a quarter at ~1000: the median sits
  // in the low mode, the tail in the high one.
  EXPECT_LT(a.P50(), 20u);
  EXPECT_GT(a.P999(), 800u);
  a.Reset();
  EXPECT_EQ(a.TotalCount(), 0u);
  EXPECT_EQ(a.P999(), 0u);
}

TEST(PercentileRecorderTest, ClaimsMergeIntoOneSummary) {
  PercentileRecorder rec(2);
  support::LatencyHistogram& h0 = rec.Claim();
  support::LatencyHistogram& h1 = rec.Claim();
  EXPECT_NE(&h0, &h1);
  // A third claim wraps back to the first slot.
  EXPECT_EQ(&rec.Claim(), &h0);
  for (int i = 0; i < 150; ++i) {
    h0.Record(8);
  }
  for (int i = 0; i < 50; ++i) {
    h1.Record(800);
  }
  const LatencySummary s = rec.Summarize();
  EXPECT_EQ(s.samples, 200u);
  EXPECT_LT(s.p50_ns, 20.0);
  EXPECT_GT(s.p999_ns, 600.0);

  rec.Reset();
  EXPECT_EQ(rec.Summarize().samples, 0u);
}

TEST(PercentileRecorderTest, FillStampsRecordOnlyWhenSamplesExist) {
  JsonRecord cell;
  LatencySummary empty;
  PercentileRecorder::Fill(empty, &cell);
  EXPECT_EQ(cell.p50_ns, 0.0);
  EXPECT_EQ(cell.p999_ns, 0.0);

  LatencySummary s;
  s.p50_ns = 12.0;
  s.p99_ns = 40.0;
  s.p999_ns = 90.0;
  s.samples = 64;
  PercentileRecorder::Fill(s, &cell);
  EXPECT_EQ(cell.p50_ns, 12.0);
  EXPECT_EQ(cell.p99_ns, 40.0);
  EXPECT_EQ(cell.p999_ns, 90.0);
}

TEST(BatchTimedLoopTest, DrainsPaceBoundAndRecordsOneSamplePerFullBatch) {
  // PB checks its stop flag every 64 grants, so flipping stop after the
  // 100th op ends the window at exactly 128 grants: four full batches of
  // kLatencyBatch (32), then a fifth batch that grants nothing.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ops{0};
  support::LatencyHistogram hist;
  uint64_t executed = 0;
  {
    gopool::PB pb(&stop, &ops);
    BatchTimedLoop(pb, &hist, [&] {
      if (++executed == 100) {
        stop.store(true, std::memory_order_relaxed);
      }
    });
  }
  EXPECT_EQ(executed, 128u);
  EXPECT_EQ(ops.load(), 128u);
  EXPECT_EQ(hist.TotalCount(), 4u);
}

TEST(BatchTimedLoopTest, PartialFinalBatchIsStillRecorded) {
  // Stop flag already set: the first Next() check (granted_ == 0) fails
  // immediately, so nothing runs and nothing is recorded.
  std::atomic<bool> stop{true};
  std::atomic<uint64_t> ops{0};
  support::LatencyHistogram hist;
  uint64_t executed = 0;
  {
    gopool::PB pb(&stop, &ops);
    BatchTimedLoop(pb, &hist, [&] { ++executed; });
  }
  EXPECT_EQ(executed, 0u);
  EXPECT_EQ(hist.TotalCount(), 0u);

  // A custom batch of 64 aligned with the stop-check period records the
  // full window: stop at op 64 -> one complete batch, second batch empty.
  stop.store(false);
  executed = 0;
  {
    gopool::PB pb(&stop, &ops);
    BatchTimedLoop(
        pb, &hist,
        [&] {
          if (++executed == 64) {
            stop.store(true, std::memory_order_relaxed);
          }
        },
        /*batch=*/64);
  }
  EXPECT_EQ(executed, 64u);
  EXPECT_EQ(hist.TotalCount(), 1u);
}

// The artifact's config block snapshots the GOCC_* knobs that shaped the
// run, but not GOCC_BENCH_JSON_DIR: that is where the file goes, and
// stamping it would write a machine-specific path into committed
// baselines.
TEST(JsonReportTest, ConfigSnapshotsKnobsButNotOutputDir) {
  const std::string dir = ::testing::TempDir() + "json_report_config_test";
  ASSERT_TRUE(::mkdir(dir.c_str(), 0700) == 0 || errno == EEXIST) << dir;
  ASSERT_EQ(::setenv("GOCC_BENCH_JSON_DIR", dir.c_str(), 1), 0);
  ASSERT_EQ(::setenv("GOCC_CHAOS_SEED", "4242", 1), 0);
  std::string path;
  {
    JsonReport report("config_block");
    report.Config("backend", "sim");
    path = report.path();
  }
  ::unsetenv("GOCC_BENCH_JSON_DIR");
  ::unsetenv("GOCC_CHAOS_SEED");
  EXPECT_EQ(path, dir + "/BENCH_config_block.json");

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const size_t begin = text.find("\"config\": {");
  const size_t end = text.find('}', begin);
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  const std::string config = text.substr(begin, end - begin);
  EXPECT_NE(config.find("\"backend\": \"sim\""), std::string::npos) << config;
  EXPECT_NE(config.find("\"env.GOCC_CHAOS_SEED\": \"4242\""),
            std::string::npos)
      << config;
  EXPECT_EQ(config.find("GOCC_BENCH_JSON_DIR"), std::string::npos) << config;
  EXPECT_EQ(config.find(dir), std::string::npos) << config;
  std::remove(path.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace gocc::bench
