// pkg-mix: the five paper package analogues behind one closed loop, with
// small working sets, ops drawn the way the paper's figures run them.
//
// Why: the single-lock episode fast path (decide, begin, subscribe,
// commit, tracked mutex word) is most of each op's cost, and the mix holds
// sites where elision pays next to sites where the perceptron should pick
// the lock (fastcache Get's atomic adds, tally AllocateCounter). No
// service tier, no multi-lock episodes.
//
// Oracle (checked at quiescence): per-package call counts and counter
// totals — fastcache's own get/has/set/miss counters equal the calls the
// harness made, every tally counter equals the increments made, the
// AllocateCounter slots handed out are exactly cursor values 0..n-1 mod
// the pool size, zap's written/flushed counts match the writes, and every
// read returns the value its key was loaded with.

#ifndef GOCC_PERFBENCH_PKG_MIX_H_
#define GOCC_PERFBENCH_PKG_MIX_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "src/workloads/cset.h"
#include "src/workloads/fastcache.h"
#include "src/workloads/gocache.h"
#include "src/workloads/tally.h"
#include "src/workloads/zaplog.h"

namespace perfbench {

template <typename Policy>
class PkgMix {
 public:
  enum Op : int {
    kGoCacheGet,
    kGoCacheMapGet,
    kSetLen,
    kSetExists,
    kSetFlatten,
    kFastCacheGet,
    kFastCacheHas,
    kFastCacheSet,
    kTallyHistogramExists,
    kTallyIncCounter,
    kTallyAllocateCounter,
    kZapCheck,
    kZapWrite,
    kNumOps,
  };

  static const std::vector<std::string>& OpNames() {
    static const std::vector<std::string> kNames = {
        "gocache.get",          "gocache.map_get",   "set.len",
        "set.exists",           "set.flatten",       "fastcache.get",
        "fastcache.has",        "fastcache.set",     "tally.histogram_exists",
        "tally.inc_counter",    "tally.allocate_counter", "zap.check",
        "zap.write"};
    return kNames;
  }

  // Working sets: small enough to stay cache-resident.
  static constexpr uint64_t kGoCacheKeys = 256;
  static constexpr uint64_t kSetItems = 512;
  static constexpr uint64_t kFastCacheKeys = 512;
  static constexpr int kHistograms = 64;  // registered; as many unregistered
  static constexpr int kCounters = 64;
  static constexpr uint64_t kAllocPool = 512;  // TallyScope's counter pool

  struct alignas(64) Worker {
    gocc::SplitMix64 rng{0};
    uint64_t arg = 0;  // operand drawn by NextOp
    std::array<uint64_t, kNumOps> calls{};
    uint64_t bad_reads = 0;
    std::array<uint64_t, kCounters> increments{};
    std::array<uint64_t, kAllocPool> alloc_slots{};
  };

  explicit PkgMix(uint64_t seed) {
    for (uint64_t k = 1; k <= kGoCacheKeys; ++k) {
      gocache_.Set(k, Value(k), gocc::workloads::GoCache<Policy>::kNoExpiration);
    }
    for (uint64_t k = 1; k <= kSetItems; ++k) {
      set_.Add(k);
    }
    for (uint64_t k = 1; k <= kFastCacheKeys; ++k) {
      fastcache_.Set(k, Value(k));
    }
    for (int i = 0; i < 2 * kHistograms; ++i) {
      histogram_ids_[static_cast<size_t>(i)] =
          gocc::workloads::MetricId(gocc::StrFormat("histogram.%d", i));
      if (i < kHistograms) {
        tally_.RegisterHistogram(histogram_ids_[static_cast<size_t>(i)]);
      }
    }
    for (int i = 0; i < kCounters; ++i) {
      counter_ids_[static_cast<size_t>(i)] =
          gocc::workloads::MetricId(gocc::StrFormat("counter.%d", i));
      tally_.RegisterCounter(counter_ids_[static_cast<size_t>(i)], 0);
    }
    zap_.SetLevel(gocc::workloads::LogLevel::kInfo);
  }

  Worker MakeWorker(uint64_t seed, int) const {
    Worker w;
    w.rng = gocc::SplitMix64(seed);
    return w;
  }

  // Op weights per 1024 draws: the three write-side ops the paper runs
  // rarely (fastcache Set, tally AllocateCounter, zap Write) get 8 each,
  // the ten read-side ops share the rest.
  int NextOp(Worker& w) {
    const uint64_t draw = w.rng.NextBelow(1024);
    int op;
    if (draw < 1000) {
      static constexpr Op kCommon[] = {
          kGoCacheGet,  kGoCacheMapGet, kSetLen,       kSetExists,
          kSetFlatten,  kFastCacheGet,  kFastCacheHas, kTallyHistogramExists,
          kTallyIncCounter, kZapCheck};
      op = kCommon[draw / 100];
    } else {
      static constexpr Op kRare[] = {kFastCacheSet, kTallyAllocateCounter,
                                     kZapWrite};
      op = kRare[(draw - 1000) / 8];
    }
    switch (op) {
      case kGoCacheGet:
      case kGoCacheMapGet:
        w.arg = 1 + w.rng.NextBelow(kGoCacheKeys);
        break;
      case kSetExists:
        w.arg = 1 + w.rng.NextBelow(2 * kSetItems);  // half are absent
        break;
      case kFastCacheGet:
      case kFastCacheHas:
      case kFastCacheSet:
        w.arg = 1 + w.rng.NextBelow(kFastCacheKeys);
        break;
      case kTallyHistogramExists:
        w.arg = w.rng.NextBelow(2 * kHistograms);
        break;
      case kTallyIncCounter:
        w.arg = w.rng.NextBelow(kCounters);
        break;
      case kZapCheck:
        w.arg = w.rng.NextBelow(4);  // a LogLevel
        break;
      default:
        w.arg = w.rng.Next();
        break;
    }
    return op;
  }

  bool RunOp(Worker& w, int op) {
    ++w.calls[static_cast<size_t>(op)];
    const uint64_t a = w.arg;
    int64_t v = 0;
    bool good = true;
    switch (op) {
      case kGoCacheGet:
        good = gocache_.Get(a, 0, &v) && v == Value(a);
        break;
      case kGoCacheMapGet:
        good = gocache_.MapGet(a, &v) && v == Value(a);
        break;
      case kSetLen:
        good = set_.Len() == static_cast<int64_t>(kSetItems);
        break;
      case kSetExists:
        good = set_.Exists(a) == (a <= kSetItems);
        break;
      case kSetFlatten: {
        uint64_t out[gocc::workloads::ConcurrentSet<Policy>::kFlattenCount];
        good = set_.Flatten(out) ==
               gocc::workloads::ConcurrentSet<Policy>::kFlattenCount;
        break;
      }
      case kFastCacheGet:
        good = fastcache_.Get(a, &v) && v == Value(a);
        break;
      case kFastCacheHas:
        good = fastcache_.Has(a);
        break;
      case kFastCacheSet:
        fastcache_.Set(a, Value(a));
        break;
      case kTallyHistogramExists:
        good = tally_.HistogramExists(histogram_ids_[a]) == (a < kHistograms);
        break;
      case kTallyIncCounter:
        tally_.IncCounter(counter_ids_[a], 1);
        ++w.increments[a];
        break;
      case kTallyAllocateCounter: {
        const int64_t slot = tally_.AllocateCounter(a | 1);
        if (slot >= 0 && static_cast<uint64_t>(slot) < kAllocPool) {
          ++w.alloc_slots[static_cast<size_t>(slot)];
        } else {
          good = false;
        }
        break;
      }
      case kZapCheck:
        good = zap_.Check(static_cast<gocc::workloads::LogLevel>(a)) ==
               (a >= static_cast<uint64_t>(gocc::workloads::LogLevel::kInfo));
        break;
      case kZapWrite:
        zap_.Write(gocc::workloads::LogLevel::kInfo, a);
        break;
    }
    w.bad_reads += good ? 0 : 1;
    return true;
  }

  bool Check(const std::vector<std::unique_ptr<Worker>>& workers,
             std::string* why) {
    std::array<uint64_t, kNumOps> calls{};
    std::array<uint64_t, kCounters> increments{};
    std::array<uint64_t, kAllocPool> slots{};
    uint64_t bad = 0;
    for (const auto& w : workers) {
      for (size_t i = 0; i < calls.size(); ++i) calls[i] += w->calls[i];
      for (size_t i = 0; i < increments.size(); ++i) {
        increments[i] += w->increments[i];
      }
      for (size_t i = 0; i < slots.size(); ++i) slots[i] += w->alloc_slots[i];
      bad += w->bad_reads;
    }
    auto fail = [why](const std::string& msg) {
      *why = "pkg-mix: " + msg;
      return false;
    };
    if (bad != 0) {
      return fail(gocc::StrFormat("%llu reads returned a wrong value",
                                  static_cast<unsigned long long>(bad)));
    }
    if (fastcache_.GetCalls() != calls[kFastCacheGet] ||
        fastcache_.HasCalls() != calls[kFastCacheHas] ||
        fastcache_.SetCalls() != calls[kFastCacheSet] + kFastCacheKeys ||
        fastcache_.Misses() != 0) {
      return fail("fastcache call counters disagree with the calls made");
    }
    for (int i = 0; i < kCounters; ++i) {
      const int64_t v = tally_.CounterValue(counter_ids_[static_cast<size_t>(i)]);
      if (v != static_cast<int64_t>(increments[static_cast<size_t>(i)])) {
        return fail(gocc::StrFormat("tally counter %d holds %lld, expected %llu",
                                    i, static_cast<long long>(v),
                                    static_cast<unsigned long long>(
                                        increments[static_cast<size_t>(i)])));
      }
    }
    // n allocations take cursor values 0..n-1, so slot s was handed out
    // n / pool times, plus once more when s < n % pool.
    const uint64_t n = calls[kTallyAllocateCounter];
    for (uint64_t s = 0; s < kAllocPool; ++s) {
      const uint64_t want = n / kAllocPool + (s < n % kAllocPool ? 1 : 0);
      if (slots[s] != want) {
        return fail(gocc::StrFormat("AllocateCounter slot %llu handed out "
                                    "%llu times, expected %llu",
                                    static_cast<unsigned long long>(s),
                                    static_cast<unsigned long long>(slots[s]),
                                    static_cast<unsigned long long>(want)));
      }
    }
    const uint64_t writes = calls[kZapWrite];
    if (zap_.Written() != static_cast<int64_t>(writes) ||
        zap_.Flushed() !=
            writes / gocc::workloads::ZapLogger<Policy>::kFlushEvery *
                gocc::workloads::ZapLogger<Policy>::kFlushEvery) {
      return fail("zap written/flushed counts disagree with the writes made");
    }
    return true;
  }

 private:
  static int64_t Value(uint64_t key) {
    return static_cast<int64_t>(key * 2654435761ULL + 17);
  }

  gocc::workloads::GoCache<Policy> gocache_;
  gocc::workloads::ConcurrentSet<Policy> set_;
  gocc::workloads::FastCache<Policy> fastcache_;
  gocc::workloads::TallyScope<Policy> tally_;
  gocc::workloads::ZapLogger<Policy> zap_;
  std::array<uint64_t, 2 * kHistograms> histogram_ids_{};
  std::array<uint64_t, kCounters> counter_ids_{};
};

}  // namespace perfbench

#endif  // GOCC_PERFBENCH_PKG_MIX_H_
