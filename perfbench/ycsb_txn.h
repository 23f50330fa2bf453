// ycsb-txn: YCSB-style multi-record transactions over per-record locks.
//
// 2048 records, 8 Zipf(theta=0.6) keys per transaction, half read-only
// ReadTxn and half read-modify-write UpdateTxn, closed loop.
//
// Why: multi-lock admission (OptiLock::WithLocks) does most of the work,
// with per-access TxLoad/TxStore, commit validation, conflict aborts and
// the sorted-2PL fallback behind it. An 8-key update writes 16 words —
// SimTM's small-set spill boundary — so footprint costs show here. The
// service tier is not involved.
//
// Oracle: every UpdateTxn bumps each of its 8 records' versions once, so
// at quiescence the version sum equals 8 x the updates run.

#ifndef GOCC_PERFBENCH_YCSB_TXN_H_
#define GOCC_PERFBENCH_YCSB_TXN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "src/support/zipf.h"
#include "src/workloads/oltp/ycsb.h"

namespace perfbench {

template <typename Policy>
class YcsbTxn {
 public:
  static constexpr int kRecords = 2048;
  static constexpr int kKeysPerTxn = 8;
  static constexpr double kTheta = 0.6;
  enum Op : int { kReadTxn, kUpdateTxn };

  static const std::vector<std::string>& OpNames() {
    static const std::vector<std::string> kNames = {"read_txn", "update_txn"};
    return kNames;
  }

  struct alignas(64) Worker {
    Worker(uint64_t seed, uint64_t scramble_mul, uint64_t scramble_add)
        : zipf(kRecords, kTheta, seed),
          rng(seed ^ 0x6f70ULL),
          mul(scramble_mul),
          add(scramble_add) {}
    gocc::support::ZipfianGenerator zipf;
    gocc::SplitMix64 rng;
    uint64_t mul;
    uint64_t add;
    uint64_t keys[kKeysPerTxn] = {};
    uint64_t updates = 0;
    uint64_t reads = 0;
  };

  // The seed also picks which records are hot: popularity rank r maps to
  // record (r * mul + add) mod kRecords, a bijection for odd mul.
  explicit YcsbTxn(uint64_t seed) : table_(kRecords) {
    gocc::SplitMix64 mix(seed ^ 0x79637362ULL);
    mul_ = mix.Next() | 1;
    add_ = mix.Next();
  }

  Worker MakeWorker(uint64_t seed, int) const { return Worker(seed, mul_, add_); }

  int NextOp(Worker& w) {
    uint64_t ranks[kKeysPerTxn];
    w.zipf.NextDistinct(ranks, kKeysPerTxn);
    for (int i = 0; i < kKeysPerTxn; ++i) {
      w.keys[i] = (ranks[i] * w.mul + w.add) % kRecords;
    }
    return w.rng.NextBool(0.5) ? kUpdateTxn : kReadTxn;
  }

  bool RunOp(Worker& w, int op) {
    if (op == kUpdateTxn) {
      table_.UpdateTxn(w.keys, kKeysPerTxn);
      ++w.updates;
    } else {
      table_.ReadTxn(w.keys, kKeysPerTxn);
      ++w.reads;
    }
    return true;
  }

  bool Check(const std::vector<std::unique_ptr<Worker>>& workers,
             std::string* why) {
    uint64_t updates = 0;
    for (const auto& w : workers) {
      updates += w->updates;
    }
    const uint64_t versions = table_.TotalVersionsQuiescent();
    if (versions != updates * kKeysPerTxn) {
      *why = gocc::StrFormat(
          "ycsb-txn: version sum %llu != %d x %llu updates",
          static_cast<unsigned long long>(versions), kKeysPerTxn,
          static_cast<unsigned long long>(updates));
      return false;
    }
    return true;
  }

 private:
  gocc::workloads::oltp::YcsbTable<Policy> table_;
  uint64_t mul_ = 1;
  uint64_t add_ = 0;
};

}  // namespace perfbench

#endif  // GOCC_PERFBENCH_YCSB_TXN_H_
