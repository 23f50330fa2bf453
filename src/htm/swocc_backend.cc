// The occ-word half of sw-OCC that gosync calls: pessimistic exclusive
// acquisition with writer-starvation detection, and its counters. The
// transactional half lives in tx.cc.

#include "src/htm/swocc.h"

#include "src/gosync/runtime.h"
#include "src/support/strings.h"

namespace gocc::htm {

std::string SwOccWordStats::ToString() const {
  return StrFormat(
      "swocc{writer_waits=%llu pending_sets=%llu publishes=%llu}",
      static_cast<unsigned long long>(
          writer_waits.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          writer_pending_sets.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          occ_publishes.load(std::memory_order_relaxed)));
}

SwOccWordStats& GlobalSwOccWordStats() {
  static SwOccWordStats stats;
  return stats;
}

void OccWordAcquireExclusive(std::atomic<uint64_t>* word) {
  uint64_t cur = word->load(std::memory_order_relaxed);
  if (!OccUnavailable(cur) &&
      word->compare_exchange_strong(cur, OccAcquired(cur),
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
    return;  // uncontended: no OCC committer holds the word
  }
  SwOccWordStats& stats = GlobalSwOccWordStats();
  stats.writer_waits.fetch_add(1, std::memory_order_relaxed);
  bool pending_raised = false;
  int failed_rounds = 0;
  while (true) {
    if (OccIsExclusive(cur)) {
      // An OCC committer is publishing; it releases in nanoseconds unless a
      // fault-injected stall stretches it. Poison counts as exclusive here:
      // locking a destroyed mutex is already undefined, spinning forever on
      // it would only hide the destructor's misuse report.
      gosync::CpuPause();
      ++failed_rounds;
      if (!pending_raised && failed_rounds >= kOccWriterStarvationSpins) {
        // Starvation detection: raise the pending flag so new OCC episodes
        // treat the word as held and stop winning the publish race from
        // under this (state_-owning) writer. OccAcquired clears it again.
        word->fetch_or(kOccWriterPendingBit, std::memory_order_relaxed);
        stats.writer_pending_sets.fetch_add(1, std::memory_order_relaxed);
        pending_raised = true;
      }
      cur = word->load(std::memory_order_relaxed);
      continue;
    }
    if (word->compare_exchange_weak(cur, OccAcquired(cur),
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
      return;
    }
    ++failed_rounds;
  }
}

}  // namespace gocc::htm
