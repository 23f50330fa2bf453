// FlatIndex: the per-thread transaction bookkeeping index.
//
// Maps a pointer-sized key (a stripe address, a cell address, a cache-line
// number) to a uint32_t payload (an index into a transaction's read or write
// log, or a bit mask). SimTM and sw-OCC consult one on every transactional
// access and reset it at every transaction exit, so both operations must be
// cheap at every footprint:
//
//  * open addressing with linear probing over one flat slot array — a
//    lookup is a multiply, a shift and (almost always) one slot load;
//  * clear() bumps an epoch tag instead of touching slots: a slot is live
//    only while its tag equals the current epoch, so every slot written in
//    an earlier epoch reads as empty. Only the 2^32-th clear pays a sweep;
//  * the table starts at kInitialSlots, doubles once live entries would
//    pass half the slots, and keeps its size across clears, so a thread in
//    steady state never allocates.
//
// No erase: transactions only ever add to their sets until they end.
// Not thread-safe; each instance belongs to one thread's transaction
// context.

#ifndef GOCC_SRC_HTM_FLAT_INDEX_H_
#define GOCC_SRC_HTM_FLAT_INDEX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gocc::htm {

class FlatIndex {
 public:
  static constexpr size_t kInitialSlots = 64;

  FlatIndex()
      : slots_(kInitialSlots), shift_(64 - std::countr_zero(kInitialSlots)) {}

  // The payload stored under `key`, or nullptr. The pointer is valid until
  // the next Insert.
  uint32_t* Find(uintptr_t key) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(key);; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {
        return nullptr;
      }
      if (s.key == key) {
        return &s.value;
      }
    }
  }
  uint32_t* Find(const void* key) {
    return Find(reinterpret_cast<uintptr_t>(key));
  }

  // Inserts `key -> value` unless `key` is present. Returns the payload now
  // stored under `key` (the existing one when present) and whether this
  // call inserted it. The pointer is valid until the next Insert.
  std::pair<uint32_t*, bool> Insert(uintptr_t key, uint32_t value) {
    if ((size_ + 1) * 2 > slots_.size()) [[unlikely]] {
      Grow();
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(key);; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {
        s = Slot{key, epoch_, value};
        ++size_;
        return {&s.value, true};
      }
      if (s.key == key) {
        return {&s.value, false};
      }
    }
  }
  std::pair<uint32_t*, bool> Insert(const void* key, uint32_t value) {
    return Insert(reinterpret_cast<uintptr_t>(key), value);
  }

  size_t size() const { return size_; }
  size_t slot_count() const { return slots_.size(); }

  // Empties the index in O(1) by retiring the current epoch.
  void clear() {
    size_ = 0;
    if (++epoch_ == 0) [[unlikely]] {
      // Wrapped: slots tagged with old epochs would come back to life as
      // the counter climbs again, so retag every slot empty first.
      ResetTags();
    }
  }

  // Test hook: empties the index and restarts the epoch counter at `epoch`
  // (nonzero), so a test can drive it through the wrap-around.
  void StartEpochForTesting(uint32_t epoch) {
    ResetTags();
    epoch_ = epoch;
    size_ = 0;
  }
  uint32_t epoch_for_testing() const { return epoch_; }

 private:
  struct Slot {
    uintptr_t key = 0;
    uint32_t epoch = 0;  // live iff == epoch_; 0 never is
    uint32_t value = 0;
  };

  // Fibonacci hashing: the multiply folds every key bit into the high bits,
  // which index the table, so aligned pointers (low bits all zero) spread.
  size_t Home(uintptr_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void ResetTags() {
    for (Slot& s : slots_) {
      s.epoch = 0;
    }
    epoch_ = 1;
  }

  [[gnu::noinline]] void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    const uint32_t live = epoch_;
    epoch_ = 1;  // the fresh array is all tag 0: restart the epoch count
    size_ = 0;
    for (const Slot& s : old) {
      if (s.epoch == live) {
        Insert(s.key, s.value);
      }
    }
  }

  std::vector<Slot> slots_;
  int shift_;  // 64 - log2(slots_.size())
  uint32_t epoch_ = 1;
  size_t size_ = 0;
};

}  // namespace gocc::htm

#endif  // GOCC_SRC_HTM_FLAT_INDEX_H_
