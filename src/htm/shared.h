// Shared<T>: a transactionally-accessed memory cell.
//
// Under real RTM, every load/store inside a transaction is versioned by the
// hardware, so Go code needs no annotations. SimTM cannot intercept raw
// loads, so shared data that critical sections touch lives in Shared<T>
// cells, whose accessors route through the active transaction's read/write
// sets (and degrade to plain stripe-aware atomics outside transactions).
// This is the only API difference the software substitution imposes on
// workload code; see DESIGN.md §4.1.
//
// Layout: each cell is a 16-byte, 16-aligned slot holding the value and its
// own SimTM version stripe, so the two always share one cache line and a
// transactional access touches only that line — the way RTM detects
// conflicts in the data's own lines. Every access routes through that
// stripe (TxLoadAt / TxStoreAt / TxFetchAddAt); the hashed global stripe
// table is only for raw std::atomic cells. Under RTM and sw-OCC the stripe
// word is unused, and four cells fit a line instead of eight.
//
// T must be trivially copyable and at most 8 bytes (int, pointer, double,
// small structs). Larger shared state is expressed as arrays of Shared
// cells or Shared pointers to immutable payloads — the same shapes the Go
// workloads use (interned value blobs, pointer-swizzled maps).

#ifndef GOCC_SRC_HTM_SHARED_H_
#define GOCC_SRC_HTM_SHARED_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "src/htm/tx.h"

namespace gocc::htm {

template <typename T>
class alignas(16) Shared {
  static_assert(std::is_trivially_copyable_v<T>,
                "Shared<T> requires a trivially copyable T");
  static_assert(sizeof(T) <= sizeof(uint64_t),
                "Shared<T> cells hold at most 8 bytes");

 public:
  Shared() : cell_(0) {}
  explicit Shared(T initial) : cell_(Pack(initial)) {}

  Shared(const Shared&) = delete;
  Shared& operator=(const Shared&) = delete;

  // Transactional (or stripe-aware plain) load.
  T Load() const { return Unpack(TxLoadAt(&cell_, &stripe_)); }

  // Transactional (or strongly-atomic plain) store.
  void Store(T value) { TxStoreAt(&cell_, Pack(value), &stripe_); }

  // Read-modify-write inside the current transaction (or strongly atomic
  // outside one — note that outside a transaction this is NOT a single
  // atomic RMW; callers needing non-transactional RMW atomicity should hold
  // a lock, which is exactly the slow-path situation).
  template <typename Fn>
  T Update(Fn&& fn) {
    T next = fn(Load());
    Store(next);
    return next;
  }

  // Adds `delta` (arithmetic T only). For integral T this routes through the
  // fused TxFetchAdd — one write-set lookup and one validation instead of a
  // Load/Store pair (wrapping addition on zero-extended bits produces the
  // correct wrapped value in the low sizeof(T) bytes, so the bit-domain add
  // is exact for integers). Floating-point T takes the generic path.
  T Add(T delta) {
    static_assert(std::is_arithmetic_v<T>);
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
      return Unpack(TxFetchAddAt(&cell_, Pack(delta), &stripe_));
    } else {
      return Update([delta](T v) { return static_cast<T>(v + delta); });
    }
  }

  // Direct unversioned access for initialization before the cell becomes
  // visible to concurrent code.
  void StoreRelaxedInit(T value) {
    cell_.store(Pack(value), std::memory_order_relaxed);
  }
  T LoadRelaxed() const {
    return Unpack(cell_.load(std::memory_order_relaxed));
  }

  // The cell's address and its inline stripe (tests address both). The
  // address is untyped so a raw TxLoad, which would validate against the
  // hashed table instead of this stripe, does not compile on it.
  const void* cell() const { return &cell_; }
  std::atomic<uint64_t>* stripe() const { return &stripe_; }

 private:
  static uint64_t Pack(T value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(T));
    return bits;
  }
  static T Unpack(uint64_t bits) {
    T value;
    std::memcpy(&value, &bits, sizeof(T));
    return value;
  }

  mutable std::atomic<uint64_t> cell_;
  // SimTM version stripe (`version << 1 | locked`, stripe_table.h).
  mutable std::atomic<uint64_t> stripe_{0};
};

// A 16-byte slot at 16-byte alignment never straddles a 64-byte line, so a
// cell and its stripe always share one.
static_assert(sizeof(Shared<uint64_t>) == 16 &&
                  alignof(Shared<uint64_t>) == 16,
              "a Shared cell and its stripe must share one cache line");

}  // namespace gocc::htm

#endif  // GOCC_SRC_HTM_SHARED_H_
