// Versioned-lock stripes (TL2-style) and the hashed stripe table.
//
// A stripe word encodes `version << 1 | locked`. Transactions validate reads
// against stripe versions; commit acquires the stripes of the write set,
// publishes the buffered values, and releases the stripes with a new
// version taken from the global clock.
//
// Most stripes are inline: every htm::Shared<T> cell carries its own beside
// its value (shared.h), and a tracked gosync mutex keeps one on its lock
// line. The table below serves only raw std::atomic cells (tests, the
// footprint bench and probes, occ-word subscriptions): each such word is
// hashed to one of kNumStripes table entries, which unrelated words may
// share.
//
// Non-transactional code that mutates memory watched by transactions (most
// importantly the gosync::Mutex state word a fast-path transaction
// "subscribes" to) must do so through StripeGuardedUpdate /
// StripeGuardedUpdateAt (tx.h), or a depth-0 TxStore / TxFetchAdd (or
// their *At forms), so in-flight readers of that stripe abort — this
// provides the strong-atomicity edge real RTM gets for free from cache
// coherence.

#ifndef GOCC_SRC_HTM_STRIPE_TABLE_H_
#define GOCC_SRC_HTM_STRIPE_TABLE_H_

#include <atomic>
#include <cstdint>

namespace gocc::htm {

inline constexpr size_t kNumStripes = 1u << 16;
inline constexpr uint64_t kStripeLockedBit = 1;

namespace internal {
// Storage for the inline accessors below. Stripes are individually padded:
// 64 Ki stripes * 64 B = 4 MiB — acceptable for a process-wide table and
// removes false sharing between stripes entirely.
struct alignas(64) PaddedStripe {
  std::atomic<uint64_t> word{0};
};
extern PaddedStripe g_stripes[kNumStripes];
extern std::atomic<uint64_t> g_clock;

inline size_t HashAddr(const void* addr) {
  auto p = reinterpret_cast<uintptr_t>(addr);
  // Mix to spread adjacent words (shift past the word-offset bits, then a
  // Fibonacci multiply).
  p >>= 3;
  p *= 0x9e3779b97f4a7c15ULL;
  return static_cast<size_t>(p >> 40) & (kNumStripes - 1);
}
}  // namespace internal

// Global version clock. Incremented once per writing commit. (Inline — the
// clock and stripe lookups sit on the per-access SimTM fast path.)
inline std::atomic<uint64_t>& GlobalClock() { return internal::g_clock; }

// The stripe guarding `addr`.
inline std::atomic<uint64_t>* StripeFor(const void* addr) {
  return &internal::g_stripes[internal::HashAddr(addr)].word;
}

// Stripe index (exposed for tests).
inline size_t StripeIndexFor(const void* addr) {
  return internal::HashAddr(addr);
}

inline bool StripeIsLocked(uint64_t stripe_word) {
  return (stripe_word & kStripeLockedBit) != 0;
}
inline uint64_t StripeVersion(uint64_t stripe_word) { return stripe_word >> 1; }

}  // namespace gocc::htm

#endif  // GOCC_SRC_HTM_STRIPE_TABLE_H_
