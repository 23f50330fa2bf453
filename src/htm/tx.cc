#include "src/htm/tx.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <vector>

#include "src/htm/fault.h"
#include "src/htm/flat_index.h"
#include "src/htm/rtm_backend.h"
#include "src/htm/stats.h"
#include "src/htm/stripe_table.h"
#include "src/htm/swocc_backend.h"
#include "src/support/rng.h"
#include "src/support/strings.h"

namespace gocc::htm {
namespace {

constexpr int kStripeLockSpins = 256;

inline uintptr_t CacheLineOf(const void* addr) {
  return reinterpret_cast<uintptr_t>(addr) >> 6;
}

struct ReadEntry {
  std::atomic<uint64_t>* stripe;
  uint64_t version;  // stripe version observed at first read
  // Set by a writing commit that locked this stripe and already checked
  // its pre-lock version against `version`; read validation skips it.
  bool held = false;
};

struct WriteEntry {
  std::atomic<uint64_t>* addr;
  uint64_t value;
};

struct LockedStripe {
  std::atomic<uint64_t>* stripe;
  uint64_t pre_lock_version;
};

// Cache-line payload bits in TxContext::lines.
constexpr uint32_t kLineRead = 1;
constexpr uint32_t kLineWritten = 2;

// Per-thread SimTM transaction context. Containers keep their capacity
// across transactions and the indexes clear by epoch, so steady-state
// operation allocates nothing and resetting costs the same at every
// footprint.
struct TxContext {
  int depth = 0;
  uint64_t rv = 0;
  std::jmp_buf* env = nullptr;

  std::vector<ReadEntry> reads;
  FlatIndex read_index;   // stripe -> index in `reads`
  std::vector<WriteEntry> writes;
  FlatIndex write_index;  // addr -> index in `writes`
  // Cache line -> kLineRead | kLineWritten; the counters are the distinct
  // lines read / written, checked against the capacity limits.
  FlatIndex lines;
  size_t read_lines = 0;
  size_t write_lines = 0;

  // Stripes locked during an in-progress commit; released on abort.
  std::vector<LockedStripe> locked;
  // Scratch for CommitOutermost's sorted stripe list (reused capacity —
  // a per-commit local vector would malloc/free every episode).
  std::vector<std::atomic<uint64_t>*> commit_stripes;

  SplitMix64 rng{0};
  bool rng_seeded = false;

  void ResetSets() {
    reads.clear();
    read_index.clear();
    writes.clear();
    write_index.clear();
    lines.clear();
    read_lines = 0;
    write_lines = 0;
    locked.clear();
  }
};

// The write-set entry for `addr`, or nullptr.
WriteEntry* FindWrite(TxContext& tx, const std::atomic<uint64_t>* addr) {
  const uint32_t* i = tx.write_index.Find(addr);
  return i == nullptr ? nullptr : &tx.writes[*i];
}

// TxContext has vector members, so a plain `thread_local TxContext` would
// pay the guarded-initialization wrapper on every access — and tx.cc
// touches the context several times per episode. The raw pointer below is
// trivially initialized (direct TLS load, no guard); the owning object is
// materialized once per thread in TlsSlow.
thread_local TxContext* tls_tx_ptr = nullptr;

[[gnu::noinline]] TxContext& TlsSlow() {
  thread_local TxContext ctx;
  tls_tx_ptr = &ctx;
  return ctx;
}

inline TxContext& Tls() {
  TxContext* p = tls_tx_ptr;
  return p != nullptr ? *p : TlsSlow();
}

TxStats g_stats;

// Single-writer bump of the calling thread's stat shard (see sharded.h).
inline void BumpSlot(std::atomic<uint64_t>* shard, int slot) {
  shard[slot].store(shard[slot].load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
}
inline void BumpSlot(int slot) { BumpSlot(g_stats.LocalShard(), slot); }

// Rollback half of an abort: releases stripes held by an in-progress
// commit, records the abort, and clears all transaction state. Shared by
// AbortInternal (which then long-jumps) and TxCancel (which returns so a
// C++ exception can keep unwinding).
void RollbackInternal(TxContext& tx, AbortCode code) {
  for (const LockedStripe& ls : tx.locked) {
    ls.stripe->store(ls.pre_lock_version << 1, std::memory_order_release);
  }
  g_stats.RecordAbort(code);
  tx.depth = 0;
  tx.env = nullptr;
  tx.ResetSets();
}

[[noreturn]] void AbortInternal(TxContext& tx, AbortCode code) {
  std::jmp_buf* env = tx.env;
  RollbackInternal(tx, code);
  assert(env != nullptr && "SimTM abort without a checkpoint");
  std::longjmp(*env, static_cast<int>(code));
}

// Fault-injection hook for in-transaction accesses: an injected code aborts
// through the normal rollback path, exactly like an organic abort.
void MaybeInjectedAbort(TxContext& tx, fault::Site site) {
  AbortCode code = fault::MaybeInject(site);
  if (code != AbortCode::kNone) {
    AbortInternal(tx, code);
  }
}

void MaybeSpuriousAbort(TxContext& tx) {
  const TxConfig& cfg = Config();
  if (cfg.spurious_abort_probability <= 0.0) {
    return;
  }
  if (!tx.rng_seeded) {
    tx.rng = SplitMix64(cfg.spurious_seed ^
                        reinterpret_cast<uintptr_t>(&tx));
    tx.rng_seeded = true;
  }
  if (tx.rng.NextBool(cfg.spurious_abort_probability)) {
    AbortInternal(tx, AbortCode::kSpurious);
  }
}

// Records the first read of `stripe` at `version` (later reads of the same
// stripe are already covered by that entry).
void RecordRead(TxContext& tx, std::atomic<uint64_t>* stripe,
                uint64_t version) {
  if (tx.read_index.Insert(stripe, static_cast<uint32_t>(tx.reads.size()))
          .second) {
    tx.reads.push_back({stripe, version});
  }
}

// Marks `addr`'s cache line as read and/or written (`touch`) and enforces
// the capacity limits on each first touch, read before write.
void TouchLine(TxContext& tx, const void* addr, uint32_t touch) {
  uint32_t& bits = *tx.lines.Insert(CacheLineOf(addr), 0).first;
  const uint32_t fresh = touch & ~bits;
  if (fresh == 0) {
    return;
  }
  bits |= fresh;
  const TxConfig& cfg = Config();
  if ((fresh & kLineRead) != 0 && ++tx.read_lines > cfg.read_capacity_lines) {
    AbortInternal(tx, AbortCode::kCapacity);
  }
  if ((fresh & kLineWritten) != 0 &&
      ++tx.write_lines > cfg.write_capacity_lines) {
    AbortInternal(tx, AbortCode::kCapacity);
  }
}

// Appends a write-set entry for an address not yet in the write set.
void AppendWrite(TxContext& tx, std::atomic<uint64_t>* addr, uint64_t value) {
  tx.write_index.Insert(addr, static_cast<uint32_t>(tx.writes.size()));
  tx.writes.push_back({addr, value});
}

// Locks `stripe` for commit; returns false after bounded spinning.
bool LockStripeForCommit(TxContext& tx, std::atomic<uint64_t>* stripe) {
  for (int spin = 0; spin < kStripeLockSpins; ++spin) {
    uint64_t word = stripe->load(std::memory_order_relaxed);
    if (!StripeIsLocked(word)) {
      if (stripe->compare_exchange_weak(word, word | kStripeLockedBit,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        tx.locked.push_back({stripe, StripeVersion(word)});
        return true;
      }
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  return false;
}

void CommitOutermost(TxContext& tx) {
  if (tx.writes.empty()) {
    // Read-only transaction: per-read validation against the fixed read
    // version already guarantees a consistent snapshot at rv; nothing to
    // publish.
    std::atomic<uint64_t>* shard = g_stats.LocalShard();
    BumpSlot(shard, TxStats::kCommits);
    BumpSlot(shard, TxStats::kReadOnlyCommits);
    tx.depth = 0;
    tx.env = nullptr;
    tx.ResetSets();
    return;
  }

  // Lock the stripes covering the write set in address order (prevents
  // deadlock between committers).
  std::vector<std::atomic<uint64_t>*>& stripes = tx.commit_stripes;
  stripes.clear();
  for (const WriteEntry& w : tx.writes) {
    stripes.push_back(StripeFor(w.addr));
  }
  std::sort(stripes.begin(), stripes.end());
  stripes.erase(std::unique(stripes.begin(), stripes.end()), stripes.end());
  for (std::atomic<uint64_t>* stripe : stripes) {
    if (!LockStripeForCommit(tx, stripe)) {
      AbortInternal(tx, AbortCode::kConflict);
    }
    // A write stripe we also read is validated here, against the version it
    // carried when we locked it; read validation below then skips it. A
    // write-only stripe may have any version (TL2: last-writer-wins is
    // fine, we hold the lock).
    if (const uint32_t* i = tx.read_index.Find(stripe)) {
      ReadEntry& r = tx.reads[*i];
      if (tx.locked.back().pre_lock_version != r.version) {
        AbortInternal(tx, AbortCode::kConflict);
      }
      r.held = true;
    }
  }

  const uint64_t wv =
      GlobalClock().fetch_add(1, std::memory_order_acq_rel) + 1;

  // Validate the rest of the read set: every stripe we read must still
  // carry the version we first observed, and must not be locked by another
  // committer.
  for (const ReadEntry& r : tx.reads) {
    if (r.held) {
      continue;
    }
    uint64_t word = r.stripe->load(std::memory_order_acquire);
    if (StripeIsLocked(word) || StripeVersion(word) != r.version) {
      AbortInternal(tx, AbortCode::kConflict);
    }
  }

  // Publish buffered writes, then release stripes with the commit version.
  for (const WriteEntry& w : tx.writes) {
    w.addr->store(w.value, std::memory_order_relaxed);
  }
  for (const LockedStripe& ls : tx.locked) {
    ls.stripe->store(wv << 1, std::memory_order_release);
  }

  BumpSlot(TxStats::kCommits);
  tx.depth = 0;
  tx.env = nullptr;
  tx.ResetSets();
}

// In-transaction validated read against a caller-supplied stripe: the
// shared body of TxLoad (global stripe table) and TxSubscribeAt (inline
// per-mutex stripe). Write-set lookup first, then the w1/value/fence/w2
// stripe protocol, then dedup + capacity accounting.
uint64_t TxLoadAtStripe(TxContext& tx, const std::atomic<uint64_t>* addr,
                        std::atomic<uint64_t>* stripe) {
  if (const WriteEntry* w = FindWrite(tx, addr)) {
    return w->value;
  }

  uint64_t w1 = stripe->load(std::memory_order_acquire);
  if (StripeIsLocked(w1) || StripeVersion(w1) > tx.rv) {
    AbortInternal(tx, AbortCode::kConflict);
  }
  uint64_t value = addr->load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  uint64_t w2 = stripe->load(std::memory_order_relaxed);
  if (w1 != w2) {
    AbortInternal(tx, AbortCode::kConflict);
  }

  RecordRead(tx, stripe, StripeVersion(w1));
  TouchLine(tx, addr, kLineRead);
  MaybeInjectedAbort(tx, fault::Site::kLoad);
  MaybeSpuriousAbort(tx);
  return value;
}

// SimTM body shared by TxSubscribe / TxSubscribeAt: first-access fast path
// when this is the opening read of an outermost transaction, otherwise the
// fully general load — both validating the caller's stripe, so nested
// subscriptions of an inline-stripe mutex still watch the stripe its
// transitions actually bump.
uint64_t SimSubscribe(TxContext& tx, const std::atomic<uint64_t>* addr,
                      std::atomic<uint64_t>* stripe) {
  if (tx.depth == 0) [[unlikely]] {
    // Non-transactional read with strong atomicity (see TxLoad).
    while (StripeIsLocked(stripe->load(std::memory_order_acquire))) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    return addr->load(std::memory_order_acquire);
  }
  if (tx.depth != 1 || !tx.reads.empty() || !tx.writes.empty()) [[unlikely]] {
    // Nested subscription or not the first access: full generality.
    return TxLoadAtStripe(tx, addr, stripe);
  }
  uint64_t w1 = stripe->load(std::memory_order_acquire);
  if (StripeIsLocked(w1) || StripeVersion(w1) > tx.rv) [[unlikely]] {
    AbortInternal(tx, AbortCode::kConflict);
  }
  uint64_t value = addr->load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  uint64_t w2 = stripe->load(std::memory_order_relaxed);
  if (w1 != w2) [[unlikely]] {
    AbortInternal(tx, AbortCode::kConflict);
  }
  // Empty sets: the entries are new and one line cannot exceed capacity.
  tx.read_index.Insert(stripe, 0);
  tx.reads.push_back({stripe, StripeVersion(w1)});
  tx.lines.Insert(CacheLineOf(addr), kLineRead);
  tx.read_lines = 1;
  MaybeInjectedAbort(tx, fault::Site::kLoad);
  MaybeSpuriousAbort(tx);
  return value;
}

}  // namespace

TxStats& GlobalTxStats() { return g_stats; }

std::string TxStats::ToString() const {
  return StrFormat(
      "begins=%llu commits=%llu (ro=%llu) aborts{conflict=%llu capacity=%llu "
      "explicit=%llu lock_held=%llu mismatch=%llu spurious=%llu "
      "occ_validate=%llu}",
      static_cast<unsigned long long>(begins.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(commits.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          read_only_commits.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          aborts_conflict.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          aborts_capacity.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          aborts_explicit.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          aborts_lock_held.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          aborts_mutex_mismatch.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          aborts_spurious.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          aborts_occ_validate.load(std::memory_order_relaxed)));
}

bool InTx() {
  switch (CurrentBackend()) {
    case Backend::kRtm:
      return RtmInTx();
    case Backend::kSwOcc:
      return SwOccInTx();
    case Backend::kSim:
      break;
  }
  return Tls().depth > 0;
}

int TxDepth() {
  if (CurrentBackend() == Backend::kSwOcc) {
    return SwOccDepth();
  }
  return Tls().depth;
}

BeginStatus TxBeginImpl(int setjmp_result, std::jmp_buf* env) {
  if (CurrentBackend() == Backend::kSwOcc) {
    return SwOccBeginImpl(setjmp_result, env);
  }
  if (CurrentBackend() == Backend::kRtm) {
    // Pre-RTM decision path: an injected code is reported exactly like an
    // xbegin that aborted before the transaction ran (models best-effort
    // refusal and TSX being disabled mid-run by microcode).
    if (!RtmInTx()) {
      AbortCode injected = fault::MaybeInject(fault::Site::kBegin);
      if (injected != AbortCode::kNone) {
        g_stats.RecordAbort(injected);
        return BeginStatus{false, injected};
      }
    }
    BeginStatus status = RtmBegin();
    if (status.started) {
      g_stats.begins.fetch_add(1, std::memory_order_relaxed);
    } else {
      g_stats.RecordAbort(status.abort_code);
    }
    return status;
  }

  TxContext& tx = Tls();
  if (setjmp_result != 0) {
    // An abort long-jumped back to the checkpoint; report it like xbegin
    // reporting the abort status in EAX.
    return BeginStatus{false, static_cast<AbortCode>(setjmp_result)};
  }
  if (tx.depth > 0) {
    // Flat nesting (RTM semantics): the nested transaction subsumes into the
    // outermost one; aborts roll back to the outermost checkpoint.
    ++tx.depth;
    return BeginStatus{true, AbortCode::kNone};
  }
  {
    // Outermost SimTM begin: an injected failure is reported through the
    // BeginStatus (no checkpoint exists yet to long-jump to).
    AbortCode injected = fault::MaybeInject(fault::Site::kBegin);
    if (injected != AbortCode::kNone) {
      g_stats.RecordAbort(injected);
      return BeginStatus{false, injected};
    }
  }
  tx.depth = 1;
  tx.env = env;
  tx.rv = GlobalClock().load(std::memory_order_acquire);
  // No ResetSets here: every transaction exit (commit or abort) clears the
  // sets, so they are already clean on entry.
  BumpSlot(TxStats::kBegins);
  return BeginStatus{true, AbortCode::kNone};
}

void TxCommit() {
  if (CurrentBackend() == Backend::kSwOcc) {
    SwOccCommit();
    return;
  }
  if (CurrentBackend() == Backend::kRtm) {
    RtmCommit();
    g_stats.commits.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    // Defensive (DESIGN.md §4.9): a misuse-recovered episode — e.g. an
    // unpaired FastUnlock cancelled via TxCancel inside flat nesting — can
    // leave an enclosing FastUnlock committing at depth zero. That flow has
    // already been counted as misuse; committing nothing is the defined
    // recovery, not UB.
    return;
  }
  if (--tx.depth > 0) {
    return;  // nested commit defers to the outermost (RTM behaviour)
  }
  tx.depth = 1;  // CommitOutermost may abort; keep state coherent until done
  MaybeInjectedAbort(tx, fault::Site::kCommit);
  CommitOutermost(tx);
}

void TxAbort(AbortCode code) {
  if (CurrentBackend() == Backend::kSwOcc) {
    SwOccAbort(code);
  }
  if (CurrentBackend() == Backend::kRtm) {
    RtmAbort(code);
  }
  TxContext& tx = Tls();
  assert(tx.depth > 0 && "TxAbort outside a transaction");
  AbortInternal(tx, code);
  // AbortInternal does not return.
  std::abort();
}

void TxCancel(AbortCode code) {
  if (CurrentBackend() == Backend::kSwOcc) {
    SwOccCancel(code);
    return;
  }
  if (CurrentBackend() == Backend::kRtm) {
    // An exception unwind cannot reach software with a hardware transaction
    // still open: the first unwind step aborts it back to xbegin
    // ("unwind-is-abort"). Nothing to cancel here.
    return;
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    return;
  }
  RollbackInternal(tx, code);
}

uint64_t TxLoad(const std::atomic<uint64_t>* addr) {
  if (CurrentBackend() == Backend::kSwOcc) {
    return SwOccLoad(addr);
  }
  if (CurrentBackend() == Backend::kRtm) {
    // Inside an RTM transaction the hardware versions this load; outside,
    // it is a plain shared read.
    return addr->load(std::memory_order_acquire);
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    // Non-transactional read with strong atomicity: a committer publishes
    // its write set while holding the stripes, so waiting for an unlocked
    // stripe guarantees we read the final committed value, never an
    // in-flight one. (Real RTM commits atomically at xend, making this
    // window impossible in hardware.)
    const std::atomic<uint64_t>* stripe = StripeFor(addr);
    while (StripeIsLocked(stripe->load(std::memory_order_acquire))) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    return addr->load(std::memory_order_acquire);
  }

  return TxLoadAtStripe(tx, addr, StripeFor(addr));
}

void TxStore(std::atomic<uint64_t>* addr, uint64_t value) {
  if (CurrentBackend() == Backend::kSwOcc) {
    SwOccStore(addr, value);
    return;
  }
  if (CurrentBackend() == Backend::kRtm) {
    if (RtmInTx()) {
      addr->store(value, std::memory_order_relaxed);
    } else {
      addr->store(value, std::memory_order_release);
    }
    return;
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    // Strong atomicity: make the non-transactional store visible to
    // concurrent transactions' validation. The new stripe version must come
    // from the global clock so it exceeds every in-flight read version.
    std::atomic<uint64_t>* stripe = StripeFor(addr);
    uint64_t word = stripe->load(std::memory_order_relaxed);
    while (true) {
      if (StripeIsLocked(word)) {
        word = stripe->load(std::memory_order_relaxed);
        continue;
      }
      if (stripe->compare_exchange_weak(word, word | kStripeLockedBit,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        break;
      }
    }
    addr->store(value, std::memory_order_relaxed);
    uint64_t version =
        GlobalClock().fetch_add(1, std::memory_order_acq_rel) + 1;
    stripe->store(version << 1, std::memory_order_release);
    return;
  }

  TouchLine(tx, addr, kLineWritten);
  if (WriteEntry* w = FindWrite(tx, addr)) {
    w->value = value;
  } else {
    AppendWrite(tx, addr, value);
  }
  MaybeInjectedAbort(tx, fault::Site::kStore);
  MaybeSpuriousAbort(tx);
}

uint64_t TxSubscribe(const std::atomic<uint64_t>* addr) {
  if (CurrentBackend() == Backend::kSwOcc) {
    return SwOccSubscribe(addr);
  }
  if (CurrentBackend() == Backend::kRtm) {
    return addr->load(std::memory_order_acquire);
  }
  return SimSubscribe(Tls(), addr, StripeFor(addr));
}

uint64_t TxSubscribeAt(const std::atomic<uint64_t>* addr,
                       std::atomic<uint64_t>* stripe) {
  const Backend backend = CurrentBackend();
  if (backend == Backend::kSwOcc) [[unlikely]] {
    return SwOccSubscribe(addr);
  }
  if (backend == Backend::kRtm) [[unlikely]] {
    return addr->load(std::memory_order_acquire);
  }
  return SimSubscribe(Tls(), addr, stripe);
}

uint64_t TxFetchAdd(std::atomic<uint64_t>* addr, uint64_t delta) {
  if (CurrentBackend() == Backend::kSwOcc) {
    return SwOccFetchAdd(addr, delta);
  }
  if (CurrentBackend() == Backend::kRtm) {
    if (RtmInTx()) {
      uint64_t next = addr->load(std::memory_order_relaxed) + delta;
      addr->store(next, std::memory_order_relaxed);
      return next;
    }
    return addr->fetch_add(delta, std::memory_order_acq_rel) + delta;
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    // Non-transactional RMW under the stripe lock: strongly atomic against
    // both committing transactions and other non-transactional updaters.
    std::atomic<uint64_t>* stripe = StripeFor(addr);
    uint64_t word = stripe->load(std::memory_order_relaxed);
    while (true) {
      if (StripeIsLocked(word)) {
        word = stripe->load(std::memory_order_relaxed);
        continue;
      }
      if (stripe->compare_exchange_weak(word, word | kStripeLockedBit,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        break;
      }
    }
    uint64_t next = addr->load(std::memory_order_relaxed) + delta;
    addr->store(next, std::memory_order_relaxed);
    uint64_t version =
        GlobalClock().fetch_add(1, std::memory_order_acq_rel) + 1;
    stripe->store(version << 1, std::memory_order_release);
    return next;
  }

  if (WriteEntry* w = FindWrite(tx, addr)) {
    // The cell is already ours: the buffered value is the transaction-local
    // truth, no stripe validation or set accounting is needed.
    w->value += delta;
    MaybeInjectedAbort(tx, fault::Site::kStore);
    MaybeSpuriousAbort(tx);
    return w->value;
  }

  // Validated read of the committed value (same protocol as TxLoad).
  std::atomic<uint64_t>* stripe = StripeFor(addr);
  uint64_t w1 = stripe->load(std::memory_order_acquire);
  if (StripeIsLocked(w1) || StripeVersion(w1) > tx.rv) {
    AbortInternal(tx, AbortCode::kConflict);
  }
  uint64_t value = addr->load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  uint64_t w2 = stripe->load(std::memory_order_relaxed);
  if (w1 != w2) {
    AbortInternal(tx, AbortCode::kConflict);
  }
  RecordRead(tx, stripe, StripeVersion(w1));
  TouchLine(tx, addr, kLineRead | kLineWritten);
  value += delta;
  AppendWrite(tx, addr, value);
  MaybeInjectedAbort(tx, fault::Site::kLoad);
  MaybeInjectedAbort(tx, fault::Site::kStore);
  MaybeSpuriousAbort(tx);
  return value;
}

void StripeGuardedUpdate(const void* addr, void (*fn)(void*), void* arg) {
  const Backend backend = CurrentBackend();
  if (backend == Backend::kRtm || backend == Backend::kSwOcc) {
    // Real RTM gets strong atomicity from cache coherence. Under sw-OCC
    // nothing validates against the stripe table — conflicts are carried by
    // the occ words the gosync transitions maintain — so the guarded update
    // is just the update.
    fn(arg);
    return;
  }
  std::atomic<uint64_t>* stripe = StripeFor(addr);
  uint64_t word = stripe->load(std::memory_order_relaxed);
  while (true) {
    if (StripeIsLocked(word)) {
      word = stripe->load(std::memory_order_relaxed);
      continue;
    }
    if (stripe->compare_exchange_weak(word, word | kStripeLockedBit,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      break;
    }
  }
  fn(arg);
  uint64_t version = GlobalClock().fetch_add(1, std::memory_order_acq_rel) + 1;
  stripe->store(version << 1, std::memory_order_release);
}

void StripeGuardedUpdateAt(std::atomic<uint64_t>* stripe, void (*fn)(void*),
                           void* arg) {
  const Backend backend = CurrentBackend();
  if (backend == Backend::kRtm || backend == Backend::kSwOcc) {
    fn(arg);
    return;
  }
  uint64_t word = stripe->load(std::memory_order_relaxed);
  while (true) {
    if (StripeIsLocked(word)) {
      word = stripe->load(std::memory_order_relaxed);
      continue;
    }
    if (stripe->compare_exchange_weak(word, word | kStripeLockedBit,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      break;
    }
  }
  fn(arg);
  uint64_t version = GlobalClock().fetch_add(1, std::memory_order_acq_rel) + 1;
  stripe->store(version << 1, std::memory_order_release);
}

}  // namespace gocc::htm
