#include "src/htm/tx.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "src/gosync/runtime.h"
#include "src/htm/fault.h"
#include "src/htm/flat_index.h"
#include "src/htm/rtm_backend.h"
#include "src/htm/stats.h"
#include "src/htm/stripe_table.h"
#include "src/htm/swocc.h"
#include "src/support/misuse.h"
#include "src/support/rng.h"
#include "src/support/strings.h"

namespace gocc::htm {
namespace {

constexpr int kStripeLockSpins = 256;

inline uintptr_t CacheLineOf(const void* addr) {
  return reinterpret_cast<uintptr_t>(addr) >> 6;
}

// SimTM read-set entry.
struct ReadEntry {
  std::atomic<uint64_t>* stripe;
  uint64_t version;  // stripe version observed at first read
  // Set by a writing commit that locked this stripe and already checked
  // its pre-lock version against `version`; read validation skips it.
  bool held = false;
};

// sw-OCC subscription: an occ word and the value it had when subscribed.
struct Subscription {
  const std::atomic<uint64_t>* word;
  uint64_t value;
};

struct WriteEntry {
  std::atomic<uint64_t>* addr;
  uint64_t value;
  // SimTM: the cell's version stripe, locked by the commit.
  std::atomic<uint64_t>* stripe;
  // sw-OCC: set while TxFetchAdd is the only access to the cell. The commit
  // then publishes `delta`, the summed adds, with an atomic fetch_add, so
  // adds made under other elided locks (other occ words) are not lost.
  uint64_t delta = 0;
  bool add_only = false;
};

// A SimTM stripe or sw-OCC occ word held by an in-progress commit, with
// the value it carried before the commit locked it.
struct LockedWord {
  std::atomic<uint64_t>* word;
  uint64_t pre_lock;
};

// Cache-line payload bits in TxContext::lines.
constexpr uint32_t kLineRead = 1;
constexpr uint32_t kLineWritten = 2;

// Per-thread software transaction context, shared by SimTM and sw-OCC. An
// episode runs on one backend (recorded at begin) and every exit clears
// every set, so the next episode finds the context clean whichever backend
// it runs on. Containers keep their capacity across transactions and the
// indexes clear by epoch, so steady-state operation allocates nothing and
// resetting costs the same at every footprint.
struct TxContext {
  int depth = 0;
  Backend backend = Backend::kSim;
  std::jmp_buf* env = nullptr;

  std::vector<WriteEntry> writes;
  FlatIndex write_index;  // addr -> index in `writes`
  std::vector<LockedWord> locked;

  // SimTM only.
  uint64_t rv = 0;
  std::vector<ReadEntry> reads;
  FlatIndex read_index;  // stripe -> index in `reads`
  // Cache line -> kLineRead | kLineWritten; the counters are the distinct
  // lines read / written, checked against the capacity limits.
  FlatIndex lines;
  size_t read_lines = 0;
  size_t write_lines = 0;
  // Scratch for SimCommit's sorted stripe list (reused capacity — a
  // per-commit local vector would malloc/free every episode).
  std::vector<std::atomic<uint64_t>*> commit_stripes;

  // sw-OCC only.
  std::vector<Subscription> subs;

  SplitMix64 rng{0};
  bool rng_seeded = false;

  void ResetSets() {
    writes.clear();
    write_index.clear();
    locked.clear();
    reads.clear();
    read_index.clear();
    lines.clear();
    read_lines = 0;
    write_lines = 0;
    subs.clear();
  }
};

// The write-set entry for `addr`, or nullptr.
WriteEntry* FindWrite(TxContext& tx, const std::atomic<uint64_t>* addr) {
  const uint32_t* i = tx.write_index.Find(addr);
  return i == nullptr ? nullptr : &tx.writes[*i];
}

// Appends a write-set entry for an address not yet in the write set.
WriteEntry& AppendWrite(TxContext& tx, std::atomic<uint64_t>* addr,
                        uint64_t value, std::atomic<uint64_t>* stripe) {
  tx.write_index.Insert(addr, static_cast<uint32_t>(tx.writes.size()));
  return tx.writes.emplace_back(WriteEntry{addr, value, stripe});
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

// Locks `stripe` for a non-transactional update, spinning while a
// committer holds it.
void LockStripe(std::atomic<uint64_t>* stripe) {
  uint64_t word = stripe->load(std::memory_order_relaxed);
  while (true) {
    if (StripeIsLocked(word)) {
      word = stripe->load(std::memory_order_relaxed);
      continue;
    }
    if (stripe->compare_exchange_weak(word, word | kStripeLockedBit,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      return;
    }
  }
}

// Unlocks a stripe taken by LockStripe with a fresh global-clock version.
// Versions must come from the global clock (not stripe-local increments) so
// that any version installed after a transaction sampled its read version
// is strictly greater — that is what makes per-read validation abort
// zombies eagerly.
void ReleaseStripeBumped(std::atomic<uint64_t>* stripe) {
  const uint64_t version =
      GlobalClock().fetch_add(1, std::memory_order_acq_rel) + 1;
  stripe->store(version << 1, std::memory_order_release);
}

// Non-transactional SimTM read with strong atomicity: a committer publishes
// its write set while holding the stripes, so waiting for an unlocked
// stripe guarantees the caller reads the final committed value, never an
// in-flight one. (Real RTM commits atomically at xend, making this window
// impossible in hardware.)
void WaitStripeUnlocked(const std::atomic<uint64_t>* stripe) {
  while (StripeIsLocked(stripe->load(std::memory_order_acquire))) {
    gosync::CpuPause();
  }
}

// Releases an occ word a sw-OCC commit holds exclusive (installed value
// `held`) to `next`, preserving a writer-pending flag raised while we held
// it (only that bit can change under us: the exclusive flag serializes
// every other writer of the word; the starving writer acquires next and
// clears it, so losing it here could let another committer cut the line).
void ReleaseOccWord(std::atomic<uint64_t>* word, uint64_t held,
                    uint64_t next) {
  uint64_t cur = held;
  while (!word->compare_exchange_weak(cur, next | (cur & kOccWriterPendingBit),
                                      std::memory_order_release,
                                      std::memory_order_relaxed)) {
  }
}

// Rollback half of an abort: releases what an in-progress commit locked
// (no write was published yet — publication only starts after every word
// is locked), records the abort, and clears all transaction state. Shared
// by AbortInternal (which then long-jumps) and TxCancel (which returns so a
// C++ exception can keep unwinding).
void RollbackInternal(TxContext& tx, AbortCode code) {
  for (const LockedWord& lw : tx.locked) {
    if (tx.backend == Backend::kSwOcc) {
      ReleaseOccWord(lw.word, OccAcquired(lw.pre_lock), lw.pre_lock);
    } else {
      lw.word->store(lw.pre_lock, std::memory_order_release);
    }
  }
  g_stats.RecordAbort(code);
  tx.depth = 0;
  tx.env = nullptr;
  tx.ResetSets();
}

[[noreturn]] void AbortInternal(TxContext& tx, AbortCode code) {
  std::jmp_buf* env = tx.env;
  RollbackInternal(tx, code);
  assert(env != nullptr && "software abort without a checkpoint");
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

// ---- SimTM: TL2 validation against versioned lock stripes.

// The w1/value/fence/w2 protocol: the stripe must be unlocked and no newer
// than the read version both before and after the data load. Returns the
// value and stores the observed stripe version in `version`.
inline uint64_t SimValidatedRead(TxContext& tx,
                                 const std::atomic<uint64_t>* addr,
                                 const std::atomic<uint64_t>* stripe,
                                 uint64_t& version) {
  const uint64_t w1 = stripe->load(std::memory_order_acquire);
  if (StripeIsLocked(w1) || StripeVersion(w1) > tx.rv) [[unlikely]] {
    AbortInternal(tx, AbortCode::kConflict);
  }
  const uint64_t value = addr->load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (stripe->load(std::memory_order_relaxed) != w1) [[unlikely]] {
    AbortInternal(tx, AbortCode::kConflict);
  }
  version = StripeVersion(w1);
  return value;
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

// Validated read of a value not in the write set, recorded in the read set
// (the first read of a stripe covers every later one) and charged to the
// line capacity as `touch`.
uint64_t SimRead(TxContext& tx, const std::atomic<uint64_t>* addr,
                 std::atomic<uint64_t>* stripe, uint32_t touch) {
  uint64_t version;
  const uint64_t value = SimValidatedRead(tx, addr, stripe, version);
  if (tx.read_index.Insert(stripe, static_cast<uint32_t>(tx.reads.size()))
          .second) {
    tx.reads.push_back({stripe, version});
  }
  TouchLine(tx, addr, touch);
  return value;
}

// Locks `stripe` for commit; returns false after bounded spinning.
bool LockStripeForCommit(TxContext& tx, std::atomic<uint64_t>* stripe) {
  for (int spin = 0; spin < kStripeLockSpins; ++spin) {
    uint64_t word = stripe->load(std::memory_order_relaxed);
    if (!StripeIsLocked(word)) {
      if (stripe->compare_exchange_weak(word, word | kStripeLockedBit,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        tx.locked.push_back({stripe, word});
        return true;
      }
    }
    gosync::CpuPause();
  }
  return false;
}

// Publishes a SimTM write set. A read-only transaction has nothing to do:
// per-read validation against the fixed read version already guarantees a
// consistent snapshot at rv.
void SimCommit(TxContext& tx) {
  if (tx.writes.empty()) {
    return;
  }

  // Lock the write set's stripes in address order (prevents deadlock
  // between committers).
  std::vector<std::atomic<uint64_t>*>& stripes = tx.commit_stripes;
  stripes.clear();
  for (const WriteEntry& w : tx.writes) {
    stripes.push_back(w.stripe);
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
      if (StripeVersion(tx.locked.back().pre_lock) != r.version) {
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
  for (const LockedWord& ls : tx.locked) {
    ls.word->store(wv << 1, std::memory_order_release);
  }
}

// ---- sw-OCC: invisible reads validated against subscribed occ words.
//
// Transactional reads make no shared store, writes are buffered, and
// correctness comes entirely from validating the subscribed occ words
// (swocc.h) — at every transactional read (opacity: a torn read aborts
// before the critical section can act on it) and again at commit. Raw
// transactions with no subscription get no isolation under this backend
// (there is no word to validate); OptiLock episodes always subscribe.

// Reader-side poison check: a subscribed word that turned into the
// destructor's poison pattern means the episode outlived its mutex. Report
// once per detection, then abort — under the recover policy the episode's
// retry loop re-subscribes, sees poison as "held", and degrades to the slow
// path, the same terminal state SimTM's stripe poisoning produces.
[[noreturn]] void ReportPoisonedRead(TxContext& tx,
                                     const std::atomic<uint64_t>* word) {
  support::ReportMisuse(support::MisuseKind::kElidedUseAfterDestroy, word,
                        "occ-word-poisoned-mid-episode");
  AbortInternal(tx, AbortCode::kOccValidateFail);
}

// Validates every subscription against its observed value. The caller has
// already issued the acquire fence that orders the preceding data reads
// before these relaxed re-loads (Boehm's seqlock recipe).
void ValidateSubscriptions(TxContext& tx) {
  for (const Subscription& s : tx.subs) {
    const uint64_t cur = s.word->load(std::memory_order_relaxed);
    if (cur != s.value) {
      if (OccIsPoisoned(cur)) {
        ReportPoisonedRead(tx, s.word);
      }
      AbortInternal(tx, AbortCode::kOccValidateFail);
    }
  }
}

// Invisible read with per-access revalidation: load the data, fence, then
// re-check every subscribed word.
uint64_t OccRead(TxContext& tx, const std::atomic<uint64_t>* addr) {
  const uint64_t value = addr->load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  ValidateSubscriptions(tx);
  return value;
}

// sw-OCC capacity counts write-set entries, checked before each new one.
void OccReserveWrite(TxContext& tx) {
  if (tx.writes.size() >= Config().write_capacity_lines) {
    AbortInternal(tx, AbortCode::kCapacity);
  }
}

uint64_t OccSubscribe(TxContext& tx, const std::atomic<uint64_t>* addr) {
  const uint64_t cur = addr->load(std::memory_order_acquire);
  if (OccIsPoisoned(cur)) {
    // Subscribing a destroyed mutex's word: report, then deliver the abort
    // the caller's lock-held check would anyway (the poison pattern reads
    // as exclusive+pending).
    ReportPoisonedRead(tx, addr);
  }
  for (const Subscription& s : tx.subs) {
    if (s.word == addr) {
      if (s.value != cur) {
        // Re-subscription of a word that changed since first observed
        // (flat-nested episode racing an exclusive owner): the snapshot is
        // already inconsistent.
        AbortInternal(tx, AbortCode::kOccValidateFail);
      }
      return cur;
    }
  }
  tx.subs.push_back({addr, cur});
  MaybeInjectedAbort(tx, fault::Site::kLoad);
  MaybeSpuriousAbort(tx);
  return cur;
}

void OccCommit(TxContext& tx) {
  // Forced validation failure (chaos: models a validation step that loses
  // every race) sits before the organic check so schedules can target it
  // precisely.
  MaybeInjectedAbort(tx, fault::Site::kOccValidate);

  if (tx.writes.empty()) {
    // Read-only commit: validate and go — no shared store anywhere in the
    // whole episode.
    std::atomic_thread_fence(std::memory_order_acquire);
    ValidateSubscriptions(tx);
    return;
  }

  // Read-write commit: lock every subscribed occ word in address order (the
  // CAS from the subscribed value *is* the validation: any intervening
  // exclusive owner changed the version). CAS failure aborts — never spins —
  // so two committers cannot hold-and-wait.
  std::sort(tx.subs.begin(), tx.subs.end(),
            [](const Subscription& a, const Subscription& b) {
              return a.word < b.word;
            });
  for (const Subscription& s : tx.subs) {
    if (!tx.locked.empty() && tx.locked.back().word == s.word) {
      continue;  // flat-nested duplicate subscription of the same word
    }
    auto* word = const_cast<std::atomic<uint64_t>*>(s.word);
    uint64_t expected = s.value;
    if (!word->compare_exchange_strong(expected, OccAcquired(s.value),
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
      if (OccIsPoisoned(expected)) {
        ReportPoisonedRead(tx, s.word);
      }
      AbortInternal(tx, AbortCode::kOccValidateFail);
    }
    tx.locked.push_back({word, s.value});
  }

  // Publish the buffered writes, then release the words with their bumped
  // versions. A raw transaction with writes but no subscription publishes
  // unguarded (only subscribing episodes get isolation).
  for (const WriteEntry& w : tx.writes) {
    if (w.add_only) {
      w.addr->fetch_add(w.delta, std::memory_order_relaxed);
    } else {
      w.addr->store(w.value, std::memory_order_relaxed);
    }
  }
  // Chaos hooks on the publish window: a stall here is a "delayed unlock"
  // (the words stay exclusive, widening the window concurrent subscribers
  // observe); an injected code is "version skew" (the release version jumps
  // by an extra step, probing that nothing downstream assumes version
  // continuity).
  fault::MaybeStallAt(fault::Site::kOccPublish);
  const bool skew =
      fault::MaybeInject(fault::Site::kOccPublish) != AbortCode::kNone;
  for (const LockedWord& lw : tx.locked) {
    const uint64_t installed = OccAcquired(lw.pre_lock);
    uint64_t release = installed & ~kOccExclusiveBit;
    if (skew) {
      release = OccAcquired(release) & ~kOccExclusiveBit;
    }
    ReleaseOccWord(lw.word, installed, release);
  }
  GlobalSwOccWordStats().occ_publishes.fetch_add(1, std::memory_order_relaxed);
}

// ---- The shared in-transaction frame (depth > 0, SimTM or sw-OCC).

uint64_t LoadInTx(TxContext& tx, Backend backend,
                  const std::atomic<uint64_t>* addr,
                  std::atomic<uint64_t>* stripe) {
  if (WriteEntry* w = FindWrite(tx, addr)) {
    w->add_only = false;  // the value was observed: publish it as a store
    return w->value;
  }
  const uint64_t value = backend == Backend::kSwOcc
                             ? OccRead(tx, addr)
                             : SimRead(tx, addr, stripe, kLineRead);
  MaybeInjectedAbort(tx, fault::Site::kLoad);
  MaybeSpuriousAbort(tx);
  return value;
}

// SimTM subscription of an elided lock word: when this is the opening read
// of an outermost transaction (the overwhelmingly common case) the sets are
// empty, so the entries are new and one line cannot exceed capacity;
// otherwise the general load. Both validate the caller's stripe, so nested
// subscriptions of an inline-stripe mutex still watch the stripe its
// transitions bump.
uint64_t SimSubscribe(TxContext& tx, const std::atomic<uint64_t>* addr,
                      std::atomic<uint64_t>* stripe) {
  if (tx.depth != 1 || !tx.reads.empty() || !tx.writes.empty()) [[unlikely]] {
    return LoadInTx(tx, Backend::kSim, addr, stripe);
  }
  uint64_t version;
  const uint64_t value = SimValidatedRead(tx, addr, stripe, version);
  tx.read_index.Insert(stripe, 0);
  tx.reads.push_back({stripe, version});
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

// Every entry point below reads CurrentBackend() at most once and handles, in
// order: RTM, then a call outside a transaction (where only SimTM waits on
// or bumps the stripe), then the shared software frame.

bool InTx() {
  if (CurrentBackend() == Backend::kRtm) {
    return RtmInTx();
  }
  return Tls().depth > 0;
}

int TxDepth() {
  if (CurrentBackend() == Backend::kRtm) {
    return RtmInTx() ? 1 : 0;
  }
  return Tls().depth;
}

BeginStatus TxBeginImpl(int setjmp_result, std::jmp_buf* env) {
  const Backend backend = CurrentBackend();
  if (backend == Backend::kRtm) {
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
    // Outermost begin: an injected failure is reported through the
    // BeginStatus (no checkpoint exists yet to long-jump to).
    AbortCode injected = fault::MaybeInject(fault::Site::kBegin);
    if (injected != AbortCode::kNone) {
      g_stats.RecordAbort(injected);
      return BeginStatus{false, injected};
    }
  }
  tx.depth = 1;
  tx.backend = backend;
  tx.env = env;
  if (backend == Backend::kSim) {
    tx.rv = GlobalClock().load(std::memory_order_acquire);
  }
  // No ResetSets here: every transaction exit (commit or abort) clears the
  // sets, so they are already clean on entry.
  BumpSlot(g_stats.LocalShard(), TxStats::kBegins);
  return BeginStatus{true, AbortCode::kNone};
}

void TxCommit() {
  const Backend backend = CurrentBackend();
  if (backend == Backend::kRtm) {
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
  tx.depth = 1;  // the commit may abort; keep state coherent until done
  MaybeInjectedAbort(tx, fault::Site::kCommit);
  const bool read_only = tx.writes.empty();
  if (backend == Backend::kSwOcc) {
    OccCommit(tx);
  } else {
    SimCommit(tx);
  }
  std::atomic<uint64_t>* shard = g_stats.LocalShard();
  BumpSlot(shard, TxStats::kCommits);
  if (read_only) {
    BumpSlot(shard, TxStats::kReadOnlyCommits);
  }
  tx.depth = 0;
  tx.env = nullptr;
  tx.ResetSets();
}

void TxAbort(AbortCode code) {
  if (CurrentBackend() == Backend::kRtm) {
    RtmAbort(code);
  }
  TxContext& tx = Tls();
  assert(tx.depth > 0 && "TxAbort outside a transaction");
  AbortInternal(tx, code);
}

void TxCancel(AbortCode code) {
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
  return TxLoadAt(addr, StripeFor(addr));
}

uint64_t TxLoadAt(const std::atomic<uint64_t>* addr,
                  std::atomic<uint64_t>* stripe) {
  const Backend backend = CurrentBackend();
  if (backend == Backend::kRtm) {
    // Inside an RTM transaction the hardware versions this load; outside,
    // it is a plain shared read.
    return addr->load(std::memory_order_acquire);
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    // sw-OCC is weakly atomic here: a read racing an in-flight publish can
    // observe a partial write set. Data protected by a lock must be read
    // under that lock — exactly Go's contract.
    if (backend == Backend::kSim) {
      WaitStripeUnlocked(stripe);
    }
    return addr->load(std::memory_order_acquire);
  }
  return LoadInTx(tx, backend, addr, stripe);
}

void TxStore(std::atomic<uint64_t>* addr, uint64_t value) {
  TxStoreAt(addr, value, StripeFor(addr));
}

void TxStoreAt(std::atomic<uint64_t>* addr, uint64_t value,
               std::atomic<uint64_t>* stripe) {
  const Backend backend = CurrentBackend();
  if (backend == Backend::kRtm) {
    if (RtmInTx()) {
      addr->store(value, std::memory_order_relaxed);
    } else {
      addr->store(value, std::memory_order_release);
    }
    return;
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    if (backend == Backend::kSim) {
      // Strong atomicity: make the non-transactional store visible to
      // concurrent transactions' validation.
      LockStripe(stripe);
      addr->store(value, std::memory_order_relaxed);
      ReleaseStripeBumped(stripe);
    } else {
      addr->store(value, std::memory_order_release);
    }
    return;
  }
  if (WriteEntry* w = FindWrite(tx, addr)) {
    w->value = value;
    w->add_only = false;
  } else {
    if (backend == Backend::kSwOcc) {
      OccReserveWrite(tx);
    } else {
      TouchLine(tx, addr, kLineWritten);
    }
    AppendWrite(tx, addr, value, stripe);
  }
  MaybeInjectedAbort(tx, fault::Site::kStore);
  MaybeSpuriousAbort(tx);
}

uint64_t TxSubscribe(const std::atomic<uint64_t>* addr) {
  return TxSubscribeAt(addr, StripeFor(addr));
}

uint64_t TxSubscribeAt(const std::atomic<uint64_t>* addr,
                       std::atomic<uint64_t>* stripe) {
  const Backend backend = CurrentBackend();
  if (backend == Backend::kRtm) [[unlikely]] {
    return addr->load(std::memory_order_acquire);
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) [[unlikely]] {
    if (backend == Backend::kSim) {
      WaitStripeUnlocked(stripe);
    }
    return addr->load(std::memory_order_acquire);
  }
  if (backend == Backend::kSwOcc) [[unlikely]] {
    return OccSubscribe(tx, addr);
  }
  return SimSubscribe(tx, addr, stripe);
}

uint64_t TxFetchAdd(std::atomic<uint64_t>* addr, uint64_t delta) {
  return TxFetchAddAt(addr, delta, StripeFor(addr));
}

uint64_t TxFetchAddAt(std::atomic<uint64_t>* addr, uint64_t delta,
                      std::atomic<uint64_t>* stripe) {
  const Backend backend = CurrentBackend();
  if (backend == Backend::kRtm) {
    if (RtmInTx()) {
      uint64_t next = addr->load(std::memory_order_relaxed) + delta;
      addr->store(next, std::memory_order_relaxed);
      return next;
    }
    return addr->fetch_add(delta, std::memory_order_acq_rel) + delta;
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    if (backend == Backend::kSwOcc) {
      return addr->fetch_add(delta, std::memory_order_acq_rel) + delta;
    }
    // Non-transactional RMW under the stripe lock: strongly atomic against
    // both committing transactions and other non-transactional updaters.
    LockStripe(stripe);
    const uint64_t next = addr->load(std::memory_order_relaxed) + delta;
    addr->store(next, std::memory_order_relaxed);
    ReleaseStripeBumped(stripe);
    return next;
  }

  if (WriteEntry* w = FindWrite(tx, addr)) {
    // The cell is already ours: the buffered value is the transaction-local
    // truth, no validation or set accounting is needed.
    w->value += delta;
    w->delta += delta;
    MaybeInjectedAbort(tx, fault::Site::kStore);
    MaybeSpuriousAbort(tx);
    return w->value;
  }
  uint64_t value;
  if (backend == Backend::kSwOcc) {
    value = OccRead(tx, addr);
    OccReserveWrite(tx);
  } else {
    value = SimRead(tx, addr, stripe, kLineRead | kLineWritten);
  }
  value += delta;
  WriteEntry& w = AppendWrite(tx, addr, value, stripe);
  w.delta = delta;
  w.add_only = backend == Backend::kSwOcc;
  MaybeInjectedAbort(tx, fault::Site::kLoad);
  MaybeInjectedAbort(tx, fault::Site::kStore);
  MaybeSpuriousAbort(tx);
  return value;
}

void StripeGuardedUpdate(const void* addr, void (*fn)(void*), void* arg) {
  StripeGuardedUpdateAt(StripeFor(addr), fn, arg);
}

void StripeGuardedUpdateAt(std::atomic<uint64_t>* stripe, void (*fn)(void*),
                           void* arg) {
  if (CurrentBackend() != Backend::kSim) {
    // Real RTM gets strong atomicity from cache coherence. Under sw-OCC
    // nothing validates against the stripe table — conflicts are carried by
    // the occ words the gosync transitions maintain — so the guarded update
    // is just the update.
    fn(arg);
    return;
  }
  LockStripe(stripe);
  fn(arg);
  ReleaseStripeBumped(stripe);
}

}  // namespace gocc::htm
