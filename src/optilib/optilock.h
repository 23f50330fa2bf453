// OptiLock — the paper's adaptive transactional lock-elision runtime (§5.4,
// Appendix D).
//
// A transformed critical section declares a stack OptiLock and brackets the
// region with FastLock/FastUnlock. FastLock consults the perceptron, then
// either (a) starts a hardware transaction that *subscribes* to the elided
// lock word — any slow-path acquisition aborts the transaction, preserving
// mutual exclusion — or (b) falls back to acquiring the original lock.
// FastUnlock commits (fast path) or unlocks (slow path), verifies the mutex
// passed in matches the one recorded at FastLock (recovering from
// programmer-unintended pairings such as hand-over-hand locking, §5.2.3),
// and trains the perceptron.
//
// Two equivalent embeddings are provided:
//
//   gocc::optilib::OptiLock ol;              // paper-textual shape
//   OPTI_FAST_LOCK(ol, &mu);
//   ... critical section ...
//   ol.FastUnlock(&mu);
//
//   ol.WithLock(&mu, [&] { ... });           // idiomatic C++
//
// The macro plants the transaction checkpoint (setjmp for SimTM; real RTM
// uses its hardware checkpoint) in the caller's frame so an abort anywhere
// in the critical section re-executes it. The SimTM caveats from htm/tx.h
// apply to code between FastLock and FastUnlock.
//
// An OptiLock holds goroutine-local episode state and must not be shared by
// concurrent critical sections; declare it on the stack of each goroutine
// (the transformer does exactly this, § 5.3 "anonymous goroutines").

#ifndef GOCC_SRC_OPTILIB_OPTILOCK_H_
#define GOCC_SRC_OPTILIB_OPTILOCK_H_

#include <atomic>
#include <csetjmp>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "src/gosync/mutex.h"
#include "src/gosync/rwmutex.h"
#include "src/htm/abort.h"
#include "src/htm/tx.h"
#include "src/obs/event.h"
#include "src/optilib/perceptron.h"
#include "src/support/misuse.h"
#include "src/support/sharded.h"

namespace gocc::optilib {

// Runtime policy knobs (defaults follow the paper; the ablation benchmarks
// sweep them).
struct OptiConfig {
  // Gate HTM attempts behind the hashed perceptron (§5.4.1).
  bool use_perceptron = true;
  // Skip HTM entirely when GOMAXPROCS==1 (§5.4.2).
  bool single_proc_bypass = true;
  // Per-site inline decision cache (site_cache.h, DESIGN.md §4.11): while
  // the breaker and watchdog are off, a committed elide decision is
  // memoized per call-site cell and the next episode's decision is one
  // epoch-tagged load instead of the perceptron dot-product. Any config
  // publish/reclaim, watchdog trip, or RTM demotion bumps the decision
  // epoch, invalidating every cell in O(1). Perceptron training and every
  // existing counter keep their exact uncached semantics (cached-lock
  // verdicts still feed the slow-streak decay; commits still reward).
  // GOCC_SITE_CACHE overrides the default (on).
  bool site_cache = DefaultSiteCache();
  static bool DefaultSiteCache();
  // Retries after a LockHeld abort (Listing 19's MAX_ATTEMPTS).
  int max_attempts = 3;
  // Extra retries after conflict/capacity/spurious aborts (paper: 0 — any
  // non-LockHeld abort falls back to the lock immediately).
  int conflict_retries = 0;
  // Bounded pause-spin while the elided lock is held before starting a
  // transaction (Listing 19: "spin with pause till lock held").
  int spin_pauses_while_locked = 512;

  // sw-OCC backend only: retries after a commit-time validation failure
  // (kOccValidateFail) before the episode pins itself to the real lock —
  // the per-site livelock guard. Each retry waits a jittered backoff (the
  // same bounded-exponential schedule as conflict retries) so validation
  // storms de-synchronize instead of re-colliding. The GOCC_OCC_MAX_RETRIES
  // environment variable overrides the default.
  int occ_max_retries = DefaultOccMaxRetries();
  static int DefaultOccMaxRetries();

  // Multi-lock episodes (WithLocks, DESIGN.md §4.12): largest lock-set size
  // the runtime will still speculate on. Bigger sets go straight to the
  // address-sorted pessimistic acquire — every extra member widens the
  // conflict footprint and the expected abort cost grows with it, so the
  // ceiling is the coarse guard in front of the per-set perceptron. Capped
  // at OptiLock::kMaxLockSet (8); GOCC_MULTILOCK_SPECULATE_MAX overrides.
  int multilock_speculate_max = DefaultMultilockSpeculateMax();
  static int DefaultMultilockSpeculateMax();

  // --- abort-storm hardening (all default to seed-equivalent behaviour) ---

  // Bounded exponential backoff with deterministic jitter before retrying a
  // conflict-class abort (applies only while conflict_retries remain, so the
  // paper's default of immediate fallback is unchanged). Each retry waits a
  // jittered [limit/2, limit] pause-spins, with limit doubling from
  // backoff_base_pauses up to backoff_cap_pauses. 0 disables the wait.
  int backoff_base_pauses = 16;
  int backoff_cap_pauses = 2048;
  // Seed for the per-thread jitter streams (deterministic per thread).
  uint64_t backoff_seed = 0x6f707469'6c6f636bULL;

  // Per-(mutex, call-site) circuit breaker (see breaker.h): `threshold`
  // consecutive exhausted-budget fallbacks quarantine the pair's elision for
  // `cooldown` episodes, then re-probe once. 0 disables (default).
  // Cooldown default retuned from bench_service (EXPERIMENTS E-service):
  // under a storm-then-recover phase shift, 256 episodes held the victim
  // pair on the lock well past storm end (recovery tail dominated by the
  // quarantine, not the storm), while 192 re-probes earlier with the same
  // zero re-trip churn once the storm has actually ended.
  int breaker_threshold = 0;
  uint64_t breaker_cooldown_episodes = 192;

  // Episode watchdog: after `threshold` consecutive exhausted-budget
  // fallbacks process-wide with no intervening fast commit — the signature
  // of an abort storm or of RTM dying mid-run — hot-degrade every call site
  // to slow-path-only mode for `cooldown` episodes. In-flight episodes are
  // unaffected (the check sits in the pre-transaction decision path only).
  // 0 disables (default). Cooldown retuned alongside the breaker (same
  // bench_service evidence, same 4:3 ratio): process-wide slow-only mode is
  // far more expensive than a per-pair quarantine, so it gets the shorter
  // relative hold.
  int watchdog_threshold = 0;
  uint64_t watchdog_cooldown_episodes = 3072;

  // Episode trace recorder (src/obs): when true, every completed episode
  // appends one compact event (site, mutex, outcome, last abort, retries,
  // TSC duration) to the calling thread's obs ring buffer. Off by default;
  // the GOCC_OBS_TRACE environment variable flips the process-wide default
  // so any binary can be traced without code changes. With the flag off the
  // fast path pays one predicted branch on the episode's config snapshot
  // and no shared-line writes (the §6.2 perf-smoke gate covers this).
  bool trace_episodes = DefaultTraceEpisodes();
  static bool DefaultTraceEpisodes();

  // Episode-clock ticks a thread claims per refill (see NextEpisodeTick in
  // optilock.cc). 1 reproduces the unbatched global fetch_add exactly;
  // larger values amortize the shared RMW over `batch` episodes at the cost
  // of bounded cross-thread tick skew: a thread's current tick lags the
  // clock's frontier by at most `threads * batch` ticks. Breaker/watchdog
  // cooldowns tolerate that skew (a stale trip tick can only *shorten* an
  // observed quarantine by the skew bound, never extend it or un-quarantine
  // a cell before `cooldown - threads*batch` episodes have passed).
  int episode_clock_batch = 64;

  // Episode snapshot of the lock-API misuse policy (support/misuse.h):
  // governs recovery for misuse detected *inside* episodes (double
  // FastLock, unpaired/cross-thread unlocks, wrong-mode slow unlocks).
  // Defaults to the build-type policy with the GOCC_MISUSE_POLICY override;
  // mutex destructors, which have no episode snapshot, consult
  // support::GetMisusePolicy() instead.
  support::MisusePolicy misuse_policy = support::DefaultMisusePolicy();
};

// The live configuration. Direct writes through MutableOptiConfig() are the
// test/bench idiom and require episode quiescence (a concurrent episode
// snapshot would race the non-atomic fields); use PublishOptiConfig to
// change configuration while episodes are running.
OptiConfig& MutableOptiConfig();
const OptiConfig& GetOptiConfig();

// Atomically publishes `next` as the configuration for every episode that
// *starts* after the call (in-flight episodes keep the snapshot they took).
// Safe to call while episodes run on other threads: the value is written
// into a seqlock-guarded word store that episode snapshots copy with a
// validated atomic word-wise read, so a concurrent snapshot observes either
// the old or the new config, never a torn mix — with no reader-lifetime
// hazard (a reader preempted mid-copy simply retries; there is no slot that
// can be reused out from under it). Publishers must be externally
// serialized. A later MutableOptiConfig() call reclaims the direct store:
// the next quiescent write wins over anything previously published.
void PublishOptiConfig(const OptiConfig& next);

// Runtime counters, sharded per thread (support/sharded.h): an episode's
// bookkeeping writes only the calling thread's cache-line-padded shard, so
// disjoint-lock workloads share no stat cache line. The members keep the
// `.load()` / `.fetch_add()` shape of the plain atomics they replaced —
// `load()` sums across shards; all existing call sites read unchanged.
struct OptiStats {
  // Slot layout inside each per-thread shard. The hot path (optilock.cc)
  // indexes the raw shard with these instead of going through the handles.
  enum Slot : int {
    kFastCommits = 0,
    kNestedFastCommits,
    kSlowAcquires,
    kHtmAttempts,
    kPerceptronSlowDecisions,
    kPerceptronResets,
    kSingleProcBypasses,
    kMismatchRecoveries,
    kBackoffWaits,
    kBackoffPauses,
    kBreakerTrips,
    kBreakerShortCircuits,
    kBreakerReprobes,
    kWatchdogTrips,
    kWatchdogBypasses,
    kUnwindCancels,      // fast-path episodes cancelled by exception unwind
    kUnwindSlowUnlocks,  // slow-path episodes unlocked by exception unwind
    kOccFallbacks,       // sw-OCC validation-retry budgets exhausted
    kRtmDemotions,       // RTM re-probes that demoted the global backend
    kSiteCacheHits,      // decisions served from a cached per-site verdict
    kSiteCacheInstalls,  // verdicts (re-)memoized into a site cell
    kSiteCacheInvalidations,  // cells evicted by a failed elide / decay
    kMultiLockEpisodes,       // WithLocks episodes with >= 2 distinct locks
    kMultiLockFastCommits,    // ... that committed the whole set elided
    kMultiLockSlowAcquires,   // ... that ended on the sorted-2PL slow path
    kMultiLockAbortsUnattributed,  // set aborts no member word explains
    kMultiLockAbortMemberBase,     // + member index (abort blamed on the
                                   //   i-th sorted lock), kMaxLockSetSlots
    kEpisodeAbortsBase =           // + htm::AbortCode, kNumAbortCodes slots
        kMultiLockAbortMemberBase + 8 /* == OptiLock::kMaxLockSet */,
    kNumSlots = kEpisodeAbortsBase + htm::kNumAbortCodes,
  };

  OptiStats();

  support::ShardedCounter fast_commits;
  support::ShardedCounter nested_fast_commits;
  support::ShardedCounter slow_acquires;
  support::ShardedCounter htm_attempts;
  support::ShardedCounter perceptron_slow_decisions;
  support::ShardedCounter perceptron_resets;
  support::ShardedCounter single_proc_bypasses;
  support::ShardedCounter mismatch_recoveries;

  // Per-AbortCode histogram of aborts delivered to episodes (indexed by
  // htm::AbortCode; distinct from TxStats, which counts substrate aborts —
  // this one counts what optiLib's retry policy actually had to handle).
  support::ShardedCounter episode_aborts[htm::kNumAbortCodes];

  // Backoff / breaker / watchdog observability.
  support::ShardedCounter backoff_waits;
  support::ShardedCounter backoff_pauses;
  support::ShardedCounter breaker_trips;
  support::ShardedCounter breaker_short_circuits;
  support::ShardedCounter breaker_reprobes;
  support::ShardedCounter watchdog_trips;
  support::ShardedCounter watchdog_bypasses;

  // Exception-unwind observability (DESIGN.md §4.9): episodes ended by
  // AbandonEpisode instead of FastUnlock, split by which side of the
  // fast/slow fork they were on. Per-kind misuse counters live in
  // support/misuse.h (shared with the gosync destructors) and are appended
  // to ToString().
  support::ShardedCounter unwind_cancels;
  support::ShardedCounter unwind_slow_unlocks;

  // sw-OCC hardening observability: episodes that exhausted the
  // occ_max_retries validation budget and fell back to the lock (a subset
  // of slow_acquires), and mid-run RTM health re-probes that demoted the
  // global backend to software (satellite of DESIGN.md §4.10).
  support::ShardedCounter occ_fallbacks;
  support::ShardedCounter rtm_demotions;

  // Per-site decision-cache observability (§4.11): hits are decisions that
  // skipped the perceptron consult entirely; installs and invalidations
  // bound how often cells churn (steady state: hits >> installs).
  support::ShardedCounter site_cache_hits;
  support::ShardedCounter site_cache_installs;
  support::ShardedCounter site_cache_invalidations;

  // Multi-lock episode observability (§4.12). The commit rate the OLTP
  // bench reports is multilock_fast_commits / multilock_episodes; the
  // per-member histogram is the abort attribution — which sorted position
  // of the lock set killed the transaction (subscription-time conflicts
  // name the member exactly; commit-time conflicts are inferred from which
  // member's version word moved, or land in unattributed).
  support::ShardedCounter multilock_episodes;
  support::ShardedCounter multilock_fast_commits;
  support::ShardedCounter multilock_slow_acquires;
  support::ShardedCounter multilock_aborts_unattributed;
  support::ShardedCounter multilock_abort_member[8];

  uint64_t MultiLockAbortsOnMember(int member) const {
    return multilock_abort_member[member].load(std::memory_order_relaxed);
  }

  uint64_t EpisodeAborts(htm::AbortCode code) const {
    return episode_aborts[static_cast<int>(code)].load(
        std::memory_order_relaxed);
  }

  // The calling thread's private slot array (single-writer; index with
  // Slot). One lookup per episode replaces per-counter handle dispatch.
  std::atomic<uint64_t>* LocalShard() { return shards_.Local(); }
  size_t ShardCount() const { return shards_.ShardCount(); }
  size_t FreeShardCount() const { return shards_.FreeShardCount(); }
  uint64_t RetiredShardTotal() const { return shards_.RetiredShardTotal(); }

  void Reset();
  std::string ToString() const;

 private:
  support::ShardedCounters shards_{kNumSlots};
};

OptiStats& GlobalOptiStats();

// Clears cross-episode hardening state: every circuit-breaker cell, the
// watchdog's storm streak / slow-only window, and the episode clock —
// including each thread's locally cached tick batch, which is invalidated
// via an epoch bump (test & benchmark isolation; back-to-back runs start
// from tick zero).
void ResetHardeningState();

// Frontier of the process-wide episode clock: the next unclaimed tick
// (test/bench observability; threads may hold claimed-but-unused ticks
// below it, bounded by threads * episode_clock_batch).
uint64_t EpisodeClockFrontier();

// O(1) invalidation of every per-site cached decision (epoch bump). Called
// internally by PublishOptiConfig, MutableOptiConfig, watchdog trips, RTM
// demotions, and ResetHardeningState; exposed for tests and for external
// reconfiguration that bypasses those paths.
void InvalidateSiteDecisionCaches();

// The current decision epoch (monotone, starts at 1; test observability).
uint64_t SiteDecisionCacheEpoch();

class OptiLock {
 public:
  // Hard upper bound on a multi-lock episode's set size (after
  // deduplication). 8 covers every OLTP shape the workloads model (a
  // transfer touches 2 accounts; YCSB transactions run 2–8 keys) while
  // keeping the per-episode set state to one cache line of pointers.
  // Passing a larger set is a documented API-contract violation and
  // aborts the process — it cannot be "recovered" because the episode has
  // nowhere to record which locks it would need to release.
  static constexpr int kMaxLockSet = 8;

  OptiLock() = default;
  OptiLock(const OptiLock&) = delete;
  OptiLock& operator=(const OptiLock&) = delete;

  // --- unlock half of the paper-textual API ---
  void FastUnlock(gosync::Mutex* m);
  // RWMutex variants: reader elision (paper §5.1: "an RWMutex is no
  // different from a Mutex, except it offers additional APIs for read-only
  // accesses").
  void FastRUnlock(gosync::RWMutex* m);
  void FastWUnlock(gosync::RWMutex* m);
  // Releases a multi-lock episode (WithLocks / OPTI_FAST_LOCK_SET): commits
  // the transaction covering the whole set, or unlocks the sorted slow-path
  // acquisitions in reverse order. The validating overload checks the
  // caller's set matches the episode's (same members, any order) and routes
  // a mismatch through the usual recovery.
  void FastUnlockSet();
  void FastUnlockSet(gosync::Mutex* const* mutexes, int count);

  // --- lambda embeddings ---
  // Strongly exception-safe: if `fn` throws, the episode is abandoned
  // (AbandonEpisode) before the exception propagates — the transaction is
  // cancelled with every buffered write rolled back (fast path) or the
  // original lock is released (slow path). Either way the caller observes
  // the mutex free and, on the fast path, a critical section that never
  // happened.
  template <typename Fn>
  void WithLock(gosync::Mutex* m, Fn&& fn);
  template <typename Fn>
  void WithRLock(gosync::RWMutex* m, Fn&& fn);
  template <typename Fn>
  void WithWLock(gosync::RWMutex* m, Fn&& fn);

  // Multi-lock transactional episode (DESIGN.md §4.12): runs `fn` with
  // every mutex in the set held, as one atomic region. The fast path opens
  // ONE transaction and subscribes every member's lock word, so the whole
  // set is elided together — mutual exclusion against each member's
  // single-lock critical sections (elided or pessimistic) is preserved
  // exactly as in the single-lock protocol, per word. When speculation is
  // declined or defeated, the slow path acquires the members pessimistically
  // in global address order (duplicates removed), which makes concurrent
  // multi-lock fallbacks deadlock-free regardless of the order the caller
  // listed the locks. Exception safety matches WithLock: a throw abandons
  // the episode (transaction cancelled, or the whole sorted set unlocked)
  // before propagating. Sets of one degrade to exactly WithLock; sets
  // larger than kMaxLockSet abort the process (documented hard limit).
  template <typename Fn>
  void WithLocks(gosync::Mutex* const* mutexes, int count, Fn&& fn);
  template <typename Fn>
  void WithLocks(std::initializer_list<gosync::Mutex*> mutexes, Fn&& fn) {
    WithLocks(mutexes.begin(), static_cast<int>(mutexes.size()),
              std::forward<Fn>(fn));
  }

  // Unwind contract for the paper-textual OPTI_FAST_* / FastUnlock pairing:
  // code between FastLock and FastUnlock that can throw must abandon the
  // episode before letting the exception escape the frame that holds it —
  //
  //   OPTI_FAST_LOCK(ol, &mu);
  //   try { ... critical section ... } catch (...) {
  //     ol.AbandonEpisode();
  //     throw;
  //   }
  //   ol.FastUnlock(&mu);
  //
  // On the fast path this cancels the transaction in place (htm::TxCancel —
  // rollback and abort accounting without the longjmp, so C++ unwinding
  // continues normally and destructors run); on the slow path it releases
  // the lock in the mode actually held. Counted in unwind_cancels /
  // unwind_slow_unlocks. No-op when no episode is in flight, so it is safe
  // in a shared cleanup path. (Double-FastLock recovery reuses this
  // teardown, so a recovered stale episode is counted here as well.) Under real RTM a throw inside a hardware
  // transaction aborts to the checkpoint at the throw itself; the episode
  // retries and the exception only reaches the catch block from the slow
  // path, where this releases the lock. The perceptron is not trained by an
  // abandoned episode (it neither committed nor completed the slow path).
  void AbandonEpisode() noexcept;

  // True when the current episode fell back to the original lock.
  bool on_slow_path() const { return HasFlag(kFlagSlowPath); }

  // --- implementation hooks for the OPTI_FAST_* macros (not public API) ---
  std::jmp_buf& CheckpointEnv() { return env_; }
  void PrepareMutex(gosync::Mutex* m);
  void PrepareRead(gosync::RWMutex* m);
  void PrepareWrite(gosync::RWMutex* m);
  // Sorts and dedupes the caller's set into the episode (degrading to
  // PrepareMutex when one distinct lock remains) and applies the
  // multilock_speculate_max admission gate.
  void PrepareMutexSet(gosync::Mutex* const* mutexes, int count);
  // Runs after the checkpoint: `setjmp_code` is 0 on first entry or the
  // AbortCode delivered by a SimTM abort. Returns with either a transaction
  // open (fast path) or the original lock held (slow path).
  void FastLockStep(int setjmp_code);

 private:
  enum class Target : uint8_t { kNone, kMutex, kRWRead, kRWWrite, kMutexSet };

  void PrepareCommon();
  void AttemptLoop();
  // The first-attempt decision sequence (single-proc bypass, site cache,
  // watchdog, perceptron, breaker, backend pin). Returns true when the
  // episode should speculate; false when it already took the slow path.
  bool DecideElide();
  void HandleAbort(htm::AbortCode code);
  // Cold path behind the unlock-side misuse/mismatch test: classifies the
  // failure (unpaired, cross-thread, wrong target/mode) and applies the
  // §4.9 recovery. Only the wrong-target/mode case returns control to the
  // episode (via TxAbort's longjmp); the misuse cases report, recover, and
  // return so the unlock call site can bail out.
  void HandleUnlockMisuse(Target requested, void* passed);
  // Recovery for an unlock with no episode in flight: release `passed` in
  // the requested mode iff it is observably held (Go's cross-goroutine
  // handoff semantics); otherwise count-only (Go would panic).
  void RecoverUnpairedUnlock(Target requested, void* passed);
  // Jittered bounded-exponential pause-spin between conflict-class retries.
  void BackoffBeforeRetry();
  void TakeSlowPath();
  // Transactionally reads the elided lock word (adding it to the read set)
  // and aborts with LockHeld if the lock is unavailable.
  void SubscribeOrAbort();
  // Whether the sw-OCC backend may elide this episode's target: RWMutex
  // WRITE sections never (slow-path readers do not consult the occ word, so
  // an OCC writer could publish under their feet), and untracked mutexes
  // never (nothing maintains their occ word).
  bool SwOccEligible() const;
  bool TargetHeld() const;
  void FinishFastEpisode();
  void FinishSlowEpisode();
  void ResetEpisode();
  // --- multi-lock episode helpers (kind_ == kMutexSet only) ---
  // Transactionally subscribes every member in sorted order, recording each
  // member's subscription-time version word for commit-time attribution;
  // aborts (with the offending member blamed) when any member is
  // unavailable or the fault injector fires at kMultiLockSubscribe.
  void SubscribeSetOrAbort();
  // Sorted pessimistic acquisition of the whole set, with the
  // lock-order-inversion watermark pushed for the episode's duration.
  void AcquireSetSlow();
  // Reverse-sorted release (slow path / unwind), popping the watermark.
  void ReleaseSetSlow();
  // Names the member whose version word moved since subscription (first
  // changed wins), or -1 when no member word explains the abort. Feeds the
  // per-member abort histogram and the obs trace's blamed mutex id.
  int InferBlamedMember() const;
  // Abort-side bookkeeping shared by recorded and inferred attribution.
  void AttributeSetAbort();
  // True when the caller's (unsorted, possibly duplicated) set names
  // exactly the episode's deduplicated members.
  bool SetMatchesEpisode(gosync::Mutex* const* mutexes, int count) const;
  // Appends this episode's trace event to the calling thread's obs ring.
  // Only called when cfg_.trace_episodes is set, and always outside the
  // transaction (after TxCommit / after the slow-path unlock decision).
  void RecordEpisodeTrace(obs::Outcome outcome);

  gosync::Mutex* AsMutex() const {
    return static_cast<gosync::Mutex*>(target_);
  }
  gosync::RWMutex* AsRW() const {
    return static_cast<gosync::RWMutex*>(target_);
  }

  std::jmp_buf env_;
  void* target_ = nullptr;
  Target kind_ = Target::kNone;
  // Identity of the thread that opened the episode: the address of a
  // constant-initialized thread_local byte (unique among live threads, no
  // TLS-guard branch to read). Unlock paths compare it to detect
  // cross-thread unlocks; best-effort, since an exited thread's slot can be
  // reused by a new thread.
  const void* owner_ = nullptr;
  // Episode state booleans, fused into one flags word so the committed-
  // uncontended trajectory resets and tests them with single-word ops and
  // the guards they feed compile to predicted-not-taken branches off one
  // register (§4.11).
  //
  //  kFlagSlowPath       the paper's slowPath field: the episode fell back
  //                      to the original lock (target_ doubles as lkMutex)
  //  kFlagForceSlow      a mismatch/exhausted budget pinned this episode
  //                      to the slow path
  //  kFlagDecisionMade   the first-attempt decision sequence already ran
  //  kFlagPredictedHtm   the decision was to speculate (trains on finish)
  //  kFlagExhausted      the retry budget was exhausted by aborts — the
  //                      outcome the breaker and watchdog count (mismatch
  //                      and perceptron-directed fallbacks are not storms)
  //  kFlagOccFallback    a sw-OCC validation-retry budget ran dry; the slow
  //                      acquire is reported as obs::Outcome::kOccFallback
  //  kFlagBackendPinned  this episode pinned the thread's Tx dispatch to
  //                      the backend chosen at decision time; the outermost
  //                      episode unpins in ResetEpisode once quiescent
  //  kFlagSiteCacheHit   the decision was served from the per-site cache
  //                      (a commit then skips the redundant re-install)
  static constexpr uint32_t kFlagSlowPath = 1u << 0;
  static constexpr uint32_t kFlagForceSlow = 1u << 1;
  static constexpr uint32_t kFlagDecisionMade = 1u << 2;
  static constexpr uint32_t kFlagPredictedHtm = 1u << 3;
  static constexpr uint32_t kFlagExhausted = 1u << 4;
  static constexpr uint32_t kFlagOccFallback = 1u << 5;
  static constexpr uint32_t kFlagBackendPinned = 1u << 6;
  static constexpr uint32_t kFlagSiteCacheHit = 1u << 7;

  bool HasFlag(uint32_t f) const { return (flags_ & f) != 0; }
  void SetFlag(uint32_t f) { flags_ |= f; }
  void ClearFlag(uint32_t f) { flags_ &= ~f; }

  uint32_t flags_ = 0;
  // Thread abort epoch recorded when the episode was established; a
  // mismatch at the next FastLock distinguishes episode state stranded by a
  // flat-nesting abort (normal re-execution) from double-FastLock misuse
  // (see PrepareCommon).
  uint64_t abort_epoch_ = 0;
  int attempts_left_ = 0;
  int conflict_retries_left_ = 0;
  int occ_retries_left_ = 0;
  int backoff_exponent_ = 0;
  // This episode's tick of the process-wide episode clock (breaker/watchdog
  // cooldowns are measured in episodes). Under batching the tick is claimed
  // from the thread's local block, so it can lag the clock frontier by the
  // documented skew bound.
  uint64_t episode_now_ = 0;
  // Episode-trace bookkeeping (only written when cfg_.trace_episodes):
  // start timestamp, abort-retry count (saturating at obs::kMaxRetries) and
  // the most recent abort code, all private members — no shared state.
  uint64_t obs_start_ticks_ = 0;
  uint32_t obs_retries_ = 0;
  htm::AbortCode obs_last_abort_ = htm::AbortCode::kNone;
  Perceptron::Indices indices_{0, 0};
  // Multi-lock episode state. Only touched on the kMutexSet paths — the
  // single-lock fast path neither resets nor reads any of it (stale values
  // from a finished set episode are harmless because every consumer is
  // guarded by kind_ == kMutexSet), so the near-zero §4.11 episode cost is
  // unchanged. set_ holds the deduplicated members in ascending address
  // order: the subscription order (stable attribution), the slow-path
  // acquisition order (deadlock freedom), and the reverse release order.
  // set_seen_ holds each member's version word at subscription time (SimTM
  // stripe value or sw-OCC occ word) for commit-time abort attribution.
  gosync::Mutex* set_[kMaxLockSet] = {};
  uint64_t set_seen_[kMaxLockSet] = {};
  int set_size_ = 0;
  // Members the current attempt has subscribed so far (attribution scans
  // only these; an abort mid-subscription leaves the tail unseen).
  int set_subscribed_ = 0;
  // Member index an abort was pinned on (-1 = none yet / unattributed):
  // written before TxAbort's longjmp by the subscription path, read by
  // HandleAbort after the checkpoint re-entry.
  int blamed_member_ = -1;
  // Previous lock-order watermark, restored when the slow-path set
  // releases (the watermark is a thread-local; nesting restores outward).
  uintptr_t saved_watermark_ = 0;
  // Decision epoch observed at episode start: keys this episode's site-
  // cache lookups and installs (a concurrent bump makes both dead, never
  // wrong).
  uint64_t cache_epoch_ = 0;
  // Epoch the cfg_ snapshot below was copied under, published mode only
  // (0 = direct-mode snapshot, never reusable: the caller may hold the
  // mutable reference and edit fields between episodes).
  uint64_t cfg_epoch_ = 0;
  // Config snapshot taken once in PrepareCommon: the episode's decisions
  // all read this copy, so a concurrent config edit can never be observed
  // half-applied within one episode (and the hot path re-reads no globals).
  // In published mode the copy is skipped while the decision epoch is
  // unchanged — the OptiLock objects real workloads use are long-lived
  // (thread_local per site), so the ~9-word seqlock copy amortizes to one
  // epoch compare per episode.
  OptiConfig cfg_;
};

// The unwind protection is a try/catch rather than an RAII guard on
// purpose: a longjmp (SimTM abort) that skips a live non-trivially-
// destructible local is undefined behaviour, while a try block introduces
// no such local. The catch runs only during genuine C++ unwinding — SimTM
// aborts transfer control via the checkpoint and never enter it.

template <typename Fn>
void OptiLock::WithLock(gosync::Mutex* m, Fn&& fn) {
  PrepareMutex(m);
  {
    int checkpoint = setjmp(env_);
    FastLockStep(checkpoint);
  }
  try {
    fn();
  } catch (...) {
    AbandonEpisode();
    throw;
  }
  FastUnlock(m);
}

template <typename Fn>
void OptiLock::WithRLock(gosync::RWMutex* m, Fn&& fn) {
  PrepareRead(m);
  {
    int checkpoint = setjmp(env_);
    FastLockStep(checkpoint);
  }
  try {
    fn();
  } catch (...) {
    AbandonEpisode();
    throw;
  }
  FastRUnlock(m);
}

template <typename Fn>
void OptiLock::WithWLock(gosync::RWMutex* m, Fn&& fn) {
  PrepareWrite(m);
  {
    int checkpoint = setjmp(env_);
    FastLockStep(checkpoint);
  }
  try {
    fn();
  } catch (...) {
    AbandonEpisode();
    throw;
  }
  FastWUnlock(m);
}

template <typename Fn>
void OptiLock::WithLocks(gosync::Mutex* const* mutexes, int count, Fn&& fn) {
  PrepareMutexSet(mutexes, count);
  {
    int checkpoint = setjmp(env_);
    FastLockStep(checkpoint);
  }
  try {
    fn();
  } catch (...) {
    AbandonEpisode();
    throw;
  }
  FastUnlockSet();
}

}  // namespace gocc::optilib

// Paper-textual lock elision: replaces `m->Lock()`. Pair with
// `ol.FastUnlock(m)`. The enclosing frame must stay live until the unlock.
// If the bracketed region can throw, follow the unwind contract documented
// on OptiLock::AbandonEpisode — an exception that escapes the frame with
// the episode still open strands a transaction or a held lock.
#define OPTI_FAST_LOCK(ol, mutex_ptr)                 \
  do {                                                \
    (ol).PrepareMutex(mutex_ptr);                     \
    int gocc_checkpoint_ = setjmp((ol).CheckpointEnv()); \
    (ol).FastLockStep(gocc_checkpoint_);              \
  } while (false)

// Replaces `rw->RLock()`. Pair with `ol.FastRUnlock(rw)`.
#define OPTI_FAST_RLOCK(ol, rw_ptr)                   \
  do {                                                \
    (ol).PrepareRead(rw_ptr);                         \
    int gocc_checkpoint_ = setjmp((ol).CheckpointEnv()); \
    (ol).FastLockStep(gocc_checkpoint_);              \
  } while (false)

// Replaces `rw->Lock()`. Pair with `ol.FastWUnlock(rw)`.
#define OPTI_FAST_WLOCK(ol, rw_ptr)                   \
  do {                                                \
    (ol).PrepareWrite(rw_ptr);                        \
    int gocc_checkpoint_ = setjmp((ol).CheckpointEnv()); \
    (ol).FastLockStep(gocc_checkpoint_);              \
  } while (false)

// Paper-textual multi-lock elision: replaces an ordered sequence of
// `m->Lock()` calls with one transactional episode over the whole set.
// Pair with `ol.FastUnlockSet()` (or the validating overload). The same
// unwind contract as OPTI_FAST_LOCK applies to the bracketed region.
#define OPTI_FAST_LOCK_SET(ol, mutexes_ptr, count)    \
  do {                                                \
    (ol).PrepareMutexSet(mutexes_ptr, count);         \
    int gocc_checkpoint_ = setjmp((ol).CheckpointEnv()); \
    (ol).FastLockStep(gocc_checkpoint_);              \
  } while (false)

#endif  // GOCC_SRC_OPTILIB_OPTILOCK_H_
