// SimTM semantics: atomicity, isolation, abort codes, nesting, capacity,
// strong atomicity, fault injection.

#include <gtest/gtest.h>

#include <csetjmp>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/htm/config.h"
#include "src/htm/fault.h"
#include "src/htm/shared.h"
#include "src/htm/stats.h"
#include "src/htm/stripe_table.h"
#include "src/htm/swocc.h"
#include "src/htm/tx.h"

namespace gocc::htm {
namespace {

// Runs `body` in a transaction, retrying on abort. Returns the number of
// aborts observed before the commit, or -1 if it never committed.
template <typename Fn>
int RunTx(Fn&& body, int max_tries = 64) {
  std::jmp_buf env;
  volatile int aborts = 0;
  while (aborts < max_tries) {
    BeginStatus status = GOCC_TX_BEGIN(env);
    if (!status.started) {
      aborts = aborts + 1;
      continue;
    }
    body();
    TxCommit();
    return aborts;
  }
  return -1;
}

class HtmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ForceSimBackend();
    MutableConfig() = TxConfig{};
    GlobalTxStats().Reset();
  }
};

TEST_F(HtmTest, SharedRoundTripOutsideTx) {
  Shared<int64_t> cell(5);
  EXPECT_EQ(cell.Load(), 5);
  cell.Store(-9);
  EXPECT_EQ(cell.Load(), -9);
  EXPECT_EQ(cell.Add(4), -5);
  EXPECT_EQ(cell.Load(), -5);
}

TEST_F(HtmTest, SharedHoldsDoublesAndPointers) {
  Shared<double> d(1.25);
  EXPECT_DOUBLE_EQ(d.Load(), 1.25);
  int x = 0;
  Shared<int*> p(&x);
  EXPECT_EQ(p.Load(), &x);
}

TEST_F(HtmTest, CommitPublishesWrites) {
  Shared<int64_t> a(1);
  Shared<int64_t> b(2);
  int aborts = RunTx([&] {
    a.Store(10);
    b.Store(a.Load() + 10);
  });
  EXPECT_EQ(aborts, 0);
  EXPECT_EQ(a.Load(), 10);
  EXPECT_EQ(b.Load(), 20);
}

TEST_F(HtmTest, ReadYourOwnWrite) {
  Shared<int64_t> a(1);
  RunTx([&] {
    a.Store(7);
    EXPECT_EQ(a.Load(), 7);
    a.Store(8);
    EXPECT_EQ(a.Load(), 8);
  });
  EXPECT_EQ(a.Load(), 8);
}

TEST_F(HtmTest, ExplicitAbortRollsBackBufferedWrites) {
  Shared<int64_t> a(1);
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    a.Store(99);
    TxAbort(AbortCode::kExplicit);
    FAIL() << "TxAbort returned";
  }
  EXPECT_EQ(status.abort_code, AbortCode::kExplicit);
  EXPECT_FALSE(InTx());
  EXPECT_EQ(a.Load(), 1);  // the write never became visible
}

TEST_F(HtmTest, AbortCodeLockHeldSurfaces) {
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    TxAbort(AbortCode::kLockHeld);
  }
  EXPECT_EQ(status.abort_code, AbortCode::kLockHeld);
  EXPECT_EQ(GlobalTxStats().aborts_lock_held.load(), 1u);
}

TEST_F(HtmTest, WriteCapacityAbort) {
  MutableConfig().write_capacity_lines = 4;
  std::vector<std::unique_ptr<Shared<int64_t>>> cells;
  for (int i = 0; i < 64; ++i) {
    cells.push_back(std::make_unique<Shared<int64_t>>(0));
  }
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    for (auto& c : cells) {
      c->Store(1);  // each heap cell lands on its own line eventually
    }
    TxCommit();
  }
  EXPECT_FALSE(status.started);
  EXPECT_EQ(status.abort_code, AbortCode::kCapacity);
  // Nothing was published.
  for (auto& c : cells) {
    EXPECT_EQ(c->Load(), 0);
  }
}

TEST_F(HtmTest, ReadCapacityAbort) {
  MutableConfig().read_capacity_lines = 4;
  std::vector<std::unique_ptr<Shared<int64_t>>> cells;
  for (int i = 0; i < 64; ++i) {
    cells.push_back(std::make_unique<Shared<int64_t>>(1));
  }
  std::jmp_buf env;
  volatile int64_t sum = 0;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    int64_t local = 0;
    for (auto& c : cells) {
      local += c->Load();
    }
    sum = local;
    TxCommit();
  }
  EXPECT_FALSE(status.started);
  EXPECT_EQ(status.abort_code, AbortCode::kCapacity);
  EXPECT_EQ(sum, 0);
}

TEST_F(HtmTest, RepeatedAccessToOneCellDoesNotExhaustCapacity) {
  MutableConfig().write_capacity_lines = 2;
  MutableConfig().read_capacity_lines = 2;
  Shared<int64_t> a(0);
  int aborts = RunTx([&] {
    for (int i = 0; i < 10000; ++i) {
      a.Add(1);
    }
  });
  EXPECT_EQ(aborts, 0);
  EXPECT_EQ(a.Load(), 10000);
}

TEST_F(HtmTest, NestedCommitDefersToOutermost) {
  Shared<int64_t> a(0);
  std::jmp_buf outer_env;
  std::jmp_buf inner_env;
  BeginStatus outer = GOCC_TX_BEGIN(outer_env);
  ASSERT_TRUE(outer.started);
  a.Store(1);
  BeginStatus inner = GOCC_TX_BEGIN(inner_env);
  ASSERT_TRUE(inner.started);
  EXPECT_EQ(TxDepth(), 2);
  a.Store(2);
  TxCommit();  // inner: must not publish yet
  EXPECT_TRUE(InTx());
  // Not yet visible outside: check via the raw cell (relaxed read bypasses
  // the write buffer).
  EXPECT_EQ(a.LoadRelaxed(), 0);
  TxCommit();  // outermost: publishes everything
  EXPECT_FALSE(InTx());
  EXPECT_EQ(a.Load(), 2);
}

TEST_F(HtmTest, NestedAbortRollsBackToOutermost) {
  Shared<int64_t> a(0);
  std::jmp_buf outer_env;
  volatile bool aborted = false;
  BeginStatus outer = GOCC_TX_BEGIN(outer_env);
  if (outer.started) {
    a.Store(1);
    std::jmp_buf inner_env;
    BeginStatus inner = GOCC_TX_BEGIN(inner_env);
    ASSERT_TRUE(inner.started);
    a.Store(2);
    TxAbort(AbortCode::kExplicit);  // flattening: lands at the OUTER begin
    FAIL() << "unreachable";
  } else {
    aborted = true;
    EXPECT_EQ(outer.abort_code, AbortCode::kExplicit);
  }
  EXPECT_TRUE(aborted);
  EXPECT_EQ(a.Load(), 0);
  EXPECT_FALSE(InTx());
}

TEST_F(HtmTest, NonTxWriteInvalidatesWritingReaderAtCommit) {
  Shared<int64_t> a(0);
  Shared<int64_t> b(0);
  std::jmp_buf env;
  volatile int pass = 0;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    (void)a.Load();  // subscribe (this is what FastLock does to a lock word)
    b.Store(1);      // make the transaction a writer so commit validates
    if (pass == 0) {
      pass = 1;
      // A "remote" strongly-atomic write to the subscribed cell (what a
      // slow-path mutex acquisition does to the subscribed lock word).
      StripeGuardedUpdateAt(a.stripe(), [&] {});
    }
    TxCommit();  // first pass must fail read-set validation
    EXPECT_EQ(pass, 1);
  } else {
    EXPECT_EQ(status.abort_code, AbortCode::kConflict);
    pass = 2;
  }
  EXPECT_EQ(pass, 2) << "commit after a conflicting non-tx write must abort";
}

// Writing commits validate a stripe they both read and write at lock time,
// against the version it carried when locked: a strongly-atomic bump of
// that stripe between the read and the commit must abort the commit.
TEST_F(HtmTest, MultiWriteCommitCatchesBumpOfReadAndWrittenStripe) {
  Shared<int64_t> a(0);
  Shared<int64_t> b(0);
  std::jmp_buf env;
  volatile int pass = 0;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    const int64_t seen = a.Load();
    if (pass == 0) {
      pass = 1;
      StripeGuardedUpdateAt(a.stripe(), [&] {});
    }
    a.Store(seen + 1);  // `a`'s stripe is now read and written
    b.Store(seen + 1);  // two writes: the multi-write commit
    TxCommit();
    ADD_FAILURE() << "commit over a bumped read-and-written stripe";
  } else {
    EXPECT_EQ(status.abort_code, AbortCode::kConflict);
    pass = 2;
  }
  EXPECT_EQ(pass, 2);
  EXPECT_EQ(a.Load(), 0);
  EXPECT_EQ(b.Load(), 0);
  EXPECT_EQ(GlobalTxStats().aborts_conflict.load(), 1u);
}

TEST_F(HtmTest, MultiWriteCommitOfReadAndWrittenStripeCommits) {
  Shared<int64_t> a(5);
  Shared<int64_t> b(0);
  int aborts = RunTx([&] {
    const int64_t seen = a.Load();
    a.Store(seen + 1);
    b.Store(seen + 1);
  });
  EXPECT_EQ(aborts, 0);
  EXPECT_EQ(a.Load(), 6);
  EXPECT_EQ(b.Load(), 6);
}

// Read-your-own-write across a 64-entry write set: every load of a written
// cell returns the buffered value, also after overwrites, and the commit
// publishes the last value of each.
TEST_F(HtmTest, ReadYourOwnWriteInSixtyFourWriteTx) {
  constexpr int kWrites = 64;
  std::vector<std::unique_ptr<Shared<int64_t>>> cells;
  for (int i = 0; i < kWrites; ++i) {
    cells.push_back(std::make_unique<Shared<int64_t>>(-1));
  }
  int aborts = RunTx([&] {
    for (int i = 0; i < kWrites; ++i) {
      cells[static_cast<size_t>(i)]->Store(i);
    }
    for (int i = 0; i < kWrites; ++i) {
      EXPECT_EQ(cells[static_cast<size_t>(i)]->Load(), i);
      cells[static_cast<size_t>(i)]->Store(i * 10);
    }
    for (int i = 0; i < kWrites; ++i) {
      EXPECT_EQ(cells[static_cast<size_t>(i)]->Add(1), i * 10 + 1);
    }
  });
  EXPECT_EQ(aborts, 0);
  for (int i = 0; i < kWrites; ++i) {
    EXPECT_EQ(cells[static_cast<size_t>(i)]->Load(), i * 10 + 1);
  }
}

// A read-only transaction is serializable at its begin point (every read is
// validated against the fixed read version), so a later remote write does
// NOT abort it — the transaction simply serializes before the writer. This
// is what makes elided read-only critical sections conflict-free (§6.1).
TEST_F(HtmTest, ReadOnlyTxSerializesBeforeLaterRemoteWrite) {
  Shared<int64_t> a(7);
  std::jmp_buf env;
  volatile int64_t seen = -1;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    seen = a.Load();
    StripeGuardedUpdateAt(a.stripe(), [&] {});  // remote write after our read
    TxCommit();
  }
  EXPECT_TRUE(status.started);
  EXPECT_EQ(seen, 7);
}

TEST_F(HtmTest, ReadAfterRemoteBumpAbortsEagerly) {
  Shared<int64_t> a(0);
  std::jmp_buf env;
  volatile int state = 0;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    if (state == 0) {
      state = 1;
      // A strongly-atomic remote write installs a stripe version newer than
      // our read version: the very next read of `a` must abort eagerly
      // (zombie prevention), not wait until commit.
      StripeGuardedUpdateAt(a.stripe(), [&] {});
      (void)a.Load();
      ADD_FAILURE() << "load of a newer-versioned stripe did not abort";
    }
    TxCommit();
  } else {
    EXPECT_EQ(status.abort_code, AbortCode::kConflict);
    state = 2;
  }
  EXPECT_EQ(state, 2);
}

TEST_F(HtmTest, SpuriousAbortInjection) {
  MutableConfig().spurious_abort_probability = 1.0;
  Shared<int64_t> a(0);
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    a.Store(1);  // first access triggers the injected abort
    TxCommit();
    FAIL() << "expected spurious abort";
  }
  EXPECT_EQ(status.abort_code, AbortCode::kSpurious);
  EXPECT_EQ(a.LoadRelaxed(), 0);
}

TEST_F(HtmTest, StatsCountCommitsAndAborts) {
  Shared<int64_t> a(0);
  RunTx([&] { a.Store(1); });
  RunTx([&] { (void)a.Load(); });
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    TxAbort(AbortCode::kExplicit);
  }
  const TxStats& stats = GlobalTxStats();
  EXPECT_EQ(stats.commits.load(), 2u);
  EXPECT_EQ(stats.read_only_commits.load(), 1u);
  EXPECT_EQ(stats.aborts_explicit.load(), 1u);
  EXPECT_EQ(stats.begins.load(), 3u);
}

// Runs `body` once as a transaction pinned to `backend`; returns kNone when
// it committed, else the code of the abort that ended the attempt.
template <typename Fn>
AbortCode AttemptOn(Backend backend, Fn&& body) {
  PinThreadBackend(backend);
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    body();
    TxCommit();
  }
  UnpinThreadBackend();
  return status.started ? AbortCode::kNone : status.abort_code;
}

// SimTM and sw-OCC episodes interleaved on one thread: whatever one backend
// leaves behind in the thread's transaction state (buffered writes, locked
// words, depth) must not leak into the next episode on the other backend.
TEST_F(HtmTest, BackendAlternationOnOneThread) {
  Shared<int64_t> x(0);
  Shared<int64_t> y(0);
  std::atomic<uint64_t> words[2] = {0, 0};  // occ words, address-ordered
  const TxStats& stats = GlobalTxStats();
  auto expect_state = [&](int64_t want_x, int64_t want_y, uint64_t begins,
                          uint64_t commits, uint64_t aborts) {
    EXPECT_EQ(x.Load(), want_x);
    EXPECT_EQ(y.Load(), want_y);
    EXPECT_EQ(stats.begins.load(), begins);
    EXPECT_EQ(stats.commits.load(), commits);
    EXPECT_EQ(stats.TotalAborts(), aborts);
    for (Backend b : {Backend::kSim, Backend::kSwOcc}) {
      PinThreadBackend(b);
      EXPECT_FALSE(InTx());
      EXPECT_EQ(TxDepth(), 0);
      UnpinThreadBackend();
    }
  };

  EXPECT_EQ(AttemptOn(Backend::kSim, [&] { x.Store(1); }), AbortCode::kNone);
  expect_state(1, 0, 1, 1, 0);

  EXPECT_EQ(AttemptOn(Backend::kSwOcc,
                      [&] {
                        (void)TxSubscribe(&words[0]);
                        y.Store(1);
                      }),
            AbortCode::kNone);
  expect_state(1, 1, 2, 2, 0);
  const uint64_t w0 = words[0].load();
  EXPECT_EQ(OccVersion(w0), 1u);

  fault::FaultPlan plan;
  plan.AbortNext(fault::Site::kCommit, 1, AbortCode::kConflict);
  fault::Arm(plan);
  EXPECT_EQ(AttemptOn(Backend::kSim, [&] { x.Store(2); }),
            AbortCode::kConflict);
  fault::Disarm();
  expect_state(1, 1, 3, 2, 1);

  plan = fault::FaultPlan{};
  plan.AbortNext(fault::Site::kOccValidate, 1, AbortCode::kOccValidateFail);
  fault::Arm(plan);
  EXPECT_EQ(AttemptOn(Backend::kSwOcc,
                      [&] {
                        (void)TxSubscribe(&words[0]);
                        y.Store(2);
                      }),
            AbortCode::kOccValidateFail);
  fault::Disarm();
  expect_state(1, 1, 4, 2, 2);
  EXPECT_EQ(words[0].load(), w0);

  // Organic validation failure with a word already locked: the commit locks
  // words[0], then finds words[1] moved on and must roll words[0] back.
  EXPECT_EQ(AttemptOn(Backend::kSwOcc,
                      [&] {
                        (void)TxSubscribe(&words[0]);
                        (void)TxSubscribe(&words[1]);
                        y.Store(3);
                        words[1].store(OccAcquired(0) & ~kOccExclusiveBit);
                      }),
            AbortCode::kOccValidateFail);
  expect_state(1, 1, 5, 2, 3);
  EXPECT_EQ(words[0].load(), w0);

  PinThreadBackend(Backend::kSim);
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  ASSERT_TRUE(status.started);
  x.Store(3);
  TxCancel(AbortCode::kExplicit);
  UnpinThreadBackend();
  expect_state(1, 1, 6, 2, 4);

  EXPECT_EQ(AttemptOn(Backend::kSim, [&] { x.Store(y.Load() + 10); }),
            AbortCode::kNone);
  expect_state(11, 1, 7, 3, 4);

  EXPECT_EQ(AttemptOn(Backend::kSwOcc,
                      [&] {
                        (void)TxSubscribe(&words[1]);
                        y.Store(x.Load() + 1);
                      }),
            AbortCode::kNone);
  expect_state(11, 12, 8, 4, 4);
  EXPECT_EQ(stats.aborts_conflict.load(), 1u);
  EXPECT_EQ(stats.aborts_occ_validate.load(), 2u);
  EXPECT_EQ(stats.aborts_explicit.load(), 1u);
}

TEST_F(HtmTest, StripeHelpers) {
  Shared<int64_t> a(0);
  const void* addr = a.cell();
  EXPECT_EQ(StripeFor(addr), StripeFor(addr));
  size_t idx = StripeIndexFor(addr);
  EXPECT_LT(idx, kNumStripes);
  uint64_t before = StripeFor(addr)->load();
  StripeGuardedUpdate(addr, [] {});
  uint64_t after = StripeFor(addr)->load();
  EXPECT_GT(StripeVersion(after), StripeVersion(before));
  EXPECT_FALSE(StripeIsLocked(after));
}

// --- inline stripes: every Shared cell validates against its own stripe ---

static_assert(sizeof(Shared<int64_t>) == 16 && alignof(Shared<int64_t>) == 16,
              "a Shared cell and its stripe must share one cache line");

TEST_F(HtmTest, SharedCellAndStripeShareOneLine) {
  Shared<int64_t> cells[8];
  for (const Shared<int64_t>& c : cells) {
    const auto cell = reinterpret_cast<uintptr_t>(c.cell());
    const auto stripe = reinterpret_cast<uintptr_t>(c.stripe());
    EXPECT_EQ(cell / 64, stripe / 64);
    EXPECT_NE(cell, stripe);
  }
}

// Each cell has exactly one stripe, so stores to other cells never abort a
// transaction that read this one. With a hashed table, some of 10 000
// stores would land on the read cell's stripe; they are aimed at the cells
// that share its table entry first.
TEST_F(HtmTest, StoresToOtherCellsNeverAbortReader) {
  constexpr size_t kCells = size_t{1} << 16;
  constexpr size_t kStores = 10000;
  auto cells = std::make_unique<Shared<int64_t>[]>(kCells);
  Shared<int64_t>& read = cells[0];
  Shared<int64_t>& written = cells[1];
  std::vector<Shared<int64_t>*> targets;
  for (size_t i = 2; i < kCells; ++i) {
    if (StripeFor(cells[i].cell()) == StripeFor(read.cell())) {
      targets.push_back(&cells[i]);
    }
  }
  for (size_t i = 2; targets.size() < kStores; ++i) {
    targets.push_back(&cells[i]);
  }
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  ASSERT_TRUE(status.started) << AbortCodeName(status.abort_code);
  written.Store(read.Load() + 1);  // a writer: the commit validates `read`
  std::thread([&] {
    for (size_t i = 0; i < kStores; ++i) {
      targets[i]->Store(static_cast<int64_t>(i));
    }
  }).join();
  TxCommit();
  EXPECT_EQ(written.Load(), 1);
  EXPECT_EQ(GlobalTxStats().aborts_conflict.load(), 0u);
}

TEST_F(HtmTest, DepthZeroStoreToReadCellAbortsTransaction) {
  Shared<int64_t> a(0);
  Shared<int64_t> b(0);
  std::jmp_buf env;
  volatile int pass = 0;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    const int64_t seen = a.Load();
    b.Store(seen + 1);
    if (pass == 0) {
      pass = 1;
      std::thread([&] { a.Store(7); }).join();  // strongly atomic store
    }
    TxCommit();
    ADD_FAILURE() << "commit after a depth-0 store to a read cell";
  } else {
    EXPECT_EQ(status.abort_code, AbortCode::kConflict);
    pass = 2;
  }
  EXPECT_EQ(pass, 2);
  EXPECT_EQ(a.Load(), 7);
  EXPECT_EQ(b.Load(), 0);
}

TEST_F(HtmTest, SharedAccessesLeaveHashedStripeUntouched) {
  Shared<int64_t> a(0);
  const uint64_t table_before = StripeFor(a.cell())->load();
  const uint64_t inline_before = a.stripe()->load();
  a.Store(1);
  a.Add(2);
  EXPECT_EQ(RunTx([&] { a.Store(a.Load() + 3); }), 0);
  EXPECT_EQ(RunTx([&] { a.Add(4); }), 0);
  EXPECT_EQ(a.Load(), 10);
  EXPECT_EQ(StripeFor(a.cell())->load(), table_before);
  EXPECT_GT(StripeVersion(a.stripe()->load()), StripeVersion(inline_before));
  EXPECT_FALSE(StripeIsLocked(a.stripe()->load()));
}

// Transaction size sweep: commits must succeed right up to the capacity
// boundary and abort just past it.
class CapacityBoundary : public HtmTest,
                         public ::testing::WithParamInterface<int> {};

TEST_P(CapacityBoundary, WriteSetBoundaryIsExact) {
  const int cap = GetParam();
  MutableConfig().write_capacity_lines = static_cast<size_t>(cap);
  // Allocate cells 64B apart so each occupies its own line.
  struct alignas(64) Line {
    Shared<int64_t> cell;
  };
  std::vector<std::unique_ptr<Line>> lines;
  for (int i = 0; i < cap + 1; ++i) {
    lines.push_back(std::make_unique<Line>());
  }

  // Exactly `cap` distinct lines: commits.
  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    for (int i = 0; i < cap; ++i) {
      lines[static_cast<size_t>(i)]->cell.Store(1);
    }
    TxCommit();
  }
  EXPECT_TRUE(status.started);

  // cap + 1 distinct lines: capacity abort.
  std::jmp_buf env2;
  BeginStatus status2 = GOCC_TX_BEGIN(env2);
  if (status2.started) {
    for (int i = 0; i < cap + 1; ++i) {
      lines[static_cast<size_t>(i)]->cell.Store(2);
    }
    TxCommit();
    FAIL() << "expected capacity abort";
  }
  EXPECT_EQ(status2.abort_code, AbortCode::kCapacity);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CapacityBoundary,
                         ::testing::Values(1, 2, 8, 32, 128, 17, 64, 448));

// Read-set dual of CapacityBoundary: exactly `cap` distinct read lines
// commit, `cap + 1` abort with kCapacity.
class ReadCapacityBoundary : public HtmTest,
                             public ::testing::WithParamInterface<int> {};

TEST_P(ReadCapacityBoundary, ReadSetBoundaryIsExact) {
  const int cap = GetParam();
  MutableConfig().read_capacity_lines = static_cast<size_t>(cap);
  struct alignas(64) Line {
    Shared<int64_t> cell;
  };
  std::vector<std::unique_ptr<Line>> lines;
  for (int i = 0; i < cap + 1; ++i) {
    lines.push_back(std::make_unique<Line>());
  }

  std::jmp_buf env;
  BeginStatus status = GOCC_TX_BEGIN(env);
  if (status.started) {
    for (int i = 0; i < cap; ++i) {
      (void)lines[static_cast<size_t>(i)]->cell.Load();
    }
    TxCommit();
  }
  EXPECT_TRUE(status.started);

  std::jmp_buf env2;
  BeginStatus status2 = GOCC_TX_BEGIN(env2);
  if (status2.started) {
    for (int i = 0; i < cap + 1; ++i) {
      (void)lines[static_cast<size_t>(i)]->cell.Load();
    }
    TxCommit();
    FAIL() << "expected capacity abort";
  }
  EXPECT_EQ(status2.abort_code, AbortCode::kCapacity);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReadCapacityBoundary,
                         ::testing::Values(17, 64, 1024));

}  // namespace
}  // namespace gocc::htm
