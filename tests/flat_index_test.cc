// FlatIndex (src/htm/flat_index.h): model check against std::unordered_map
// across many epoch clears and growth, plus the epoch wrap-around.

#include "src/htm/flat_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/support/rng.h"

namespace gocc::htm {
namespace {

// Every key of `model` maps to its payload in `index`, sizes agree, and a
// sample of absent keys reads absent.
void ExpectMatches(FlatIndex& index,
                   const std::unordered_map<uintptr_t, uint32_t>& model,
                   SplitMix64& rng) {
  ASSERT_EQ(index.size(), model.size());
  for (const auto& [key, value] : model) {
    const uint32_t* found = index.Find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(*found, value) << "key " << key;
  }
  for (int i = 0; i < 64; ++i) {
    const uintptr_t key = rng.Next() | 1;  // odd: never a model key below
    if (model.count(key) == 0) {
      EXPECT_EQ(index.Find(key), nullptr);
    }
  }
}

TEST(FlatIndexTest, StartsAtInitialSlotsAndIsEmpty) {
  FlatIndex index;
  EXPECT_EQ(index.slot_count(), FlatIndex::kInitialSlots);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(uintptr_t{64}), nullptr);
}

TEST(FlatIndexTest, InsertReturnsExistingPayloadForDuplicateKey) {
  FlatIndex index;
  auto [first, inserted] = index.Insert(uintptr_t{128}, 7);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*first, 7u);
  auto [again, inserted_again] = index.Insert(uintptr_t{128}, 9);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(*again, 7u);
  *again = 11;  // the payload is mutable in place
  EXPECT_EQ(*index.Find(uintptr_t{128}), 11u);
  EXPECT_EQ(index.size(), 1u);
}

TEST(FlatIndexTest, GrowsPastHalfLoad) {
  FlatIndex index;
  const size_t half = FlatIndex::kInitialSlots / 2;
  for (size_t i = 0; i < half; ++i) {
    index.Insert(uintptr_t{(i + 1) * 64}, static_cast<uint32_t>(i));
  }
  EXPECT_EQ(index.slot_count(), FlatIndex::kInitialSlots);
  index.Insert(uintptr_t{(half + 1) * 64}, 0);
  EXPECT_EQ(index.slot_count(), 2 * FlatIndex::kInitialSlots);
  for (size_t i = 0; i < half; ++i) {
    ASSERT_NE(index.Find(uintptr_t{(i + 1) * 64}), nullptr);
    EXPECT_EQ(*index.Find(uintptr_t{(i + 1) * 64}), i);
  }
}

// Transactions of random footprints (up to 10000 keys, so the table grows
// from 64 to 32 Ki slots) separated by clears: every transaction's index
// must agree with a fresh std::unordered_map fed the same operations, and
// nothing may leak across a clear. Keys are even and drawn from aligned
// pointer-like values (stripes, cells, lines) plus repeats.
TEST(FlatIndexTest, RandomizedModelCheckAcrossClearsAndGrowth) {
  SplitMix64 rng(0x5eed);
  FlatIndex index;
  std::vector<uintptr_t> recent;
  for (int tx = 0; tx < 400; ++tx) {
    std::unordered_map<uintptr_t, uint32_t> model;
    const uint64_t roll = rng.Next() % 100;
    const size_t footprint = roll < 60   ? rng.Next() % 16
                             : roll < 90 ? rng.Next() % 600
                                         : rng.Next() % 10000;
    recent.clear();
    for (size_t op = 0; op < footprint * 2; ++op) {
      uintptr_t key;
      if (!recent.empty() && rng.Next() % 3 == 0) {
        key = recent[rng.Next() % recent.size()];
      } else {
        const uintptr_t align = uintptr_t{1} << (1 + rng.Next() % 7);
        key = (rng.Next() % (uint64_t{1} << 40)) * align;
        recent.push_back(key);
      }
      if (rng.Next() % 4 == 0) {
        const uint32_t* found = index.Find(key);
        const auto it = model.find(key);
        ASSERT_EQ(found != nullptr, it != model.end());
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
        continue;
      }
      const uint32_t value = static_cast<uint32_t>(rng.Next());
      auto [payload, inserted] = index.Insert(key, value);
      auto [it, model_inserted] = model.emplace(key, value);
      ASSERT_EQ(inserted, model_inserted);
      ASSERT_EQ(*payload, it->second);
      if (rng.Next() % 8 == 0) {
        *payload ^= 0x5a;  // in-place payload update, as the line bits do
        it->second ^= 0x5a;
      }
    }
    ExpectMatches(index, model, rng);
    // Load factor stays at most one half.
    EXPECT_LE(index.size() * 2, index.slot_count());
    index.clear();
    EXPECT_EQ(index.size(), 0u);
    for (const auto& [key, value] : model) {
      ASSERT_EQ(index.Find(key), nullptr) << "key survived clear: " << key;
    }
  }
  EXPECT_GE(index.slot_count(), size_t{16384});
}

TEST(FlatIndexTest, ClearKeepsSlotCount) {
  FlatIndex index;
  for (uintptr_t k = 1; k <= 1000; ++k) {
    index.Insert(k * 8, static_cast<uint32_t>(k));
  }
  const size_t grown = index.slot_count();
  EXPECT_GE(grown, size_t{2048});
  index.clear();
  EXPECT_EQ(index.slot_count(), grown);
  index.Insert(uintptr_t{8}, 3);
  EXPECT_EQ(*index.Find(uintptr_t{8}), 3u);
  EXPECT_EQ(index.Find(uintptr_t{16}), nullptr);
}

// Drives the epoch counter through UINT32_MAX -> 0: the wrap must retag the
// slots so entries from any earlier epoch stay dead, and the index must
// keep working on the far side.
TEST(FlatIndexTest, EpochWrapAroundNeverResurrectsEntries) {
  FlatIndex index;
  index.StartEpochForTesting(UINT32_MAX - 3);
  std::vector<uintptr_t> stale;
  for (int round = 0; round < 8; ++round) {
    // Each round writes keys the next rounds never insert again.
    for (uintptr_t k = 0; k < 20; ++k) {
      const uintptr_t key = (static_cast<uintptr_t>(round) * 1000 + k + 1) * 64;
      EXPECT_TRUE(index.Insert(key, static_cast<uint32_t>(k)).second);
      stale.push_back(key);
    }
    // A key shared by every round: inserted fresh each time.
    EXPECT_TRUE(index.Insert(uintptr_t{8}, static_cast<uint32_t>(round))
                    .second);
    EXPECT_EQ(*index.Find(uintptr_t{8}), static_cast<uint32_t>(round));
    EXPECT_EQ(index.size(), 21u);
    index.clear();
    for (uintptr_t key : stale) {
      ASSERT_EQ(index.Find(key), nullptr)
          << "round " << round << " epoch " << index.epoch_for_testing();
    }
  }
  // Eight clears from UINT32_MAX - 3 pass through the wrap.
  EXPECT_LT(index.epoch_for_testing(), 16u);
  EXPECT_NE(index.epoch_for_testing(), 0u);
}

// A wrap on a grown table: every slot of the larger array carries a tag
// from the rounds before the wrap and must read empty after it.
TEST(FlatIndexTest, WrapOnGrownTableKeepsIndexConsistent) {
  FlatIndex index;
  for (uintptr_t k = 1; k <= 100; ++k) {
    index.Insert(k * 64, 0);
  }
  EXPECT_GE(index.slot_count(), size_t{256});
  index.StartEpochForTesting(UINT32_MAX - 1);
  for (uint32_t round = 0; round < 4; ++round) {
    for (uintptr_t k = 1; k <= 100; ++k) {
      EXPECT_TRUE(index.Insert(k * 64, round).second);
    }
    for (uintptr_t k = 1; k <= 100; ++k) {
      ASSERT_NE(index.Find(k * 64), nullptr);
      EXPECT_EQ(*index.Find(k * 64), round);
    }
    index.clear();
    for (uintptr_t k = 1; k <= 100; ++k) {
      ASSERT_EQ(index.Find(k * 64), nullptr) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace gocc::htm
