// go-cache analogue: an in-memory key/value store with expiration
// (§6.1, Figure 7).
//
// The paper's go-cache benchmarks read a small map repeatedly, both
// directly ("similar to how go programmers often use a map", the
// RWMutexMap* group that GOCC speeds up >100%) and through the library's
// caching layer (Get with expiration check). All accesses take the
// RWMutex; writers (Set/Delete) take the write lock.

#ifndef GOCC_SRC_WORKLOADS_GOCACHE_H_
#define GOCC_SRC_WORKLOADS_GOCACHE_H_

#include <cstdint>

#include "src/gosync/rwmutex.h"
#include "src/htm/fault.h"
#include "src/htm/shared.h"
#include "src/workloads/policy.h"

namespace gocc::workloads {

template <typename Policy>
class GoCache {
 public:
  static constexpr size_t kSlots = 4096;
  static constexpr int64_t kNoExpiration = 0;

  GoCache() : mu_(Policy::kTracking) {}

  // Library Get: lookup + expiration check under the read lock.
  bool Get(uint64_t key, int64_t now, int64_t* value_out) {
    bool ok = false;
    Policy::RLock(mu_, [&] {
      // Service-tier chaos hook: a kShardStall plan stretches this critical
      // section while the lock (or its elided subscription) is held, which
      // is how a hung shard looks to everyone queued behind it. One relaxed
      // load when the injector is disarmed.
      htm::fault::MaybeStallAt(htm::fault::Site::kShardStall);
      int ix = Probe(key);
      if (ix >= 0) {
        int64_t expiry = expiries_[static_cast<size_t>(ix)].Load();
        if (expiry == kNoExpiration || now < expiry) {
          *value_out = values_[static_cast<size_t>(ix)].Load();
          ok = true;
        }
      }
    });
    return ok;
  }

  // Direct map read under the read lock (the benchmark-file pattern GOCC
  // also transforms: "the benchmark files themselves contain locks").
  bool MapGet(uint64_t key, int64_t* value_out) {
    bool ok = false;
    Policy::RLock(mu_, [&] {
      int ix = Probe(key);
      if (ix >= 0) {
        *value_out = values_[static_cast<size_t>(ix)].Load();
        ok = true;
      }
    });
    return ok;
  }

  void Set(uint64_t key, int64_t value, int64_t expiry) {
    Policy::WLock(mu_, [&] {
      htm::fault::MaybeStallAt(htm::fault::Site::kShardStall);
      size_t ix = static_cast<size_t>(key) & (kSlots - 1);
      for (size_t n = 0; n < kSlots; ++n) {
        uint64_t k = keys_[ix].Load();
        if (k == key || k == 0) {
          keys_[ix].Store(key);
          values_[ix].Store(value);
          expiries_[ix].Store(expiry);
          if (k == 0) {
            count_.Add(1);
          }
          return;
        }
        ix = (ix + 1) & (kSlots - 1);
      }
    });
  }

  // Tombstone-free delete: expires the item (go-cache's janitor pattern).
  void Expire(uint64_t key, int64_t now) {
    Policy::WLock(mu_, [&] {
      int ix = Probe(key);
      if (ix >= 0) {
        expiries_[static_cast<size_t>(ix)].Store(now);
      }
    });
  }

  int64_t ItemCount() {
    int64_t n = 0;
    Policy::RLock(mu_, [&] { n = count_.Load(); });
    return n;
  }

 private:
  int Probe(uint64_t key) const {
    size_t ix = static_cast<size_t>(key) & (kSlots - 1);
    for (size_t n = 0; n < kSlots; ++n) {
      uint64_t k = keys_[ix].Load();
      if (k == key) {
        return static_cast<int>(ix);
      }
      if (k == 0) {
        return -1;
      }
      ix = (ix + 1) & (kSlots - 1);
    }
    return -1;
  }

  gosync::RWMutex mu_;
  htm::Shared<uint64_t> keys_[kSlots]{};
  htm::Shared<int64_t> values_[kSlots]{};
  htm::Shared<int64_t> expiries_[kSlots]{};
  htm::Shared<int64_t> count_{0};
};

}  // namespace gocc::workloads

#endif  // GOCC_SRC_WORKLOADS_GOCACHE_H_
