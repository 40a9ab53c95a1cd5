// Flat open-addressing hash table over int64 join keys: the one probe
// structure of every CJOIN filter, on fact pages of either layout.
//
// The chained Int64HashTable resolves a probe through two dependent loads
// (bucket head → entry node) at unrelated addresses; this table stores
// 16-byte {key, value} slots in ONE power-of-two array probed linearly, so a
// batched probe issues exactly one prefetchable cache line per key and hits
// resolve without pointer chasing. Linear probing keeps collision walks
// inside the same (or the next) cache line.
//
// Unlike the chained table there is no Build() freeze step: FindOrInsert is
// incremental, so CJOIN admission grows the table in place at every pause,
// and the same table serves the filter's batched probe. Keys are unique.
// kMissValue is the one reserved value — it marks empty slots and is the
// ProbeBatch miss result, so it cannot be stored.

#ifndef SDW_QPIPE_FLAT_HASH_TABLE_H_
#define SDW_QPIPE_FLAT_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "qpipe/hash_table.h"

namespace sdw::qpipe {

/// Power-of-two, linear-probing open-addressing table: int64 key -> opaque
/// uint64 value (index or pointer). Values must not equal kMissValue.
class FlatInt64HashTable {
 public:
  /// ProbeBatch/Find result for absent keys; also the empty-slot marker.
  static constexpr uint64_t kMissValue = ~uint64_t{0};

  FlatInt64HashTable() { slots_.resize(kMinCapacity, Slot{0, kMissValue}); }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  /// Returns the value bound to `key`, inserting `value_if_new` first when
  /// absent; `*inserted` reports which. Grows at ~0.7 load, so steady
  /// re-admission of known keys never reallocates.
  uint64_t FindOrInsert(int64_t key, uint64_t value_if_new, bool* inserted) {
    SDW_DCHECK(value_if_new != kMissValue);
    if ((size_ + 1) * 10 >= slots_.size() * 7) Grow();
    const uint64_t mask = slots_.size() - 1;
    for (uint64_t p = HashKey(key) & mask;; p = (p + 1) & mask) {
      Slot& s = slots_[p];
      if (s.value == kMissValue) {
        s.key = key;
        s.value = value_if_new;
        ++size_;
        *inserted = true;
        return value_if_new;
      }
      if (s.key == key) {
        *inserted = false;
        return s.value;
      }
    }
  }

  /// Value bound to `key`, or kMissValue.
  uint64_t Find(int64_t key) const {
    const uint64_t mask = slots_.size() - 1;
    for (uint64_t p = HashKey(key) & mask;; p = (p + 1) & mask) {
      const Slot& s = slots_[p];
      if (s.value == kMissValue) return kMissValue;
      if (s.key == key) return s.value;
    }
  }

  /// Batch-at-a-time probe: hashes a group of keys, prefetches each key's
  /// home slot (one cache line — the dense stream the chained table cannot
  /// offer), then resolves. out_values[i] is the bound value or kMissValue.
  void ProbeBatch(const int64_t* keys, size_t n, uint64_t* out_values) const;

 private:
  struct Slot {
    int64_t key;
    uint64_t value;  // kMissValue = empty
  };
  static_assert(sizeof(Slot) == 16);

  static constexpr size_t kMinCapacity = 64;

  void Grow();

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace sdw::qpipe

#endif  // SDW_QPIPE_FLAT_HASH_TABLE_H_
