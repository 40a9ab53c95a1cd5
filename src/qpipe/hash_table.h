// Chained hash table over int64 join keys for the query-centric hash join
// (duplicate build keys allowed; the CJOIN filters, keyed by unique
// dimension PKs, use FlatInt64HashTable instead). Hand-rolled (rather than
// std::unordered_map) so the benchmark harness can attribute hash/equal work
// to the paper's "Hashing" CPU bucket separately from the rest of the join.

#ifndef SDW_QPIPE_HASH_TABLE_H_
#define SDW_QPIPE_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace sdw::qpipe {

/// Mixes a 64-bit key (splitmix64 finalizer).
inline uint64_t HashKey(int64_t key) {
  uint64_t z = static_cast<uint64_t>(key) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Append-then-freeze chained table: Insert entries, Build(), then probe.
/// Inserting again un-freezes the table; Build() relinks from scratch.
/// Values are opaque 64-bit payloads (pointer or index).
class Int64HashTable {
 public:
  /// Appends an entry (pre-hashed by the caller so hash time is measured at
  /// the call site). Un-freezes a built table.
  void Insert(uint64_t hash, int64_t key, uint64_t value) {
    built_ = false;
    entries_.push_back({hash, key, value, kNone});
  }

  /// (Re)links buckets over all entries; idempotent.
  void Build();

  size_t size() const { return entries_.size(); }

  /// Invokes `fn(value)` for every entry matching (hash, key).
  template <typename Fn>
  void ForEachMatch(uint64_t hash, int64_t key, Fn&& fn) const {
    SDW_DCHECK(built_);
    if (buckets_.empty()) return;
    uint32_t i = buckets_[hash & mask_];
    while (i != kNone) {
      const Entry& e = entries_[i];
      if (e.hash == hash && e.key == key) fn(e.value);
      i = e.next;
    }
  }

  /// Number of entries matching (hash, key).
  size_t CountMatches(uint64_t hash, int64_t key) const {
    size_t n = 0;
    ForEachMatch(hash, key, [&n](uint64_t) { ++n; });
    return n;
  }

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};

  struct Entry {
    uint64_t hash;
    int64_t key;
    uint64_t value;
    uint32_t next;
  };

  std::vector<Entry> entries_;
  std::vector<uint32_t> buckets_;
  uint64_t mask_ = 0;
  bool built_ = false;
};

}  // namespace sdw::qpipe

#endif  // SDW_QPIPE_HASH_TABLE_H_
