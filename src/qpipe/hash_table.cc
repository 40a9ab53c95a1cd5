#include "qpipe/hash_table.h"

#include <bit>

namespace sdw::qpipe {

void Int64HashTable::Build() {
  built_ = true;
  buckets_.clear();
  if (entries_.empty()) return;
  const size_t want = entries_.size() * 2;
  const size_t nbuckets = std::bit_ceil(want);
  buckets_.assign(nbuckets, kNone);
  mask_ = nbuckets - 1;
  for (uint32_t i = 0; i < entries_.size(); ++i) {
    const size_t b = entries_[i].hash & mask_;
    entries_[i].next = buckets_[b];
    buckets_[b] = i;
  }
}

}  // namespace sdw::qpipe
