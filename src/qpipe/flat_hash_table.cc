#include "qpipe/flat_hash_table.h"

namespace sdw::qpipe {

void FlatInt64HashTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{0, kMissValue});
  const uint64_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.value == kMissValue) continue;
    uint64_t p = HashKey(s.key) & mask;
    while (slots_[p].value != kMissValue) p = (p + 1) & mask;
    slots_[p] = s;
  }
}

void FlatInt64HashTable::ProbeBatch(const int64_t* keys, size_t n,
                                    uint64_t* out_values) const {
  // Keys are staged in groups: one pass hashes and prefetches each key's
  // home slot, one pass resolves. One prefetch pass suffices: a key's home
  // slot usually holds its match (or the empty slot proving a miss), so
  // there is no second dependent bucket→entry hop to hide.
  constexpr size_t kGroup = 32;
  uint64_t pos[kGroup];
  const Slot* __restrict slots = slots_.data();
  const uint64_t mask = slots_.size() - 1;

  for (size_t base = 0; base < n; base += kGroup) {
    const size_t g = (n - base) < kGroup ? (n - base) : kGroup;
    for (size_t j = 0; j < g; ++j) {
      pos[j] = HashKey(keys[base + j]) & mask;
      SDW_PREFETCH(&slots[pos[j]]);
    }
    for (size_t j = 0; j < g; ++j) {
      const int64_t key = keys[base + j];
      uint64_t p = pos[j];
      uint64_t v;
      for (;;) {
        const Slot& s = slots[p];
        if (s.value == kMissValue) {
          v = kMissValue;
          break;
        }
        if (s.key == key) {
          v = s.value;
          break;
        }
        p = (p + 1) & mask;
      }
      out_values[base + j] = v;
    }
  }
}

}  // namespace sdw::qpipe
