// Tests for FlatInt64HashTable — the CJOIN filters' probe table — against an
// std::unordered_map model: ProbeBatch and Find over an empty table, ragged
// batch sizes around the 32-key prefetch group, and growth across repeated
// FindOrInsert rounds (the admission pattern: the table grows in place at
// every pause while earlier bindings stay put).

#include "qpipe/flat_hash_table.h"

#include <cstdio>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"

using namespace sdw;
using qpipe::FlatInt64HashTable;

using Model = std::unordered_map<int64_t, uint64_t>;

static uint64_t ModelValue(const Model& model, int64_t key) {
  const auto it = model.find(key);
  return it == model.end() ? FlatInt64HashTable::kMissValue : it->second;
}

// Probes `keys` in one batch and checks every result, and Find, against the
// model.
static void ProbeAndCompare(const FlatInt64HashTable& ht, const Model& model,
                            const std::vector<int64_t>& keys) {
  std::vector<uint64_t> batched(keys.size());
  ht.ProbeBatch(keys.data(), keys.size(), batched.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t expected = ModelValue(model, keys[i]);
    SDW_CHECK_MSG(batched[i] == expected,
                  "probe %zu key %lld: batched %llu != model %llu", i,
                  static_cast<long long>(keys[i]),
                  static_cast<unsigned long long>(batched[i]),
                  static_cast<unsigned long long>(expected));
    SDW_CHECK(ht.Find(keys[i]) == expected);
  }
}

static void TestEmptyTable() {
  FlatInt64HashTable ht;
  SDW_CHECK(ht.size() == 0);
  const std::vector<int64_t> keys = {0, 1, -5, 1 << 20};
  std::vector<uint64_t> out(keys.size(), 0);
  ht.ProbeBatch(keys.data(), keys.size(), out.data());
  for (uint64_t v : out) SDW_CHECK(v == FlatInt64HashTable::kMissValue);
  out.assign(keys.size(), 7);
  ht.ProbeBatch(keys.data(), 0, out.data());  // n == 0 writes nothing
  for (uint64_t v : out) SDW_CHECK(v == 7);
  ProbeAndCompare(ht, Model(), keys);
}

static void TestRaggedBatches() {
  Rng rng(123);
  FlatInt64HashTable ht;
  Model model;
  std::vector<int64_t> stored;
  for (uint64_t v = 0; v < 5000; ++v) {
    const int64_t key = rng.Uniform(-1000000, 1000000);
    bool inserted;
    const uint64_t got = ht.FindOrInsert(key, v, &inserted);
    const auto [it, fresh] = model.try_emplace(key, v);
    SDW_CHECK(inserted == fresh);
    SDW_CHECK(got == it->second);  // a duplicate keeps its first binding
    if (fresh) stored.push_back(key);
  }
  SDW_CHECK(ht.size() == model.size());

  // Ragged batch sizes around the 32-key prefetch group, ~half hits.
  for (size_t n : {size_t{1}, size_t{31}, size_t{32}, size_t{33}, size_t{63},
                   size_t{64}, size_t{65}, size_t{100}, size_t{1000}}) {
    std::vector<int64_t> keys;
    for (size_t i = 0; i < n; ++i) {
      keys.push_back(rng.Bernoulli(0.5) ? stored[rng.Index(stored.size())]
                                        : rng.Uniform(-1100000, 1100000));
    }
    ProbeAndCompare(ht, model, keys);
  }
}

static void TestGrowthAcrossRounds() {
  // Admission inserts a few hundred new keys per pause and probes between
  // pauses: every binding must survive each in-place growth, and known keys
  // must not re-insert.
  FlatInt64HashTable ht;
  Model model;
  std::vector<int64_t> keys;
  uint64_t next_value = 0;
  const size_t initial_capacity = ht.capacity();
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 300; ++i) {
      const int64_t key = static_cast<int64_t>(next_value) * 3 + 1;
      bool inserted;
      SDW_CHECK(ht.FindOrInsert(key, next_value, &inserted) == next_value);
      SDW_CHECK(inserted);
      model[key] = next_value++;
      keys.push_back(key);
    }
    // Re-admitting known keys finds them and changes nothing.
    for (size_t i = 0; i < keys.size(); i += 7) {
      bool inserted;
      SDW_CHECK(ht.FindOrInsert(keys[i], next_value, &inserted) ==
                model[keys[i]]);
      SDW_CHECK(!inserted);
    }
    std::vector<int64_t> probe = keys;
    probe.push_back(-1);  // guaranteed miss
    probe.push_back(0);   // guaranteed miss
    ProbeAndCompare(ht, model, probe);
  }
  SDW_CHECK(ht.size() == 2400);
  SDW_CHECK(ht.capacity() > initial_capacity);
  SDW_CHECK(ht.size() * 10 < ht.capacity() * 7);  // load stays below ~0.7
}

int main() {
  TestEmptyTable();
  TestRaggedBatches();
  TestGrowthAcrossRounds();
  std::printf("hash_table_test: OK\n");
  return 0;
}
