// Differential test for the distributor's batched grouping hot path:
// DistributePartBatched (recycled flat counting-sort scratch) must produce
// the same slot→tuple-index groups as the retained scalar reference
// DistributePartScalar (the seed's per-batch rebuilt hash map), across
// randomized live-masks and bitmaps, slot counts (1, 64, 65, 192, 256),
// empty and full batches, all-dead batches, and batches carrying stale
// bitmap bits on dead tuples. Equality is ordering-insensitive across
// groups; the test also pins the zero-allocation property: once the scratch
// has seen a trial's high-water batch, repeat batches must not grow it.

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <vector>

#include "cjoin/pipeline.h"
#include "cjoin/tuple_batch.h"
#include "common/bitmap.h"
#include "common/macros.h"
#include "common/rng.h"

using namespace sdw;
using cjoin::DistributePartBatched;
using cjoin::DistributePartScalar;
using cjoin::DistributorScratch;
using cjoin::TupleBatch;

namespace {

enum class Fill {
  kEmptyBitmaps,  // every tuple born dead
  kFull,          // every tuple live with every slot bit set
  kRandom,        // random live/dead mix with random slot subsets
  kStaleBits,     // some dead tuples keep non-empty bitmaps (must be skipped)
};

// Builds a standalone batch (grouping never touches the fact page, so none
// is attached) of `n` tuples over `slots` query slots.
void FillBatch(TupleBatch* batch, uint32_t n, size_t slots, Fill fill,
               Rng* rng) {
  const size_t words = bits::WordsFor(slots);
  batch->ResetFor(n, static_cast<uint32_t>(words), /*filters=*/1);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t* tb = batch->tuple_bits(i);
    bits::Zero(tb, words);
    switch (fill) {
      case Fill::kEmptyBitmaps:
        break;
      case Fill::kFull:
        bits::FillOnes(tb, slots);
        break;
      case Fill::kRandom:
      case Fill::kStaleBits: {
        if (rng->Bernoulli(0.1)) break;  // born dead
        const double density = rng->Bernoulli(0.5) ? 0.05 : 0.7;
        for (size_t s = 0; s < slots; ++s) {
          if (rng->Bernoulli(density)) bits::Set(tb, s);
        }
        break;
      }
    }
    if (!bits::Any(tb, words)) batch->kill_tuple(i);
  }
  if (fill == Fill::kStaleBits) {
    // Kill ~20% of the live tuples while leaving their bitmaps intact: the
    // distributor must trust the live mask, never the stale bits.
    for (uint32_t i = 0; i < n; ++i) {
      if (batch->tuple_live(i) && rng->Bernoulli(0.2)) batch->kill_tuple(i);
    }
  }
}

// Sorted copy of a scalar-reference group map for ordering-insensitive
// comparison.
std::map<uint32_t, std::vector<uint32_t>> Canon(
    const std::unordered_map<uint32_t, std::vector<uint32_t>>& by_slot) {
  std::map<uint32_t, std::vector<uint32_t>> canon;
  for (const auto& [slot, idxs] : by_slot) {
    if (idxs.empty()) continue;
    auto sorted = idxs;
    std::sort(sorted.begin(), sorted.end());
    canon[slot] = std::move(sorted);
  }
  return canon;
}

std::map<uint32_t, std::vector<uint32_t>> CanonScratch(
    const DistributorScratch& scratch) {
  std::map<uint32_t, std::vector<uint32_t>> canon;
  for (size_t g = 0; g < scratch.num_groups(); ++g) {
    SDW_CHECK_MSG(scratch.group_size(g) > 0,
                  "batched grouping emitted an empty group");
    std::vector<uint32_t> idxs(scratch.group_begin(g),
                               scratch.group_begin(g) + scratch.group_size(g));
    auto sorted = idxs;
    std::sort(sorted.begin(), sorted.end());
    SDW_CHECK_MSG(sorted == idxs,
                  "group indexes not ascending (slot %u)",
                  scratch.group_slot(g));
    const bool inserted =
        canon.emplace(scratch.group_slot(g), std::move(sorted)).second;
    SDW_CHECK_MSG(inserted, "slot %u grouped twice", scratch.group_slot(g));
  }
  return canon;
}

void CheckOneBatch(const TupleBatch& batch, size_t slots,
                   DistributorScratch* scratch) {
  const size_t pairs = DistributePartBatched(batch, scratch);
  std::unordered_map<uint32_t, std::vector<uint32_t>> ref;
  DistributePartScalar(batch, &ref);

  const auto got = CanonScratch(*scratch);
  const auto want = Canon(ref);
  SDW_CHECK_MSG(got == want,
                "batched vs scalar groups differ (slots=%zu tuples=%u)",
                slots, batch.num_tuples);

  // Cross-check the pair count against the live tuples' popcounts.
  size_t expect_pairs = 0;
  for (uint32_t i = 0; i < batch.num_tuples; ++i) {
    if (batch.tuple_live(i)) {
      expect_pairs += bits::Popcount(batch.tuple_bits(i),
                                     batch.words_per_tuple);
    }
  }
  SDW_CHECK_MSG(pairs == expect_pairs, "pair count %zu != live popcount %zu",
                pairs, expect_pairs);
  // No slot beyond the trial's capacity may ever appear.
  for (const auto& [slot, idxs] : got) {
    SDW_CHECK(slot < slots);
    (void)idxs;
  }
}

void RunTrial(size_t slots, uint64_t seed) {
  Rng rng(seed);
  DistributorScratch scratch;  // reused across the whole trial

  const uint32_t tuple_counts[] = {0, 1, 63, 64, 65, 300, 1000};
  for (uint32_t n : tuple_counts) {
    for (Fill fill : {Fill::kEmptyBitmaps, Fill::kFull, Fill::kRandom,
                      Fill::kStaleBits}) {
      TupleBatch batch;
      FillBatch(&batch, n, slots, fill, &rng);
      CheckOneBatch(batch, slots, &scratch);
    }
  }

  // Zero-allocation steady state: the scratch has now seen the trial's
  // high-water shapes; replaying the largest/fullest batch must be pure
  // reuse — no vector growth.
  TupleBatch big;
  FillBatch(&big, 1000, slots, Fill::kFull, &rng);
  DistributePartBatched(big, &scratch);  // may grow once (new shape)
  const uint64_t grows_before = scratch.grows;
  for (int rep = 0; rep < 16; ++rep) {
    TupleBatch batch;
    FillBatch(&batch, 1000, slots, rep % 2 == 0 ? Fill::kFull : Fill::kRandom,
              &rng);
    CheckOneBatch(batch, slots, &scratch);
  }
  SDW_CHECK_MSG(scratch.grows == grows_before,
                "warm scratch grew %llu times (slots=%zu)",
                static_cast<unsigned long long>(scratch.grows - grows_before),
                slots);
  SDW_CHECK(scratch.reuses > 0);
}

}  // namespace

int main() {
  // 1 slot (degenerate), 64 (exactly one word), 65 (two words), 256 (four
  // words) and 192 (three words): DistributePartBatched's W = 1, 2 and 4
  // loops and its run-time-width loop.
  for (size_t slots :
       {size_t{1}, size_t{64}, size_t{65}, size_t{256}, size_t{192}}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      RunTrial(slots, seed * 1000 + slots);
    }
  }
  std::printf("distributor_differential_test: OK\n");
  return 0;
}
