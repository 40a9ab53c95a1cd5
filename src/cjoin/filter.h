// A CJOIN filter: the fused shared-selection + shared-hash-join for one
// dimension table (paper §2.4-2.5, Figure 3).
//
// The filter's one hash table (a flat open-addressing table) maps dimension
// primary keys to the union of dimension tuples selected by any active query
// referencing the dimension; each entry carries match bits (one per query
// slot). Queries that do not
// reference the dimension sit in the filter's pass mask. Processing a fact
// tuple computes  bits &= match(entry) | pass_mask  — a hash probe plus one
// bitwise AND — and records the joined dimension row for projection.
//
// Admission selection cache. Each filter remembers, per admitted predicate,
// which entries it selected, keyed by the canonical Predicate::Signature().
// A cached list stays valid for the filter's lifetime: entries are only ever
// appended, each dimension row has at most one entry (entries are keyed by
// primary key), and dimension tables are immutable. A future ingest path
// that adds or changes dimension rows must invalidate the cache. An
// admission whose predicate is cached sets the slot's bit over the cached
// entries: no dimension page read, no predicate evaluation, no hash-table
// insert. Misses share the epoch's one dimension scan and enter the cache
// only when that scan succeeds, so a failed scan caches nothing and fails
// only the requests that missed. The cache holds at most
// kCachedIndicesPerRow × the dimension's row count entry indices; inserting
// past that evicts the least recently used selection first.

#ifndef SDW_CJOIN_FILTER_H_
#define SDW_CJOIN_FILTER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cjoin/tuple_batch.h"
#include "common/aligned.h"
#include "common/bitmap.h"
#include "common/stats.h"
#include "qpipe/flat_hash_table.h"
#include "query/predicate.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"

namespace sdw::cjoin {

/// Per-worker reusable scratch for Filter::Process. Each filter-worker
/// thread owns one; the vectors grow to the high-water batch size once and
/// are reused, so steady-state processing performs no heap allocation.
struct FilterScratch {
  std::vector<uint32_t> rows;     // batch tuple index of each live tuple
  std::vector<int64_t> keys;      // gathered FK keys, live tuples compacted
  std::vector<uint64_t> values;   // ProbeBatch output (entry index or miss)
};

/// Shared selection + hash join over one dimension.
class Filter {
 public:
  /// `position` is the filter's index in the pipeline (column of the batch
  /// dim_rows matrix); `slots` the bitmap capacity in query slots.
  Filter(const storage::Table* dim_table, std::string fact_fk_column,
         std::string dim_pk_column, size_t position, size_t slots);

  SDW_DISALLOW_COPY(Filter);

  const storage::Table* dim_table() const { return dim_table_; }
  const std::string& fact_fk_column() const { return fact_fk_column_; }
  const std::string& dim_pk_column() const { return dim_pk_column_; }
  size_t position() const { return position_; }

  /// True when this filter implements the given join triple.
  bool Matches(const storage::Table* dim, const std::string& fk,
               const std::string& pk) const {
    return dim == dim_table_ && fk == fact_fk_column_ && pk == dim_pk_column_;
  }

  /// Cached entry indices allowed per dimension row. A predicate selects
  /// each row at most once, so one selection never exceeds the row count.
  /// The date filter of the SSB query mix needs about 14 per row (TRUE,
  /// 7 single years and 28 year ranges over 2,556 rows).
  static constexpr size_t kCachedIndicesPerRow = 32;

  /// One pending admission of a batched admission epoch: the query's slot
  /// and its selection on this dimension. The predicate must stay alive for
  /// the duration of the AdmitQueryBatch call.
  struct AdmitRequest {
    uint32_t slot;
    const query::Predicate* pred;
    /// Out: true when the selection cache served the request. A hit reads
    /// no dimension page, so a failed scan never concerns it.
    bool hit = false;
  };

  /// Batched admission. Requests whose predicate is cached set their slot's
  /// bit over the cached entries. The rest share ONE scan of the dimension
  /// (through the buffer pool): each tuple is evaluated once per distinct
  /// missed predicate and the bits of the matching queries' slots are set,
  /// so an admission pause costs at most one scan per dimension however many
  /// queries were waiting (SharedDB-style amortization), and none when every
  /// predicate was cached. Called only while the pipeline is paused. Non-OK
  /// when the dimension scan failed: the filter's internal state stays
  /// consistent (sentinel restored, every inserted entry probe-visible) and
  /// the hits are
  /// complete, but the misses' match bits are incomplete — the caller must
  /// fail the requests with `hit == false` and recycle their slots
  /// (CleanSlot erases the partial bits on reuse, exactly as for completed
  /// queries).
  Status AdmitQueryBatch(AdmitRequest* reqs, size_t n,
                         storage::BufferPool* pool);

  /// Single-query admission: a batch of one.
  Status AdmitQuery(uint32_t slot, const query::Predicate& pred,
                    storage::BufferPool* pool) {
    AdmitRequest req{slot, &pred};
    return AdmitQueryBatch(&req, 1, pool);
  }

  /// Dimension scans performed by admissions — at most one per
  /// AdmitQueryBatch call regardless of how many queries the batch carried,
  /// and none when every request hit the selection cache.
  uint64_t admission_scans() const { return admission_scans_.value(); }

  /// Admission requests served by the selection cache / that needed the
  /// dimension scan, and cached selections evicted to respect the bound.
  uint64_t selection_hits() const { return selection_hits_.value(); }
  uint64_t selection_misses() const { return selection_misses_.value(); }
  uint64_t selection_evictions() const { return selection_evictions_.value(); }

  /// Marks `slot` as not referencing this dimension (pass-through).
  void SetPass(uint32_t slot) { pass_mask_.Set(slot); }

  /// Removes a completed query from the pass mask (match bits are cleansed
  /// lazily by CleanSlot before slot reuse). Pipeline must be paused.
  void RemoveQuery(uint32_t slot) { pass_mask_.Clear(slot); }

  /// Clears `slot`'s bit from every hash-table entry (slot recycling).
  void CleanSlot(uint32_t slot);

  /// Resolves the fact FK column and its key width once, so Process
  /// gathers keys with fixed-stride loads instead of per-tuple schema
  /// interpretation. Called once when the filter joins a pipeline.
  void BindFactColumn(const storage::Schema& fact_schema);

  /// Processes one batch in a filter-worker thread: gathers the FK keys of
  /// all live tuples through Page::column (one stride under either page
  /// layout; a contiguous read off a PAX minipage), probes them in one
  /// batched call to the flat table, ANDs bitmaps (one loop templated on
  /// the bitmap width), records joined dimension rows, and clears the
  /// batch's live bit for tuples whose bitmap goes empty. Requires
  /// BindFactColumn and a batch annotated at this filter's width.
  /// `scratch` is the calling worker's reusable scratch.
  void Process(TupleBatch* batch, FilterScratch* scratch) const;

  /// Per-tuple reference implementation (one GetIntAny + one Find per
  /// tuple) — the differential-test and benchmark baseline for Process.
  /// Produces bit-identical bitmaps / dim_rows / live masks.
  void ProcessScalar(TupleBatch* batch, const storage::Schema& fact_schema,
                     size_t fact_fk_col_idx) const;

  /// Number of distinct dimension tuples currently referenced (hash table
  /// size) — the shared-operator bookkeeping the paper discusses.
  size_t num_entries() const { return flat_ht_.size(); }

 private:
  const storage::Table* dim_table_;
  const std::string fact_fk_column_;
  const std::string dim_pk_column_;
  const size_t position_;
  const size_t words_;

  /// Enters a successfully scanned selection into the cache, evicting least
  /// recently used selections until it fits the bound.
  void CacheSelection(std::string signature, std::vector<uint32_t> entries);

  // pk -> entry index: admission's insert-or-find index (no Build step,
  // grows in place at pauses) and Process's dense probe stream.
  qpipe::FlatInt64HashTable flat_ht_;
  // Per-entry arrays, always followed by one sentinel entry (zero match
  // bits, kNoDimRow row id) that ProbeBatch misses are redirected to — this
  // keeps the Process hot loop branchless (no data-dependent hit/miss
  // branch; a miss ANDs with 0|pass and re-writes kNoDimRow).
  std::vector<uint32_t> entry_rows_;    // dim row id per entry (+ sentinel)
  // Cache-line aligned: Process indexes entry rows randomly, and a 64-byte
  // base keeps every 32-byte (4-word) row inside a single line.
  CacheAlignedVector<uint64_t> entry_bits_;  // words_ match bits per entry (+")
  Bitset pass_mask_;
  Counter admission_scans_;

  // Admission selection cache (see the file comment). Touched only by
  // AdmitQueryBatch, which runs with the pipeline paused.
  struct Selection {
    std::vector<uint32_t> entries;  // entry indices the predicate selects
    uint64_t last_use;              // use_clock_ at the last insert or hit
  };
  std::unordered_map<std::string, Selection> selections_;
  const size_t max_cached_indices_;
  size_t cached_indices_ = 0;  // sum of entries.size() over selections_
  uint64_t use_clock_ = 0;
  Counter selection_hits_;
  Counter selection_misses_;
  Counter selection_evictions_;

  size_t dim_pk_col_idx_;

  // Fact FK gather plan, precomputed by BindFactColumn.
  storage::Schema fact_schema_;
  size_t fk_col_ = 0;
  bool fk_is_int32_ = false;
  bool fk_bound_ = false;
};

}  // namespace sdw::cjoin

#endif  // SDW_CJOIN_FILTER_H_
