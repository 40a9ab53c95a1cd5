#include "cjoin/filter.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/breakdown.h"
#include "storage/scan.h"

namespace sdw::cjoin {

namespace {

// Pass-1 gather of the live tuples' FK keys (stored as T) from a fact
// column whose fields lie `col.stride` bytes apart. An all-live batch fills
// `keys` densely (tuple index == probe index); otherwise `rows` records each
// live tuple's index. On a PAX minipage the stride equals sizeof(T), and the
// dense gather is a contiguous, vectorizable copy.
template <typename T>
void GatherKeys(const storage::Page::ColumnView& col, const uint64_t* live,
                uint32_t n, bool all_live, FilterScratch* scratch) {
  auto load = [&](size_t offset) {
    T v;
    std::memcpy(&v, col.first + offset, sizeof(T));
    return static_cast<int64_t>(v);
  };
  scratch->rows.clear();
  scratch->keys.clear();
  if (all_live) {
    scratch->keys.resize(n);
    int64_t* keys = scratch->keys.data();
    if (col.stride == sizeof(T)) {
      for (uint32_t i = 0; i < n; ++i) keys[i] = load(size_t{i} * sizeof(T));
    } else {
      for (uint32_t i = 0; i < n; ++i) keys[i] = load(size_t{i} * col.stride);
    }
    return;
  }
  const size_t live_words = bits::WordsFor(n);
  for (size_t w = 0; w < live_words; ++w) {
    uint64_t word = live[w];
    while (word != 0) {
      const uint32_t i = static_cast<uint32_t>(
          w * 64 + static_cast<size_t>(std::countr_zero(word)));
      word &= word - 1;
      scratch->rows.push_back(i);
      scratch->keys.push_back(load(size_t{i} * col.stride));
    }
  }
}

}  // namespace

Filter::Filter(const storage::Table* dim_table, std::string fact_fk_column,
               std::string dim_pk_column, size_t position, size_t slots)
    : dim_table_(dim_table),
      fact_fk_column_(std::move(fact_fk_column)),
      dim_pk_column_(std::move(dim_pk_column)),
      position_(position),
      words_(bits::WordsFor(slots)),
      pass_mask_(slots),
      max_cached_indices_(kCachedIndicesPerRow * dim_table->num_rows()),
      dim_pk_col_idx_(dim_table->schema().MustColumnIndex(dim_pk_column_)) {
  // Sentinel entry (see filter.h): present from birth so Process is safe
  // even before the first admission.
  entry_rows_.push_back(kNoDimRow);
  entry_bits_.resize(words_, 0);
}

Status Filter::AdmitQueryBatch(AdmitRequest* reqs, size_t n,
                               storage::BufferPool* pool) {
  // Cached predicates set their bits right away; the rest are grouped by
  // signature so the scan below evaluates each distinct predicate once.
  struct Miss {
    std::string signature;
    query::Predicate::Bound bound;
    std::vector<uint32_t> slots;
    std::vector<uint32_t> entries;  // the selection, filled by the scan
  };
  const storage::Schema& schema = dim_table_->schema();
  std::vector<Miss> misses;
  for (size_t r = 0; r < n; ++r) {
    std::string signature = reqs[r].pred->Signature();
    const auto cached = selections_.find(signature);
    reqs[r].hit = cached != selections_.end();
    if (reqs[r].hit) {
      selection_hits_.Add(1);
      cached->second.last_use = ++use_clock_;
      for (const uint32_t e : cached->second.entries) {
        bits::Set(entry_bits_.data() + size_t{e} * words_, reqs[r].slot);
      }
      continue;
    }
    selection_misses_.Add(1);
    auto m = std::find_if(misses.begin(), misses.end(), [&](const Miss& x) {
      return x.signature == signature;
    });
    if (m == misses.end()) {
      misses.push_back({std::move(signature), reqs[r].pred->Bind(schema), {},
                        {}});
      m = std::prev(misses.end());
    }
    m->slots.push_back(reqs[r].slot);
  }
  if (misses.empty()) return Status::Ok();

  // Entries are keyed by PK; PKs are unique per dimension, so at most one
  // entry per row exists — a tuple selected by several pending queries
  // resolves its entry once and sets all their bits. The scan+selection work
  // is charged to kScans at page granularity — per-row timers would dominate
  // admission cost. Drop the sentinel entry while the arrays grow;
  // re-appended below.
  entry_rows_.pop_back();
  entry_bits_.resize(entry_bits_.size() - words_);

  constexpr uint32_t kNoEntry = ~uint32_t{0};
  storage::TableScanCursor cursor(dim_table_, pool);
  uint64_t row_base = 0;
  Status scan_status;  // first terminal read error (transients are retried
                       // inside the cursor); the partial state stays safe
  while (true) {
    Result<const storage::Page*> fetched = [&] {
      ScopedComponentTimer t(Component::kScans);
      return cursor.Next();
    }();
    if (!fetched.ok()) {
      scan_status = fetched.status();
      break;
    }
    const storage::Page* page = fetched.value();
    if (page == nullptr) break;
    ScopedComponentTimer t(Component::kScans);
    const uint32_t count = page->tuple_count();
    for (uint32_t i = 0; i < count; ++i) {
      const std::byte* tuple = page->tuple(i);
      uint32_t entry = kNoEntry;  // resolved by the first selecting predicate
      for (Miss& m : misses) {
        if (!m.bound.IsTrue() && !m.bound.Eval(schema, tuple)) continue;
        if (entry == kNoEntry) {
          const uint32_t row = static_cast<uint32_t>(row_base + i);
          const int64_t pk = schema.GetIntAny(tuple, dim_pk_col_idx_);
          bool inserted;
          const uint64_t e =
              flat_ht_.FindOrInsert(pk, entry_rows_.size(), &inserted);
          if (inserted) {
            entry_rows_.push_back(row);
            entry_bits_.resize(entry_bits_.size() + words_, 0);
          }
          entry = static_cast<uint32_t>(e);
        }
        m.entries.push_back(entry);
        for (const uint32_t slot : m.slots) {
          bits::Set(entry_bits_.data() + size_t{entry} * words_, slot);
        }
      }
    }
    row_base += count;
  }
  entry_rows_.push_back(kNoDimRow);                    // sentinel
  entry_bits_.resize(entry_bits_.size() + words_, 0);  // sentinel
  admission_scans_.Add(1);
  if (!scan_status.ok()) return scan_status;
  for (Miss& m : misses) {
    CacheSelection(std::move(m.signature), std::move(m.entries));
  }
  return Status::Ok();
}

void Filter::CacheSelection(std::string signature,
                            std::vector<uint32_t> entries) {
  // A selection never exceeds the row count, so it always fits once the
  // older selections are gone.
  while (cached_indices_ + entries.size() > max_cached_indices_) {
    auto lru = selections_.begin();
    for (auto it = selections_.begin(); it != selections_.end(); ++it) {
      if (it->second.last_use < lru->second.last_use) lru = it;
    }
    cached_indices_ -= lru->second.entries.size();
    selections_.erase(lru);
    selection_evictions_.Add(1);
  }
  cached_indices_ += entries.size();
  selections_.emplace(std::move(signature),
                      Selection{std::move(entries), ++use_clock_});
}

void Filter::CleanSlot(uint32_t slot) {
  // (Harmlessly clears the always-zero sentinel entry too.)
  for (size_t e = 0; e < entry_rows_.size(); ++e) {
    bits::Clear(entry_bits_.data() + e * words_, slot);
  }
}

void Filter::BindFactColumn(const storage::Schema& fact_schema) {
  fact_schema_ = fact_schema;
  fk_col_ = fact_schema.MustColumnIndex(fact_fk_column_);
  fk_is_int32_ =
      fact_schema.column(fk_col_).type == storage::ColumnType::kInt32;
  fk_bound_ = true;
}

void Filter::Process(TupleBatch* batch, FilterScratch* scratch) const {
  SDW_DCHECK(fk_bound_);
  SDW_DCHECK(batch->words_per_tuple == words_);
  const uint32_t n = batch->num_tuples;
  if (n == 0) return;
  const uint64_t* pass = pass_mask_.words();

  // All-live batches (every tuple upstream of the first selective filter)
  // take dense fast paths: contiguous key gather and contiguous bitmap
  // update, no compaction or indirection.
  const uint64_t* live = batch->live_words();
  const size_t live_words = bits::WordsFor(n);
  const size_t full_words = n / 64;  // words that must be all-ones
  const size_t rem = n % 64;
  bool all_live =
      rem == 0 || live[live_words - 1] == (uint64_t{1} << rem) - 1;
  for (size_t w = 0; all_live && w < full_words; ++w) {
    all_live = live[w] == ~uint64_t{0};
  }

  // Pass 1 (the paper's "Hashing" work): gather the live tuples' FK keys
  // with one fixed-stride load each (no per-tuple schema interpretation)
  // and resolve all probes in a single batched, prefetching call to the
  // flat table's single-load stream.
  {
    ScopedComponentTimer t(Component::kHashing);
    const storage::Page::ColumnView fk =
        batch->fact_page->column(fact_schema_, fk_col_);
    if (fk_is_int32_) {
      GatherKeys<int32_t>(fk, live, n, all_live, scratch);
    } else {
      GatherKeys<int64_t>(fk, live, n, all_live, scratch);
    }
    scratch->values.resize(scratch->keys.size());
    flat_ht_.ProbeBatch(scratch->keys.data(), scratch->keys.size(),
                        scratch->values.data());
  }

  // Pass 2 (the paper's "Joins" work): bitwise AND with match|pass, record
  // the joined dimension row, and kill tuples whose bitmap goes empty so no
  // later stage touches them again.
  {
    ScopedComponentTimer t(Component::kJoins);
    // Misses (kMissValue = ~0) are redirected to the sentinel entry with a
    // cmov — no data-dependent hit/miss branch in the loop (a miss ANDs
    // with 0|pass_mask and re-writes the initial kNoDimRow).
    const uint64_t sentinel = entry_rows_.size() - 1;
    // Matched entries land at random offsets in entry_bits_/entry_rows_;
    // running a few tuples ahead keeps those loads in flight.
    constexpr size_t kLookahead = 8;
    const size_t live_count = scratch->keys.size();
    const uint32_t* rows = scratch->rows.data();
    const uint64_t* values = scratch->values.data();
    const uint64_t* entry_bits = entry_bits_.data();
    const uint32_t* entry_rows = entry_rows_.data();
    auto prefetch_entry = [&](size_t j) {
      if (j < live_count) {
        const uint64_t idx = values[j] < sentinel ? values[j] : sentinel;
        SDW_PREFETCH(&entry_bits[idx * words_]);
        SDW_PREFETCH(&entry_rows[idx]);
      }
    };
    for (size_t j = 0; j < kLookahead && j < live_count; ++j) {
      prefetch_entry(j);
    }
    uint64_t* tuple_bits = batch->bits.data();
    uint32_t* dims = batch->dim_rows.data();
    const uint32_t nf = batch->num_filters;
    // One body per bitmap width: at W = 1, 2 and 4 words the AND is a
    // constant-count loop the compiler unrolls; W = 0 reads the width at run
    // time.
    bits::WithWidth(words_, [&](auto width) {
      constexpr size_t kW = decltype(width)::value;
      const size_t words = kW != 0 ? kW : words_;
      for (size_t j = 0; j < live_count; ++j) {
        prefetch_entry(j + kLookahead);
        const uint32_t i = all_live ? static_cast<uint32_t>(j) : rows[j];
        const uint64_t idx = values[j] < sentinel ? values[j] : sentinel;
        const uint64_t any =
            bits::AndWithOrAny(tuple_bits + size_t{i} * words,
                               entry_bits + idx * words, pass, words);
        dims[size_t{i} * nf + position_] = entry_rows[idx];
        if (any == 0) batch->kill_tuple(i);
      }
    });
  }
}

void Filter::ProcessScalar(TupleBatch* batch,
                           const storage::Schema& fact_schema,
                           size_t fact_fk_col_idx) const {
  const storage::Page& page = *batch->fact_page;
  const uint32_t n = batch->num_tuples;
  const size_t words = batch->words_per_tuple;
  const uint64_t* pass = pass_mask_.words();

  // Pass 1: probe the shared hash table for every live tuple, recording the
  // matched entry (or none) — one schema-interpreted key decode plus one
  // unbatched lookup per tuple.
  std::vector<uint32_t> match_entry(n, kNoDimRow);
  {
    ScopedComponentTimer t(Component::kHashing);
    for (uint32_t i = 0; i < n; ++i) {
      if (!batch->tuple_live(i)) continue;  // dead tuple
      const int64_t key = page.GetIntAny(fact_schema, fact_fk_col_idx, i);
      const uint64_t entry_idx = flat_ht_.Find(key);
      if (entry_idx != qpipe::FlatInt64HashTable::kMissValue) {
        match_entry[i] = static_cast<uint32_t>(entry_idx);
      }
    }
  }

  // Pass 2: bitwise AND with match|pass and record the joined dimension row.
  {
    ScopedComponentTimer t(Component::kJoins);
    for (uint32_t i = 0; i < n; ++i) {
      if (!batch->tuple_live(i)) continue;
      uint64_t* tb = batch->tuple_bits(i);
      if (match_entry[i] == kNoDimRow) {
        bits::AndWith(tb, pass, words);
      } else {
        const uint64_t* match = entry_bits_.data() + match_entry[i] * words_;
        bits::AndWithOr(tb, match, pass, words);
        batch->tuple_dim_rows(i)[position_] = entry_rows_[match_entry[i]];
      }
      if (!bits::Any(tb, words)) batch->kill_tuple(i);
    }
  }
}

}  // namespace sdw::cjoin
