#include "cjoin/shared_agg.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace sdw::cjoin {

namespace {

/// Tests bit `slot` of the bitmap stored in a table key's tail (the bytes
/// after the group-key prefix). The bitmap bytes were memcpy'd from native
/// uint64_t words, so reading them back the same way is exact.
bool KeyMaskTest(const std::string& key, size_t key_width, uint32_t slot) {
  uint64_t word;
  std::memcpy(&word, key.data() + key_width + (slot >> 6) * sizeof(uint64_t),
              sizeof(uint64_t));
  return (word >> (slot & 63)) & 1;
}

/// True when the bitmap tail of `key` has any bit set.
bool KeyMaskAny(const std::string& key, size_t key_width) {
  for (size_t b = key_width; b < key.size(); ++b) {
    if (key[b] != 0) return true;
  }
  return false;
}

/// True when the bitmap tail of `key` intersects `mask` (of `words` words).
bool KeyMaskIntersects(const std::string& key, size_t key_width,
                       const uint64_t* mask, size_t words) {
  const size_t n =
      std::min(words, (key.size() - key_width) / sizeof(uint64_t));
  for (size_t w = 0; w < n; ++w) {
    uint64_t word;
    std::memcpy(&word, key.data() + key_width + w * sizeof(uint64_t),
                sizeof(uint64_t));
    if ((word & mask[w]) != 0) return true;
  }
  return false;
}

/// Clears every bit of `mask` from the bitmap tail of `key` (in place).
void KeyMaskClearAll(std::string* key, size_t key_width, const uint64_t* mask,
                     size_t words) {
  const size_t n =
      std::min(words, (key->size() - key_width) / sizeof(uint64_t));
  for (size_t w = 0; w < n; ++w) {
    char* at = key->data() + key_width + w * sizeof(uint64_t);
    uint64_t word;
    std::memcpy(&word, at, sizeof(uint64_t));
    word &= ~mask[w];
    std::memcpy(at, &word, sizeof(uint64_t));
  }
}

/// Materializes the join-output row for batch tuple `i` into `row`.
void MaterializeRow(const SharedAggregator::Group& g, const TupleBatch& batch,
                    const storage::Schema& fact_schema, uint32_t i,
                    const SharedAggregator::DimRowFn& dim_row, std::byte* row) {
  const uint32_t* dim_rows = batch.tuple_dim_rows(i);
  for (const JoinRowMove& mv : g.moves) {
    const std::byte* src;
    if (mv.from_fact) {
      src = batch.fact_page->field(fact_schema, mv.src_col, i);
    } else {
      const uint32_t r = dim_rows[mv.filter_pos];
      SDW_DCHECK(r != kNoDimRow);
      src = dim_row(mv.filter_pos, r) + mv.src_off;
    }
    std::memcpy(row + mv.dst_off, src, mv.len);
  }
}

/// Appends the group-key bytes of a materialized row to `key`.
void AppendGroupKey(const SharedAggregator::Group& g, const std::byte* row,
                    std::string* key) {
  for (size_t c : g.group_cols) {
    key->append(
        reinterpret_cast<const char*>(row + g.join_schema.offset(c)),
        g.join_schema.column(c).width());
  }
}

}  // namespace

SharedAggregator::SharedAggregator(size_t num_parts, size_t mask_words,
                                   size_t member_words)
    : num_parts_(num_parts),
      mask_words_(mask_words),
      member_words_(member_words > mask_words ? member_words : mask_words) {}

SharedAggregator::Group* SharedAggregator::FindGroup(
    const std::string& signature) {
  for (auto& g : groups_) {
    if (g->signature == signature) return g.get();
  }
  return nullptr;
}

SharedAggregator::Group* SharedAggregator::CreateGroup(std::string signature) {
  auto g = std::make_unique<Group>();
  g->signature = std::move(signature);
  g->member_mask = Bitset(member_words_ * 64);
  g->retired_pending.assign(member_words_, 0);
  g->partials.resize(num_parts_);
  groups_.push_back(std::move(g));
  return groups_.back().get();
}

void SharedAggregator::RebuildFoldIndex(Group* g) const {
  const size_t slots = mask_words_ * 64;
  g->sat_slot_mask.assign(mask_words_, 0);
  g->sat_begin.assign(slots + 1, 0);
  g->sat_idx.clear();
  if (g->folded_members == 0) return;
  for (const Member& mem : g->members) {
    if (mem.folded) ++g->sat_begin[mem.slot + 1];
  }
  for (size_t s = 0; s < slots; ++s) {
    if (g->sat_begin[s + 1] != 0) bits::Set(g->sat_slot_mask.data(), s);
    g->sat_begin[s + 1] += g->sat_begin[s];
  }
  g->sat_idx.resize(g->folded_members);
  std::vector<uint32_t> fill(g->sat_begin.begin(), g->sat_begin.end() - 1);
  for (size_t m = 0; m < g->members.size(); ++m) {
    if (g->members[m].folded) {
      g->sat_idx[fill[g->members[m].slot]++] = static_cast<uint32_t>(m);
    }
  }
}

void SharedAggregator::AddMember(Group* g, uint32_t slot,
                                 query::Predicate::Bound fact_pred) {
  SDW_CHECK(!g->member_mask.Test(slot));
  // A recycled bit must not inherit a predecessor's lazily-retired entries.
  if (g->retired_count != 0 && bits::Test(g->retired_pending.data(), slot)) {
    FlushRetired(g);
  }
  g->member_mask.Set(slot);
  g->members.push_back({slot, slot, false, std::move(fact_pred), {}});
  RebuildFoldIndex(g);
}

void SharedAggregator::AddFoldedMember(Group* g, uint32_t bit,
                                       uint32_t host_slot,
                                       query::Predicate::Bound fact_pred,
                                       std::vector<Residual> residuals) {
  SDW_CHECK(bit >= mask_words_ * 64 && bit < member_words_ * 64);
  SDW_CHECK(!g->member_mask.Test(bit));
  // Recycled fold bits flush like recycled slots (see AddMember).
  if (g->retired_count != 0 && bits::Test(g->retired_pending.data(), bit)) {
    FlushRetired(g);
  }
  g->member_mask.Set(bit);
  g->members.push_back(
      {bit, host_slot, true, std::move(fact_pred), std::move(residuals)});
  ++g->folded_members;
  RebuildFoldIndex(g);
}

void SharedAggregator::MergePartials(Group* g) {
  // Strip lazily-retired bits first: fresh partial entries carry clean
  // masks (FoldBatch reads member_mask, which retirement clears eagerly),
  // and merging them against stale keys would split otherwise-equal
  // entries.
  FlushRetired(g);
  for (AccTable& part : g->partials) {
    for (auto& [key, accs] : part) {
      auto [it, inserted] = g->merged.try_emplace(key);
      if (inserted) {
        it->second = std::move(accs);
      } else {
        for (size_t a = 0; a < accs.size(); ++a) {
          it->second[a].MergeFrom(accs[a]);
        }
      }
    }
    part.clear();
  }
}

void SharedAggregator::SliceSlot(const Group& g, uint32_t slot,
                                 AccTable* out) {
  for (const auto& [key, accs] : g.merged) {
    if (!KeyMaskTest(key, g.key_width, slot)) continue;
    auto [it, inserted] = out->try_emplace(key.substr(0, g.key_width));
    if (inserted) it->second.resize(accs.size());
    for (size_t a = 0; a < accs.size(); ++a) {
      it->second[a].MergeFrom(accs[a]);
    }
  }
}

void SharedAggregator::RenderSlice(const Group& g, const AccTable& slice,
                                   std::vector<std::string>* rows) {
  const size_t tuple_size = g.out_schema.tuple_size();
  const size_t num_groups = g.group_cols.size();
  auto render = [&](const std::string& key,
                    const std::vector<query::AggAcc>& accs) {
    std::string row(tuple_size, '\0');
    std::byte* dst = reinterpret_cast<std::byte*>(row.data());
    std::memcpy(dst, key.data(), key.size());
    for (size_t a = 0; a < g.aggs.size(); ++a) {
      query::EmitAcc(g.aggs[a], g.out_schema, dst, num_groups + a, accs[a]);
    }
    rows->push_back(std::move(row));
  };
  for (const auto& [key, accs] : slice) render(key, accs);
  if (slice.empty() && g.group_cols.empty()) {
    // Global aggregate on empty input: SQL yields exactly one row from
    // zero-initialized accumulators (matching RunAggregate).
    render(std::string(), std::vector<query::AggAcc>(g.aggs.size()));
  }
}

bool SharedAggregator::RetireSlot(Group* g, uint32_t slot) {
  for (const AccTable& part : g->partials) {
    SDW_CHECK_MSG(part.empty(), "RetireSlot requires partials merged");
  }
  // Lazy: the bit only joins the pending set here. Survivors' slices never
  // see it (they select by their own live bits), so the table pass that
  // folds it out is deferred to FlushRetired — one batched pass per drain
  // instead of one per retiring rider, and none at all when the group dies
  // with its last member.
  SDW_CHECK(slot < g->retired_pending.size() * 64);
  if (!bits::Test(g->retired_pending.data(), slot)) {
    bits::Set(g->retired_pending.data(), slot);
    ++g->retired_count;
  }
  g->member_mask.Clear(slot);
  for (auto it = g->members.begin(); it != g->members.end(); ++it) {
    if (it->bit == slot) {
      if (it->folded) --g->folded_members;
      g->members.erase(it);
      break;
    }
  }
  RebuildFoldIndex(g);
  return g->members.empty();
}

void SharedAggregator::FlushRetired(Group* g) {
  if (g->retired_count == 0) return;
  const uint64_t* pend = g->retired_pending.data();
  const size_t words = g->retired_pending.size();
  // Fold the pending bits out of every entry: survivors' bits are
  // untouched, so their later slices see exactly the same contributions;
  // entries whose bitmap goes empty served only retired members and are
  // dropped; entries whose stripped key collides with a clean one merge.
  std::vector<std::pair<std::string, std::vector<query::AggAcc>>> rekeyed;
  for (auto it = g->merged.begin(); it != g->merged.end();) {
    if (!KeyMaskIntersects(it->first, g->key_width, pend, words)) {
      ++it;
      continue;
    }
    std::string key = it->first;
    KeyMaskClearAll(&key, g->key_width, pend, words);
    if (KeyMaskAny(key, g->key_width)) {
      rekeyed.emplace_back(std::move(key), std::move(it->second));
    }
    it = g->merged.erase(it);
  }
  for (auto& [key, accs] : rekeyed) {
    auto [it, inserted] = g->merged.try_emplace(std::move(key));
    if (inserted) {
      it->second = std::move(accs);
    } else {
      for (size_t a = 0; a < accs.size(); ++a) {
        it->second[a].MergeFrom(accs[a]);
      }
    }
  }
  std::fill(g->retired_pending.begin(), g->retired_pending.end(), 0);
  g->retired_count = 0;
}

void SharedAggregator::SliceMembers(const Group& g,
                                    const std::vector<uint32_t>& bits,
                                    std::vector<AccTable>* slices) const {
  slices->clear();
  slices->resize(bits.size());
  if (bits.empty()) return;
  std::vector<uint64_t> want(member_words_, 0);
  std::vector<uint32_t> slice_of(member_words_ * 64, 0);
  for (size_t i = 0; i < bits.size(); ++i) {
    SDW_CHECK(bits[i] < member_words_ * 64);
    bits::Set(want.data(), bits[i]);
    slice_of[bits[i]] = static_cast<uint32_t>(i);
  }
  for (const auto& [key, accs] : g.merged) {
    const size_t words = std::min(
        member_words_, (key.size() - g.key_width) / sizeof(uint64_t));
    for (size_t w = 0; w < words; ++w) {
      uint64_t word;
      std::memcpy(&word,
                  key.data() + g.key_width + w * sizeof(uint64_t),
                  sizeof(uint64_t));
      uint64_t hit = word & want[w];
      while (hit != 0) {
        const uint32_t b =
            static_cast<uint32_t>(w * 64 + std::countr_zero(hit));
        hit &= hit - 1;
        AccTable& out = (*slices)[slice_of[b]];
        auto [it, inserted] = out.try_emplace(key.substr(0, g.key_width));
        if (inserted) it->second.resize(accs.size());
        for (size_t a = 0; a < accs.size(); ++a) {
          it->second[a].MergeFrom(accs[a]);
        }
      }
    }
  }
}

void SharedAggregator::DestroyGroup(Group* g) {
  for (auto it = groups_.begin(); it != groups_.end(); ++it) {
    if (it->get() == g) {
      groups_.erase(it);
      return;
    }
  }
  SDW_CHECK_MSG(false, "DestroyGroup: unknown group");
}

void SharedAggregator::FoldBatch(Group* g, const TupleBatch& batch,
                                 const storage::Schema& fact_schema,
                                 const DimRowFn& dim_row, size_t part,
                                 bool preds_pre_applied,
                                 FoldScratch* scratch) const {
  SDW_DCHECK(batch.words_per_tuple == mask_words_);
  AccTable& table = g->partials[part];
  scratch->row.resize(g->join_row_size);
  scratch->mask.resize(member_words_);
  std::byte* row = scratch->row.data();
  uint64_t* mask = scratch->mask.data();
  const uint64_t* gmask = g->member_mask.words();
  const size_t words = mask_words_;
  const size_t member_words = member_words_;
  const bool has_folded = g->folded_members > 0;
  const size_t num_aggs = g->aggs.size();

  const storage::Page& fact_page = *batch.fact_page;
  const uint64_t* live = batch.live_words();
  const size_t live_words = bits::WordsFor(batch.num_tuples);
  for (size_t lw = 0; lw < live_words; ++lw) {
    uint64_t lword = live[lw];
    while (lword != 0) {
      const uint32_t i = static_cast<uint32_t>(
          lw * 64 + static_cast<size_t>(std::countr_zero(lword)));
      lword &= lword - 1;

      // Member bitmap: the tuple's query bitmap restricted to this group.
      // Fold-bit words start zero; folded members' verdicts are computed
      // below from their HOST slot's raw bit (tuple bitmaps carry slots
      // only).
      const uint64_t* tb = batch.tuple_bits(i);
      uint64_t any = 0;
      uint64_t sat_any = 0;
      for (size_t w = 0; w < words; ++w) {
        mask[w] = tb[w] & gmask[w];
        any |= mask[w];
        if (has_folded) sat_any |= tb[w] & g->sat_slot_mask[w];
      }
      for (size_t w = words; w < member_words; ++w) mask[w] = 0;
      if (any == 0 && sat_any == 0) continue;
      if (!preds_pre_applied) {
        // Per-member fact-predicate verdicts refine the bitmap, so the key
        // attributes the tuple only to members it actually qualifies for.
        for (const Member& mem : g->members) {
          if (mem.folded || mem.fact_pred.IsTrue()) continue;
          if (bits::Test(mask, mem.slot) &&
              !mem.fact_pred.EvalAt(fact_schema, fact_page, i)) {
            bits::Clear(mask, mem.slot);
          }
        }
      }
      if (sat_any != 0) {
        // Folded members: host filter verdict (the RAW slot bit — the
        // host's own fact predicate must not gate its satellites) refined
        // by the satellite's fact predicate and dim residuals. The fold
        // index narrows the walk to the satellites of matched hosts, and
        // memoized residuals cost one bit test per dimension.
        const uint32_t* dim_rows = batch.tuple_dim_rows(i);
        for (size_t w = 0; w < words; ++w) {
          uint64_t hword = tb[w] & g->sat_slot_mask[w];
          while (hword != 0) {
            const size_t host = w * 64 +
                                static_cast<size_t>(std::countr_zero(hword));
            hword &= hword - 1;
            for (uint32_t k = g->sat_begin[host]; k < g->sat_begin[host + 1];
                 ++k) {
              const Member& mem = g->members[g->sat_idx[k]];
              if (!mem.fact_pred.IsTrue() &&
                  !mem.fact_pred.EvalAt(fact_schema, fact_page, i)) {
                continue;
              }
              bool pass = true;
              for (const Residual& r : mem.residuals) {
                const uint32_t dr = dim_rows[r.filter_pos];
                SDW_DCHECK(dr != kNoDimRow);
                if (!bits::Test(r.row_pass.data(), dr)) {
                  pass = false;
                  break;
                }
              }
              if (pass) bits::Set(mask, mem.bit);
            }
          }
        }
      }
      if (!bits::Any(mask, member_words)) continue;

      MaterializeRow(*g, batch, fact_schema, i, dim_row, row);
      scratch->key.clear();
      AppendGroupKey(*g, row, &scratch->key);
      scratch->key.append(reinterpret_cast<const char*>(mask),
                          member_words * sizeof(uint64_t));
      auto [it, inserted] = table.try_emplace(scratch->key);
      if (inserted) it->second.resize(num_aggs);
      for (size_t a = 0; a < num_aggs; ++a) {
        query::UpdateAcc(g->aggs[a], g->join_schema, row, &it->second[a]);
      }
    }
  }
}

void AggregateScalar(const SharedAggregator::Group& g,
                     const SharedAggregator::Member& mem,
                     const TupleBatch& batch,
                     const storage::Schema& fact_schema,
                     const SharedAggregator::DimRowFn& dim_row,
                     bool preds_pre_applied,
                     SharedAggregator::AccTable* table) {
  std::vector<std::byte> row_buf(g.join_row_size);
  std::byte* row = row_buf.data();
  std::string key;
  const size_t num_aggs = g.aggs.size();
  const storage::Page& fact_page = *batch.fact_page;
  for (uint32_t i = 0; i < batch.num_tuples; ++i) {
    if (!batch.tuple_live(i)) continue;
    if (!bits::Test(batch.tuple_bits(i), mem.slot)) continue;
    if (!preds_pre_applied && !mem.fact_pred.IsTrue() &&
        !mem.fact_pred.EvalAt(fact_schema, fact_page, i)) {
      continue;
    }
    MaterializeRow(g, batch, fact_schema, i, dim_row, row);
    key.clear();
    AppendGroupKey(g, row, &key);
    auto [it, inserted] = table->try_emplace(key);
    if (inserted) it->second.resize(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      query::UpdateAcc(g.aggs[a], g.join_schema, row, &it->second[a]);
    }
  }
}

}  // namespace sdw::cjoin
