// Shared aggregation for the CJOIN Global Query Plan.
//
// After distribution, aggregation is the last block of per-query work in the
// pipeline: N same-shape queries each rebuild the same group-by table over
// the same joined tuples, differing only in which tuples their predicates
// admit. This stage computes each distinct aggregation SHAPE once and slices
// per query at emit time, so aggregation cost grows with distinct group-by
// shapes, not with concurrent query count (cf. "Real-Time Analytics by
// Coordinating Reuse and Work Sharing" in PAPERS.md).
//
// Mechanism. Queries whose StarQuery::AggSignature() matches — identical
// join structure, group-by keys and aggregate expressions; predicate
// constants free — bind to one Group. For every annotated batch the
// distributor folds each live tuple ONCE per group into a hash table keyed by
//
//     (group-key bytes ++ member-bitmap bytes)
//
// where the member bitmap is the tuple's query bitmap restricted to the
// group's members, with each member's fact-predicate verdict applied. The
// bitmap key partitions every accumulator's contributions exactly by which
// member queries the tuple qualified for, so:
//
//   * slicing member s = summing the entries whose bitmap contains s,
//     grouped by key prefix — precisely the tuples s would have aggregated
//     alone (the bitmap ∧ group invariant the property tests check);
//   * retiring member s = clearing bit s from every entry (re-keying,
//     merging collisions, dropping empty-bitmap entries) — survivors'
//     slices are untouched, which is what makes mid-cycle cancellation and
//     fault retirement side-effect free and slot recycling safe.
//
// Two-phase tables: each distributor part folds into its own partial table
// (no cross-part synchronization on the hot path); partials merge into the
// group's table only at scan-cycle boundaries — the admission pauses where
// the pipeline is drained — right before a slice or retirement needs them.
//
// The pipeline's pause discipline is the synchronization contract: FoldBatch
// runs concurrently from distributor parts (each on its own partial);
// everything else requires the pipeline drained.

#ifndef SDW_CJOIN_SHARED_AGG_H_
#define SDW_CJOIN_SHARED_AGG_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cjoin/tuple_batch.h"
#include "common/bitmap.h"
#include "query/agg_ops.h"
#include "query/plan.h"
#include "query/predicate.h"
#include "storage/schema.h"

namespace sdw::cjoin {

/// Byte move from a fact row or a joined dimension row into a materialized
/// join-output tuple. Shared by the distributor's per-query projection and
/// the shared aggregation stage's row materialization.
struct JoinRowMove {
  bool from_fact;
  size_t filter_pos;  // valid when !from_fact
  size_t src_col;     // source column index (fact moves: Page::field)
  uint32_t src_off;   // row offset of src_col (read by dimension moves)
  uint32_t dst_off;
  uint32_t len;
};

/// The shared aggregation stage. Owned by the CjoinPipeline; standalone
/// construction (no pipeline) is supported for the differential tests.
class SharedAggregator {
 public:
  /// Resolves a joined dimension row: base pointer of row `row` of the
  /// dimension bound at `filter_pos` (the pipeline wraps its filters; tests
  /// with fact-only shapes pass nullptr).
  using DimRowFn =
      std::function<const std::byte*(size_t filter_pos, uint32_t row)>;

  /// Accumulator table: key -> one accumulator per aggregate. Partial and
  /// merged tables key by (group bytes ++ bitmap bytes); slices key by group
  /// bytes only.
  using AccTable = std::unordered_map<std::string, std::vector<query::AggAcc>>;

  /// A residual dimension predicate of a folded member: the satellite's own
  /// selection on one dimension, evaluated against the joined dimension row
  /// where it differs from its host's (identical predicates need no
  /// residual — the host's filter verdict is already exact for them).
  struct Residual {
    size_t filter_pos = 0;  // batch dim_rows column
    /// Verdict per dimension-table row (bit r == the predicate on row r):
    /// dimension tables are immutable, so the pipeline precomputes this once
    /// at fold time and the hot path pays one bit test per tuple instead of
    /// interpreting the predicate.
    std::vector<uint64_t> row_pass;
  };

  /// One member query of a group. Slot members (`folded == false`) own a
  /// pipeline slot: their tuple verdicts are the slot's bitmap bits and
  /// `bit == slot`. Folded members (satellites of dynamic query folding)
  /// ride a host slot's bits instead: `slot` names the HOST slot whose
  /// filter verdict bounds them, and `bit` is a private position in the
  /// widened member bitmap (beyond the pipeline's slot range) where their
  /// refined verdict — host bit ∧ own fact predicate ∧ dim residuals — is
  /// recorded, so slicing and retirement work identically for both kinds.
  struct Member {
    uint32_t bit = 0;
    uint32_t slot = 0;
    bool folded = false;
    query::Predicate::Bound fact_pred;  // bound on the fact schema
    std::vector<Residual> residuals;    // folded members only
  };

  /// One aggregation shape and its members' shared state.
  struct Group {
    std::string signature;         // StarQuery::AggSignature()
    storage::Schema join_schema;   // materialized join-output row layout
    uint32_t join_row_size = 0;
    std::vector<JoinRowMove> moves;
    std::vector<size_t> group_cols;       // into join_schema
    std::vector<query::BoundAgg> aggs;    // bound against join_schema
    storage::Schema out_schema;           // group cols, then one col per agg
    size_t key_width = 0;                 // group-key bytes (key prefix)

    Bitset member_mask;            // bound member bits (slots + fold bits)
    std::vector<Member> members;
    size_t folded_members = 0;     // count of members with folded == true

    // Lazy retirement (see RetireSlot): bits whose members are gone but
    // whose stale copies still sit in merged-entry key tails. Invisible to
    // surviving members' slices — slicing selects by live bits — so the
    // fold-out pass is deferred and batched instead of paid per retirement.
    std::vector<uint64_t> retired_pending;  // member_words words
    size_t retired_count = 0;               // set bits in retired_pending

    // Fold index, rebuilt on every member change (pause surface): which
    // host slots carry satellites, and each host's satellites as a CSR list
    // of `members` indices. FoldBatch walks only the satellites of the
    // host slots a tuple actually matched instead of scanning every member
    // per tuple.
    std::vector<uint64_t> sat_slot_mask;  // mask_words: slots with satellites
    std::vector<uint32_t> sat_begin;      // per slot: offset into sat_idx
    std::vector<uint32_t> sat_idx;        // member indices, grouped by slot

    std::vector<AccTable> partials;  // one per distributor part
    AccTable merged;
  };

  /// Reusable per-thread scratch for FoldBatch.
  struct FoldScratch {
    std::vector<std::byte> row;
    std::vector<uint64_t> mask;
    std::string key;
  };

  /// `num_parts` distributor parts fold concurrently; tuple bitmaps span
  /// `mask_words` 64-bit words (the pipeline's slot-bitmap width). The
  /// MEMBER bitmap — the key tail — spans `member_words` >= mask_words
  /// words: the extra bits are fold-bit positions for folded members, which
  /// have no slot of their own (defaults to the slot width, i.e. no fold
  /// capacity).
  SharedAggregator(size_t num_parts, size_t mask_words,
                   size_t member_words = 0);

  size_t mask_words() const { return mask_words_; }
  size_t member_words() const { return member_words_; }
  size_t num_groups() const { return groups_.size(); }
  const std::vector<std::unique_ptr<Group>>& groups() const { return groups_; }

  // ------------------------------------------- pause surface (drained only)

  /// The group bound to `signature`, or nullptr.
  Group* FindGroup(const std::string& signature);

  /// Creates an empty group for `signature`; the caller fills the shape
  /// fields (schema, moves, group_cols, aggs, out_schema, key_width) before
  /// the pipeline resumes.
  Group* CreateGroup(std::string signature);

  /// Binds `slot` as a member (bit == slot).
  void AddMember(Group* g, uint32_t slot, query::Predicate::Bound fact_pred);

  /// Binds a folded member (dynamic query folding): `bit` is a fold-bit
  /// position in [mask_words*64, member_words*64) and `host_slot` the
  /// in-flight slot whose filter verdict bounds the satellite. Its refined
  /// verdict per tuple is host bit ∧ fact_pred ∧ residuals.
  void AddFoldedMember(Group* g, uint32_t bit, uint32_t host_slot,
                       query::Predicate::Bound fact_pred,
                       std::vector<Residual> residuals);

  /// Merges every part's partial table into the group's merged table
  /// (partials come out empty, capacity retained).
  static void MergePartials(Group* g);

  /// Per-query slice: sums the merged entries whose bitmap contains member
  /// bit `slot` (a slot for slot members, a fold bit for folded ones) into
  /// `out`, keyed by group bytes only — exactly the aggregate the member
  /// would have computed alone. Requires partials merged.
  static void SliceSlot(const Group& g, uint32_t slot, AccTable* out);

  /// Batch slice: cuts many members' slices in ONE merged-table traversal —
  /// `(*slices)[i]` receives member bit `bits[i]`'s aggregate, keyed by
  /// group bytes only, exactly as SliceSlot would produce it. The drain
  /// that ends a scan cycle finishes every rider of a slot at once; slicing
  /// them per rider costs O(riders × entries), this costs O(entries) plus
  /// the irreducible per-hit merges. Requires partials merged.
  void SliceMembers(const Group& g, const std::vector<uint32_t>& bits,
                    std::vector<AccTable>* slices) const;

  /// Renders a slice into out_schema tuples (appended to `rows`, one string
  /// of out_schema.tuple_size() bytes each). An empty slice of a global
  /// aggregate (no group columns) yields the SQL one-zero-row.
  static void RenderSlice(const Group& g, const AccTable& slice,
                          std::vector<std::string>* rows);

  /// Retires the member at bit `slot` (a slot or a fold bit): unbinds the
  /// member and marks the bit for LAZY removal from the merged table. A
  /// stale bit in an entry's key tail cannot leak into any surviving
  /// member's slice (slices select by live bits only), so the fold-out pass
  /// — stripping pending bits, merging key collisions, dropping entries
  /// whose bitmap went empty — is deferred to FlushRetired, which the next
  /// MergePartials (or a re-bind of a pending bit) triggers. A drain that
  /// retires N members thus pays ONE table pass, not N; a group whose last
  /// member retires is destroyed without any pass. Requires partials
  /// merged. Returns true when the group has no members left (the caller
  /// destroys it).
  bool RetireSlot(Group* g, uint32_t slot);

  /// Folds every lazily-retired bit out of the merged table now. No-op when
  /// none are pending; called automatically by MergePartials and by
  /// AddMember/AddFoldedMember when they re-bind a pending bit.
  static void FlushRetired(Group* g);

  /// Destroys an empty group.
  void DestroyGroup(Group* g);

  // ------------------------------------------------ hot path (part threads)

  /// Folds one annotated batch into the group's part-local partial table:
  /// one accumulator update per distinct (group key, member bitmap) per
  /// tuple, however many member queries the group serves. When
  /// `preds_pre_applied`, the slot members' fact predicates were already
  /// folded into the bitmaps (the §3.2 preprocessor variant); folded
  /// members' predicates are ALWAYS evaluated here — the preprocessor knows
  /// nothing about satellites.
  void FoldBatch(Group* g, const TupleBatch& batch,
                 const storage::Schema& fact_schema, const DimRowFn& dim_row,
                 size_t part, bool preds_pre_applied,
                 FoldScratch* scratch) const;

 private:
  /// Rebuilds `g`'s fold index from its current member list.
  void RebuildFoldIndex(Group* g) const;

  const size_t num_parts_;
  const size_t mask_words_;
  const size_t member_words_;
  std::vector<std::unique_ptr<Group>> groups_;
};

/// Scalar per-query reference: aggregates exactly the batch tuples whose
/// bitmap contains the member's slot (applying its fact predicate unless
/// pre-applied) into `table`, keyed by group bytes only — the retained
/// query-at-a-time aggregation path the differential tests pin the shared
/// path against. Uses the same query/agg_ops.h accumulator ops.
void AggregateScalar(const SharedAggregator::Group& g,
                     const SharedAggregator::Member& mem,
                     const TupleBatch& batch,
                     const storage::Schema& fact_schema,
                     const SharedAggregator::DimRowFn& dim_row,
                     bool preds_pre_applied, SharedAggregator::AccTable* table);

}  // namespace sdw::cjoin

#endif  // SDW_CJOIN_SHARED_AGG_H_
