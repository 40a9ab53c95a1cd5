// Fixed-size (32 KB) pages holding fixed-width tuples. Pages are both the
// unit of table storage and the unit of exchange between operators (QPipe's
// page-based data flow and the Shared Pages List both move PagePtr values).
//
// Two intra-page layouts share the same header and capacity accounting:
//
//  * row-major (NSM): tuples packed back to back after the header — the
//    default, produced by Page::Make and consumed via tuple()/AppendTuple().
//    Every intermediate-result page (operator channels, result sinks) is
//    row-major.
//  * PAX (column-major within the page): one 64-byte-aligned minipage per
//    column, produced by Page::MakeColumnar against a PageLayout. A column
//    is one contiguous vector, so scans touch only the cache lines of the
//    columns they use. Produced by Table::ConvertToColumnar for scan-heavy
//    base tables (the fact table).
//
// Fact-page readers never branch on the layout: column() gives a column's
// first field and its stride under either layout, and field() is built on
// it. See docs/STORAGE.md for the layout diagram and rules.

#ifndef SDW_STORAGE_PAGE_H_
#define SDW_STORAGE_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "storage/schema.h"

namespace sdw::storage {

/// Page size used throughout sdw; matches the paper's 32 KB configuration.
inline constexpr size_t kPageSize = 32 * 1024;

/// Minipage (and payload-base) alignment: one cache line, and the unit SIMD
/// kernels may assume for aligned column loads.
inline constexpr size_t kPageAlign = 64;

/// PAX layout plan for one schema: per-column minipage offsets within a
/// page's payload and the page's row capacity. Computed once per table
/// (Table::ConvertToColumnar owns it); every columnar page of the table
/// references the same immutable PageLayout.
///
/// Minipages are laid out fixed-width-numeric columns first, then the
/// fixed-width kChar columns (the fixed/variable split: numeric minipages —
/// the vectorizable ones — stay clustered at the aligned front of the page).
/// Each minipage base is 64-byte aligned.
class PageLayout {
 public:
  explicit PageLayout(const Schema& schema);

  SDW_DISALLOW_COPY(PageLayout);

  /// Rows per page under this layout (≤ the row-major capacity: alignment
  /// padding between minipages costs a few tuples per page).
  uint32_t capacity() const { return capacity_; }
  size_t num_columns() const { return offsets_.size(); }
  /// Byte offset of column `c`'s minipage base within the page payload.
  size_t column_offset(size_t c) const { return offsets_[c]; }
  /// Byte width of one value of column `c`.
  uint32_t column_width(size_t c) const { return widths_[c]; }

 private:
  std::vector<size_t> offsets_;  // minipage base per column (payload-relative)
  std::vector<uint32_t> widths_;
  uint32_t capacity_ = 0;
};

/// A page of fixed-width tuples. The object occupies exactly kPageSize bytes;
/// the payload starts at a 64-byte-aligned offset (the header is padded to
/// kPageAlign and allocations are 64-byte aligned).
class Page {
 public:
  /// Allocates an empty row-major page for tuples of `tuple_size` bytes.
  /// `tuple_size` must leave room for at least one tuple.
  static std::shared_ptr<Page> Make(uint32_t tuple_size);

  /// Allocates an empty PAX page laid out per `layout`, which must outlive
  /// the page (tables own their layout for the lifetime of their pages).
  static std::shared_ptr<Page> MakeColumnar(const Schema& schema,
                                            const PageLayout* layout);

  /// Deep copy (used by the push-based forwarding path of SP, which copies
  /// result pages into every satellite's FIFO — the paper's serialization
  /// point). Copies the header plus only the used payload prefix — per
  /// minipage under PAX — not all kPageSize bytes.
  static std::shared_ptr<Page> Clone(const Page& src);

  /// Total payload bytes copied by Clone since process start. The unit tests
  /// assert against this that cloning a nearly-empty page moves its used
  /// prefix, not kPageSize.
  static uint64_t clone_payload_bytes();

  uint32_t tuple_size() const { return tuple_size_; }
  uint32_t tuple_count() const { return tuple_count_; }
  bool empty() const { return tuple_count_ == 0; }

  /// Max number of tuples this page can hold.
  uint32_t capacity() const { return capacity_; }
  bool full() const { return tuple_count_ == capacity_; }

  /// Producer-assigned sequence/position stamp (e.g. page index of a scan).
  uint64_t seq() const { return seq_; }
  void set_seq(uint64_t s) { seq_ = s; }

  /// True when this page is PAX (column-major); tuple()/AppendTuple() are
  /// row-major-only and must not be called on a columnar page.
  bool columnar() const { return layout_ != nullptr; }
  const PageLayout* layout() const { return layout_; }

  /// Pointer to tuple `i` (read). Row-major pages only.
  const std::byte* tuple(uint32_t i) const {
    SDW_DCHECK(i < tuple_count_);
    SDW_DCHECK(layout_ == nullptr);
    return payload_ + static_cast<size_t>(i) * tuple_size_;
  }

  /// Column `col` of a page of `schema` tuples: tuple i's field sits at
  /// `first + i * stride` under either layout. The stride is the tuple size
  /// on a row-major page and the value width inside a PAX minipage, where
  /// the column is one contiguous, 64-byte-aligned vector.
  struct ColumnView {
    const std::byte* first;
    size_t stride;
  };
  ColumnView column(const Schema& schema, size_t col) const {
    if (layout_ != nullptr) {
      return {payload_ + layout_->column_offset(col),
              layout_->column_width(col)};
    }
    return {payload_ + schema.offset(col), tuple_size_};
  }

  /// Layout-neutral pointer to field `col` of tuple `i`.
  const std::byte* field(const Schema& schema, size_t col, uint32_t i) const {
    SDW_DCHECK(i < tuple_count_);
    const ColumnView c = column(schema, col);
    return c.first + static_cast<size_t>(i) * c.stride;
  }

  /// Layout-neutral read of an integer column of either width as int64.
  int64_t GetIntAny(const Schema& schema, size_t col, uint32_t i) const {
    const std::byte* f = field(schema, col, i);
    if (schema.column(col).type == ColumnType::kInt32) {
      int32_t v;
      std::memcpy(&v, f, sizeof(v));
      return v;
    }
    int64_t v;
    std::memcpy(&v, f, sizeof(v));
    return v;
  }

  /// Reserves space for one more tuple and returns its writable bytes;
  /// nullptr when the page is full. Row-major pages only.
  std::byte* AppendTuple() {
    if (full()) return nullptr;
    SDW_DCHECK(layout_ == nullptr);
    std::byte* t = payload_ + static_cast<size_t>(tuple_count_) * tuple_size_;
    ++tuple_count_;
    return t;
  }

  /// Appends one row by scattering its fields into the minipages. Columnar
  /// pages only; the page must not be full.
  void AppendRowFrom(const Schema& schema, const std::byte* row) {
    SDW_DCHECK(layout_ != nullptr);
    SDW_CHECK(!full());
    const size_t n = schema.num_columns();
    for (size_t c = 0; c < n; ++c) {
      const uint32_t w = layout_->column_width(c);
      std::memcpy(payload_ + layout_->column_offset(c) +
                      static_cast<size_t>(tuple_count_) * w,
                  row + schema.offset(c), w);
    }
    ++tuple_count_;
  }

  /// Logical bytes of payload currently in use (tuple bytes, excluding PAX
  /// alignment padding).
  size_t used_bytes() const {
    return static_cast<size_t>(tuple_count_) * tuple_size_;
  }

 private:
  Page(uint32_t tuple_size, uint32_t capacity, const PageLayout* layout)
      : tuple_size_(tuple_size), capacity_(capacity), layout_(layout) {}

  static std::shared_ptr<Page> Alloc(uint32_t tuple_size, uint32_t capacity,
                                     const PageLayout* layout);

  uint32_t tuple_size_;
  uint32_t capacity_;
  uint32_t tuple_count_ = 0;
  uint64_t seq_ = 0;
  const PageLayout* layout_;  // nullptr = row-major
  // Pads the header to kPageAlign so payload_ (and with it every row-major
  // tuple base and PAX minipage base) starts on a 64-byte boundary.
  std::byte header_pad_[kPageAlign - 32];
  std::byte payload_[];  // flexible array; allocation sized to kPageSize
};

static_assert(sizeof(Page) == kPageAlign,
              "Page header must pad to the payload alignment boundary");

using PagePtr = std::shared_ptr<Page>;

/// Payload capacity of a row-major page for a given tuple size.
inline uint32_t PageCapacityFor(uint32_t tuple_size) {
  const size_t header = sizeof(Page);
  static_assert(header % kPageAlign == 0,
                "page payload base must be 64-byte aligned");
  SDW_CHECK_MSG(tuple_size > 0 && header + tuple_size <= kPageSize,
                "tuple size %u does not fit a page", tuple_size);
  return static_cast<uint32_t>((kPageSize - header) / tuple_size);
}

}  // namespace sdw::storage

#endif  // SDW_STORAGE_PAGE_H_
