// Bit-manipulation primitives used by the CJOIN query bitmaps and elsewhere.
//
// Two layers:
//  * free functions over raw uint64_t word spans — the hot path used for the
//    per-tuple bitmaps that travel through the CJOIN pipeline, where the word
//    storage lives in batch arenas;
//  * Bitset — an owning, resizable bitset for bookkeeping (pass masks,
//    active-query masks, slot allocators).

#ifndef SDW_COMMON_BITMAP_H_
#define SDW_COMMON_BITMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/macros.h"

namespace sdw {

namespace bits {

/// Number of 64-bit words needed to hold `nbits` bits.
constexpr size_t WordsFor(size_t nbits) { return (nbits + 63) / 64; }

/// Sets bit `i` in the word span.
inline void Set(uint64_t* words, size_t i) {
  words[i >> 6] |= uint64_t{1} << (i & 63);
}

/// Clears bit `i` in the word span.
inline void Clear(uint64_t* words, size_t i) {
  words[i >> 6] &= ~(uint64_t{1} << (i & 63));
}

/// Tests bit `i` in the word span.
inline bool Test(const uint64_t* words, size_t i) {
  return (words[i >> 6] >> (i & 63)) & 1;
}

/// dst &= src over `nwords` words.
inline void AndWith(uint64_t* dst, const uint64_t* src, size_t nwords) {
  for (size_t w = 0; w < nwords; ++w) dst[w] &= src[w];
}

/// dst |= src over `nwords` words.
inline void OrWith(uint64_t* dst, const uint64_t* src, size_t nwords) {
  for (size_t w = 0; w < nwords; ++w) dst[w] |= src[w];
}

/// dst &= (a | b): the CJOIN filter step (match-bits OR pass-mask).
inline void AndWithOr(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                      size_t nwords) {
  for (size_t w = 0; w < nwords; ++w) dst[w] &= (a[w] | b[w]);
}

/// Fused filter kernel: dst &= (a | b), returning the OR of the resulting
/// words — zero iff the span went empty. Saves the separate Any() pass on
/// the filter path (the result words are still in registers).
inline uint64_t AndWithOrAny(uint64_t* dst, const uint64_t* a,
                             const uint64_t* b, size_t nwords) {
  uint64_t acc = 0;
  for (size_t w = 0; w < nwords; ++w) {
    dst[w] &= (a[w] | b[w]);
    acc |= dst[w];
  }
  return acc;
}

/// True if any bit is set in the span.
inline bool Any(const uint64_t* words, size_t nwords) {
  for (size_t w = 0; w < nwords; ++w) {
    if (words[w] != 0) return true;
  }
  return false;
}

/// Number of set bits in the span.
inline size_t Popcount(const uint64_t* words, size_t nwords) {
  size_t n = 0;
  for (size_t w = 0; w < nwords; ++w) n += std::popcount(words[w]);
  return n;
}

/// Zeroes the span.
inline void Zero(uint64_t* words, size_t nwords) {
  std::memset(words, 0, nwords * sizeof(uint64_t));
}

/// Copies `nwords` words from src to dst.
inline void Copy(uint64_t* dst, const uint64_t* src, size_t nwords) {
  std::memcpy(dst, src, nwords * sizeof(uint64_t));
}

/// Sets the first `nbits` bits and clears any trailing bits of the last
/// word, so word-granular scans of the span never see phantom set bits.
inline void FillOnes(uint64_t* words, size_t nbits) {
  const size_t full = nbits / 64;
  for (size_t w = 0; w < full; ++w) words[w] = ~uint64_t{0};
  const size_t rem = nbits % 64;
  if (rem != 0) words[full] = (uint64_t{1} << rem) - 1;
}

/// Index of the lowest set bit at or after `from`, or `nbits` if none.
size_t FindNextSet(const uint64_t* words, size_t nbits, size_t from);

/// Calls `fn(std::integral_constant<size_t, W>{})` with W = `nwords` when
/// it is 1, 2 or 4, and W = 0 for any other width. A loop body templated on
/// W then sees a constant word count (the compiler unrolls its word loops),
/// and the W = 0 instantiation reads `nwords` at run time.
template <typename Fn>
void WithWidth(size_t nwords, Fn&& fn) {
  switch (nwords) {
    case 1: return fn(std::integral_constant<size_t, 1>{});
    case 2: return fn(std::integral_constant<size_t, 2>{});
    case 4: return fn(std::integral_constant<size_t, 4>{});
    default: return fn(std::integral_constant<size_t, 0>{});
  }
}

}  // namespace bits

/// Owning, resizable bitset with a stable word layout (LSB-first).
class Bitset {
 public:
  Bitset() = default;
  /// Creates a bitset with `nbits` bits, all clear.
  explicit Bitset(size_t nbits) : nbits_(nbits), words_(bits::WordsFor(nbits)) {}

  size_t size() const { return nbits_; }
  size_t num_words() const { return words_.size(); }
  const uint64_t* words() const { return words_.data(); }
  uint64_t* words() { return words_.data(); }

  /// Grows (or shrinks) to `nbits` bits; new bits are clear.
  void Resize(size_t nbits);

  void Set(size_t i) {
    SDW_DCHECK(i < nbits_);
    bits::Set(words_.data(), i);
  }
  void Clear(size_t i) {
    SDW_DCHECK(i < nbits_);
    bits::Clear(words_.data(), i);
  }
  bool Test(size_t i) const {
    SDW_DCHECK(i < nbits_);
    return bits::Test(words_.data(), i);
  }

  /// Clears all bits (size unchanged).
  void Reset() { bits::Zero(words_.data(), words_.size()); }

  bool Any() const { return bits::Any(words_.data(), words_.size()); }
  size_t Count() const { return bits::Popcount(words_.data(), words_.size()); }

  /// Index of the lowest set bit at or after `from`, or size() if none.
  size_t FindNextSet(size_t from) const {
    return bits::FindNextSet(words_.data(), nbits_, from);
  }

  /// Index of the lowest *clear* bit, or size() if all set.
  size_t FindFirstClear() const;

  /// Renders e.g. "{0,3,17}" for debugging.
  std::string ToString() const;

 private:
  size_t nbits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace sdw

#endif  // SDW_COMMON_BITMAP_H_
