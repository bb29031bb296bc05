// Word-packed bitset used for state sets.
//
// `std::vector<bool>` pays a proxy-object dereference per bit and gives the
// optimizer nothing to vectorize; the qualitative graph closures and the
// PCTL boolean connectives are all bulk bit operations, so `StateSet` is
// backed by this 64-bit-word bitset instead. The interface keeps the small
// `vector<bool>` surface the codebase actually uses — size/value
// construction, `operator[]` read and assignment, equality — and adds
// word-wise set algebra (complement, union, intersection, count).
//
// Invariant: bits past `size()` in the last word are always zero, so
// word-wise equality, counting and hashing are exact.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <vector>

#include "src/common/error.hpp"

namespace tml {

class Bitset {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  Bitset() = default;
  explicit Bitset(std::size_t size, bool value = false)
      : size_(size),
        words_(num_words(size), value ? ~Word{0} : Word{0}) {
    trim();
  }
  Bitset(std::initializer_list<bool> bits) : Bitset(bits.size()) {
    std::size_t i = 0;
    for (bool b : bits) {
      if (b) set(i);
      ++i;
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool test(std::size_t i) const {
    TML_ASSERT(i < size_, "Bitset: index " << i << " out of range " << size_);
    return (words_[i >> 6] >> (i & 63)) & Word{1};
  }
  void set(std::size_t i, bool value = true) {
    TML_ASSERT(i < size_, "Bitset: index " << i << " out of range " << size_);
    const Word mask = Word{1} << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  /// Writable single-bit reference, so `set[i] = flag` keeps working.
  class Reference {
   public:
    Reference(Bitset& owner, std::size_t index) : owner_(owner), index_(index) {}
    operator bool() const { return owner_.test(index_); }
    Reference& operator=(bool value) {
      owner_.set(index_, value);
      return *this;
    }
    Reference& operator=(const Reference& other) { return *this = bool(other); }

   private:
    Bitset& owner_;
    std::size_t index_;
  };

  bool operator[](std::size_t i) const { return test(i); }
  Reference operator[](std::size_t i) { return Reference(*this, i); }

  friend bool operator==(const Bitset& a, const Bitset& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }
  friend bool operator!=(const Bitset& a, const Bitset& b) { return !(a == b); }

  /// Number of set bits.
  std::size_t count() const {
    std::size_t n = 0;
    for (Word w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
    return n;
  }
  /// True iff no bit is set.
  bool none() const {
    for (Word w : words_) {
      if (w != 0) return false;
    }
    return true;
  }
  bool any() const { return !none(); }

  // -- word-wise set algebra (operands must have equal size) ---------------

  Bitset& operator|=(const Bitset& other) {
    TML_REQUIRE(size_ == other.size_, "Bitset |=: size mismatch");
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
    return *this;
  }
  Bitset& operator&=(const Bitset& other) {
    TML_REQUIRE(size_ == other.size_, "Bitset &=: size mismatch");
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
    return *this;
  }
  /// Flips every bit in place.
  Bitset& flip() {
    for (Word& w : words_) w = ~w;
    trim();
    return *this;
  }

  const std::vector<Word>& words() const { return words_; }

  /// Grows or shrinks to `size` bits; new bits are false. Word storage
  /// grows geometrically, so growing by one bit at a time is amortised O(1).
  void resize(std::size_t size) {
    const std::size_t words = num_words(size);
    if (words > words_.capacity()) {
      words_.reserve(std::max(words, 2 * words_.capacity()));
    }
    words_.resize(words, Word{0});
    size_ = size;
    trim();
  }

  friend std::ostream& operator<<(std::ostream& os, const Bitset& set) {
    os << '{';
    bool first = true;
    for (std::size_t i = 0; i < set.size_; ++i) {
      if (!set.test(i)) continue;
      if (!first) os << ',';
      os << i;
      first = false;
    }
    return os << '}';
  }

 private:
  static std::size_t num_words(std::size_t bits) { return (bits + 63) / 64; }

  /// Zeroes the bits past size() in the last word (class invariant).
  void trim() {
    if (size_ & 63) words_.back() &= (Word{1} << (size_ & 63)) - 1;
  }

  std::size_t size_ = 0;
  std::vector<Word> words_;
};

/// Complement of a bit set.
inline Bitset complement(const Bitset& set) {
  Bitset out = set;
  out.flip();
  return out;
}

/// Union / intersection helpers.
inline Bitset set_union(const Bitset& a, const Bitset& b) {
  TML_REQUIRE(a.size() == b.size(), "set_union: size mismatch");
  Bitset out = a;
  out |= b;
  return out;
}

inline Bitset set_intersection(const Bitset& a, const Bitset& b) {
  TML_REQUIRE(a.size() == b.size(), "set_intersection: size mismatch");
  Bitset out = a;
  out &= b;
  return out;
}

/// Number of true bits.
inline std::size_t count(const Bitset& set) { return set.count(); }

/// True if no bit is set.
inline bool empty(const Bitset& set) { return set.none(); }

}  // namespace tml
