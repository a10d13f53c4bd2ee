// Stable structural hashing for content identities.
//
// Digest pins (an engine's every decision folded into one constant) and
// the pipeline bench's run digests identify a result by its content. That
// needs a hash that is (a) stable across runs, platforms, and std-library
// versions — std::hash guarantees none of that — and (b) unambiguous over
// composite inputs, so ("ab","c") never collides with ("a","bc") by
// construction. FNV-1a over a canonical serialization gives both: every
// field is folded with an explicit length or fixed width, and the 64-bit
// state is cheap enough to use on hot paths.
//
//   util::Fnv1a h;
//   h.str(design_spec).i64(alu).i64(mul).i64(steps);
//   const std::string digest = h.hex();
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace tsyn::util {

/// Incremental 64-bit FNV-1a over a canonical field serialization. Each
/// fold method returns *this so keys read as one chained expression.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffset = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  /// Raw bytes, no framing. Building block for the framed folds below;
  /// callers composing multiple variable-length fields should prefer
  /// str(), which frames with the length.
  Fnv1a& bytes(const void* data, std::size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= kPrime;
    }
    return *this;
  }

  /// A length-framed string: folds the size first, then the bytes, so
  /// adjacent string fields cannot alias each other's boundaries.
  Fnv1a& str(std::string_view s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }

  /// Fixed-width little-endian integer fold (explicit byte order keeps the
  /// value stable across platforms).
  Fnv1a& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<unsigned char>(v >> (8 * i));
      h_ *= kPrime;
    }
    return *this;
  }

  Fnv1a& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }

  std::uint64_t value() const { return h_; }

  /// 16 lowercase hex digits — the spelling the digest pins use.
  std::string hex() const { return hash_hex(h_); }

  static std::string hash_hex(std::uint64_t v) {
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
      out[static_cast<std::size_t>(i)] = digits[v & 0xF];
      v >>= 4;
    }
    return out;
  }

 private:
  std::uint64_t h_ = kOffset;
};

/// One-shot convenience: FNV-1a of a byte string (unframed — fine when the
/// whole input is a single blob, e.g. a serialized ledger).
inline std::uint64_t fnv1a(std::string_view s) {
  return Fnv1a().bytes(s.data(), s.size()).value();
}

}  // namespace tsyn::util
