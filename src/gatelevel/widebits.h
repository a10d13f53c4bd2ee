// Wide-lane three-valued values and the SIMD kernel layer under them.
//
// `Bits` carries 64 pattern lanes in one {v, x} word pair; `WideBits<W>`
// widens that to W×64 lanes (W ∈ {1, 8} → 64/512 patterns) so one
// good-machine pass and one fault propagation grade a whole super-block.
// The gate kernels are written once against a small "word vector" concept
// (bitwise ops over K machine words) and instantiated per backend:
//
//  - ScalarWords<W>: plain uint64 loops, always built, auto-vectorizable;
//  - Avx2Words / Avx512Words: 256/512-bit intrinsic paths, visible only in
//    translation units built with -mavx2 / -mavx512f. The build compiles
//    the wide engine into such TUs (faultsim_avx2.cpp, faultsim_avx512.cpp,
//    gated on compiler support and advertised via TSYN_WIDE_AVX2 /
//    TSYN_WIDE_AVX512) while the rest of the binary stays portable.
//
// Backend choice happens per wide pass (never per gate) from what the
// running CPU supports among the compiled-in kernel TUs, demoted by the
// TSYN_FORCE_SCALAR=1 environment override that forces the scalar path
// for differential testing. All backends compute bit-identical results —
// the override exists to prove it cheaply.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "gatelevel/netlist.h"

namespace tsyn::gl {

/// W×64 pattern lanes of three-valued logic, stored as W value words then
/// W unknown-mask words. Word w holds lanes [64w, 64w+63]; lane semantics
/// match `Bits` exactly (x bit set = unknown, else v bit = value).
template <int W>
struct WideBits {
  static_assert(W >= 1, "lane width must be positive");
  std::uint64_t v[W];
  std::uint64_t x[W];

  static WideBits unknown() {
    WideBits b;
    for (int w = 0; w < W; ++w) {
      b.v[w] = 0;
      b.x[w] = ~0ULL;
    }
    return b;
  }

  bool operator==(const WideBits& o) const {
    return std::memcmp(this, &o, sizeof(WideBits)) == 0;
  }
};

// ---------------------------------------------------------------------------
// Backend selection.
// ---------------------------------------------------------------------------

enum class SimdBackend { kScalar, kAvx2, kAvx512 };

/// Widest backend compiled into THIS translation unit (its -m flags).
constexpr SimdBackend compiled_simd_backend() {
#if defined(__AVX512F__)
  return SimdBackend::kAvx512;
#elif defined(__AVX2__)
  return SimdBackend::kAvx2;
#else
  return SimdBackend::kScalar;
#endif
}

/// Widest backend the running CPU supports among those whose kernel TUs
/// are in the build (TSYN_WIDE_AVX2 / TSYN_WIDE_AVX512 come from the
/// build system alongside faultsim_avx2.cpp / faultsim_avx512.cpp). Falls
/// back to this TU's own compile-time ISA, so a whole-build -mavx2 binary
/// without the dedicated TUs still reports what it will execute.
inline SimdBackend detected_simd_backend() {
#if defined(TSYN_WIDE_AVX512)
  if (__builtin_cpu_supports("avx512f")) return SimdBackend::kAvx512;
#endif
#if defined(TSYN_WIDE_AVX2)
  if (__builtin_cpu_supports("avx2")) return SimdBackend::kAvx2;
#endif
  return compiled_simd_backend();
}

/// Backend the wide kernels will actually run: the runtime-detected
/// maximum, demoted to scalar when TSYN_FORCE_SCALAR=1 is set in the
/// environment. Re-read on every call (it only guards per-pass dispatch,
/// never the per-gate hot loop) so tests can flip the override without
/// re-execing.
inline SimdBackend active_simd_backend() {
  const char* force = std::getenv("TSYN_FORCE_SCALAR");
  if (force && force[0] == '1') return SimdBackend::kScalar;
  return detected_simd_backend();
}

inline const char* to_string(SimdBackend b) {
  switch (b) {
    case SimdBackend::kScalar: return "scalar";
    case SimdBackend::kAvx2: return "avx2";
    case SimdBackend::kAvx512: return "avx512";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Word-vector backends. Each models K consecutive uint64 words with the
// bitwise operators the three-valued kernels need. Loads/stores take plain
// uint64 pointers so values stay in ordinary (unaligned) arrays.
// ---------------------------------------------------------------------------

template <int K>
struct ScalarWords {
  static constexpr int kWords = K;
  std::uint64_t w[K];

  static ScalarWords load(const std::uint64_t* p) {
    ScalarWords r;
    for (int i = 0; i < K; ++i) r.w[i] = p[i];
    return r;
  }
  void store(std::uint64_t* p) const {
    for (int i = 0; i < K; ++i) p[i] = w[i];
  }
  static ScalarWords zero() {
    ScalarWords r;
    for (int i = 0; i < K; ++i) r.w[i] = 0;
    return r;
  }
  static ScalarWords ones() {
    ScalarWords r;
    for (int i = 0; i < K; ++i) r.w[i] = ~0ULL;
    return r;
  }
  friend ScalarWords operator&(ScalarWords a, ScalarWords b) {
    for (int i = 0; i < K; ++i) a.w[i] &= b.w[i];
    return a;
  }
  friend ScalarWords operator|(ScalarWords a, ScalarWords b) {
    for (int i = 0; i < K; ++i) a.w[i] |= b.w[i];
    return a;
  }
  friend ScalarWords operator^(ScalarWords a, ScalarWords b) {
    for (int i = 0; i < K; ++i) a.w[i] ^= b.w[i];
    return a;
  }
  ScalarWords operator~() const {
    ScalarWords r;
    for (int i = 0; i < K; ++i) r.w[i] = ~w[i];
    return r;
  }
  /// ~a & b in one op where the ISA has it (vpandn); the scalar spelling
  /// keeps the kernels' shape identical across backends.
  static ScalarWords andnot(ScalarWords a, ScalarWords b) {
    for (int i = 0; i < K; ++i) a.w[i] = ~a.w[i] & b.w[i];
    return a;
  }
  bool any() const {
    std::uint64_t acc = 0;
    for (int i = 0; i < K; ++i) acc |= w[i];
    return acc != 0;
  }
};

#if defined(__AVX2__)
struct Avx2Words {
  static constexpr int kWords = 4;
  __m256i w;

  static Avx2Words load(const std::uint64_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  void store(std::uint64_t* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), w);
  }
  static Avx2Words zero() { return {_mm256_setzero_si256()}; }
  static Avx2Words ones() {
    return {_mm256_set1_epi64x(-1)};
  }
  friend Avx2Words operator&(Avx2Words a, Avx2Words b) {
    return {_mm256_and_si256(a.w, b.w)};
  }
  friend Avx2Words operator|(Avx2Words a, Avx2Words b) {
    return {_mm256_or_si256(a.w, b.w)};
  }
  friend Avx2Words operator^(Avx2Words a, Avx2Words b) {
    return {_mm256_xor_si256(a.w, b.w)};
  }
  Avx2Words operator~() const {
    return {_mm256_xor_si256(w, _mm256_set1_epi64x(-1))};
  }
  static Avx2Words andnot(Avx2Words a, Avx2Words b) {
    return {_mm256_andnot_si256(a.w, b.w)};  // ~a & b
  }
  bool any() const { return _mm256_testz_si256(w, w) == 0; }
};
#endif  // __AVX2__

#if defined(__AVX512F__)
struct Avx512Words {
  static constexpr int kWords = 8;
  __m512i w;

  static Avx512Words load(const std::uint64_t* p) {
    return {_mm512_loadu_si512(p)};
  }
  void store(std::uint64_t* p) const { _mm512_storeu_si512(p, w); }
  static Avx512Words zero() { return {_mm512_setzero_si512()}; }
  static Avx512Words ones() { return {_mm512_set1_epi64(-1)}; }
  friend Avx512Words operator&(Avx512Words a, Avx512Words b) {
    return {_mm512_and_si512(a.w, b.w)};
  }
  friend Avx512Words operator|(Avx512Words a, Avx512Words b) {
    return {_mm512_or_si512(a.w, b.w)};
  }
  friend Avx512Words operator^(Avx512Words a, Avx512Words b) {
    return {_mm512_xor_si512(a.w, b.w)};
  }
  Avx512Words operator~() const {
    return {_mm512_xor_si512(w, _mm512_set1_epi64(-1))};
  }
  static Avx512Words andnot(Avx512Words a, Avx512Words b) {
    return {_mm512_andnot_si512(a.w, b.w)};
  }
  bool any() const { return _mm512_test_epi64_mask(w, w) != 0; }
};
#endif  // __AVX512F__

// ---------------------------------------------------------------------------
// Three-valued gate kernels over {v, x} word pairs. These are the exact
// formulas of eval_gate (netlist.h) lifted to a word-vector type V; any
// change here must keep W=1 bit-identical to eval_gate — the round-trip
// tests in tests/test_simgraph.cpp enforce it.
// ---------------------------------------------------------------------------

template <class V>
struct Tv {  // one three-valued word-vector
  V v, x;

  static Tv load(const std::uint64_t* pv, const std::uint64_t* px) {
    return {V::load(pv), V::load(px)};
  }
  void store(std::uint64_t* pv, std::uint64_t* px) const {
    v.store(pv);
    x.store(px);
  }
};

template <class V>
inline Tv<V> tv_and(Tv<V> a, Tv<V> b) {
  Tv<V> r;
  r.v = a.v & b.v;
  // Unknown unless either side is a known 0.
  r.x = (a.x | b.x) & ~(V::andnot(a.v, ~a.x) | V::andnot(b.v, ~b.x));
  r.v = V::andnot(r.x, r.v);
  return r;
}

template <class V>
inline Tv<V> tv_or(Tv<V> a, Tv<V> b) {
  Tv<V> r;
  const V ka = V::andnot(a.x, a.v);  // known 1 on a
  const V kb = V::andnot(b.x, b.v);
  r.v = ka | kb;
  r.x = V::andnot(ka | kb, a.x | b.x);
  return r;
}

template <class V>
inline Tv<V> tv_not(Tv<V> a) {
  return {V::andnot(a.x, ~a.v), a.x};
}

template <class V>
inline Tv<V> tv_xor(Tv<V> a, Tv<V> b) {
  Tv<V> r;
  r.x = a.x | b.x;
  r.v = V::andnot(r.x, a.v ^ b.v);
  return r;
}

template <class V>
inline Tv<V> tv_mux(Tv<V> sel, Tv<V> a, Tv<V> b) {
  // sel ? b : a, with X-pessimism when sel is unknown and a != b.
  Tv<V> r;
  const V sel_known = ~sel.x;
  const V pick_b = sel.v & sel_known;
  const V pick_a = V::andnot(sel.v, sel_known);
  r.v = (a.v & pick_a) | (b.v & pick_b);
  r.x = (a.x & pick_a) | (b.x & pick_b);
  const V agree = ~(a.v ^ b.v) & ~a.x & ~b.x;
  r.v = r.v | (sel.x & agree & a.v);
  r.x = r.x | V::andnot(agree, sel.x);
  return r;
}

}  // namespace tsyn::gl
