// SIMD-dispatched batch codec primitives.
//
// The wire codecs (common/bytes.h f64, gradecast/wire.cpp slot vectors,
// realaa/wire.cpp values, and the zero-copy frame path) bottom out in a
// small set of primitives: little-endian f64 store/load, bulk byte copies,
// varint encode/decode against a bounds-checked cursor, and batch
// finiteness checks. This header provides them once, dispatched at build
// time:
//
//   sse2    — 16-byte copies, 2-wide f64 finiteness (any x86-64 build,
//             -mavx2 builds included)
//   scalar  — portable byte loops (every other target, aarch64 included;
//             forced by -DTREEAA_SIMD=OFF, which defines
//             TREEAA_SIMD_FORCE_SCALAR)
//
// Only arms that some build actually compiles are kept: wider x86 or NEON
// arms would need a CI leg to keep them honest.
//
// Every active primitive has a reference twin in perf::simd::scalar that is
// ALWAYS compiled, whatever the dispatch level; the codec golden tests
// assert byte-for-byte equality between the two, so switching dispatch
// levels can never change wire bytes. kDispatch names the active level for
// reports and tests.
//
// All primitives are bit-exact by construction: they move IEEE-754 bit
// patterns and bytes, never re-deriving values through arithmetic.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

#if !defined(TREEAA_SIMD_FORCE_SCALAR) && defined(__SSE2__)
#define TREEAA_SIMD_LEVEL_SSE2 1
#include <emmintrin.h>
#endif

namespace treeaa::perf::simd {

inline constexpr bool kLittleEndian =
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__)
    true;
#else
    false;
#endif

inline constexpr const char* kDispatch =
#if defined(TREEAA_SIMD_LEVEL_SSE2)
    "sse2";
#else
    "scalar";
#endif

// --- Reference implementations (always compiled) ---------------------------

namespace scalar {

/// Little-endian IEEE-754 store, one byte at a time.
inline void store_f64_le(std::uint8_t* dst, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    dst[i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
}

/// Little-endian IEEE-754 load, one byte at a time.
[[nodiscard]] inline double load_f64_le(const std::uint8_t* src) {
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(src[i]) << (8 * i);
  }
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

inline void copy_bytes(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
}

[[nodiscard]] inline bool all_finite_f64(const double* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(v[i])) return false;
  }
  return true;
}

}  // namespace scalar

// --- Active implementations ------------------------------------------------

/// Stores a double's IEEE-754 bit pattern at `dst`, little endian. On LE
/// hosts this is one unaligned 8-byte store.
inline void store_f64_le(std::uint8_t* dst, double v) {
  if constexpr (kLittleEndian) {
    std::memcpy(dst, &v, sizeof(v));
  } else {
    scalar::store_f64_le(dst, v);
  }
}

/// Loads a little-endian IEEE-754 double from `src`.
[[nodiscard]] inline double load_f64_le(const std::uint8_t* src) {
  if constexpr (kLittleEndian) {
    double v;
    std::memcpy(&v, src, sizeof(v));
    return v;
  } else {
    return scalar::load_f64_le(src);
  }
}

/// Bulk byte copy through 16-byte vector registers where available. Ranges
/// may not overlap (the codecs copy between distinct buffers).
inline void copy_bytes(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t n) {
#if defined(TREEAA_SIMD_LEVEL_SSE2)
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i chunk =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), chunk);
  }
  if (i < n) std::memcpy(dst + i, src + i, n - i);
#else
  std::memcpy(dst, src, n);
#endif
}

/// True iff every double in v[0..n) is finite (no inf / nan). Finiteness is
/// an exponent-bits test — bits & 0x7ff0.. != 0x7ff0.. — which vectorizes as
/// integer ops, avoiding per-element FP classify calls.
[[nodiscard]] inline bool all_finite_f64(const double* v, std::size_t n) {
#if defined(TREEAA_SIMD_LEVEL_SSE2)
  const __m128i exp_mask = _mm_set1_epi64x(0x7ff0000000000000LL);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i bits =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    const __m128i exp = _mm_and_si128(bits, exp_mask);
    // No 64-bit compare in SSE2: compare 32-bit lanes and require both
    // halves of a double's exponent word pattern to match.
    const __m128i eq32 = _mm_cmpeq_epi32(exp, exp_mask);
    const __m128i hi = _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1));
    const __m128i bad = _mm_and_si128(eq32, hi);
    if (_mm_movemask_epi8(bad) != 0) return false;
  }
  return scalar::all_finite_f64(v + i, n - i);
#else
  return scalar::all_finite_f64(v, n);
#endif
}

// --- Varint cursor primitives ----------------------------------------------
// Shared by the batched encoders (exact-size single-allocation output needs
// the length up front) and the noexcept cursor decoders. Semantics are
// byte-identical to ByteWriter::varint / ByteReader::varint, including the
// canonicality rejection of overlong encodings.

/// The encoded length of a LEB128 varint, 1..10 bytes.
[[nodiscard]] inline std::size_t varint_len(std::uint64_t v) {
  std::size_t len = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++len;
  }
  return len;
}

/// Writes a LEB128 varint at `dst`; returns the cursor past the last byte.
inline std::uint8_t* write_varint(std::uint8_t* dst, std::uint64_t v) {
  while (v >= 0x80) {
    *dst++ = static_cast<std::uint8_t>(v) | 0x80u;
    v >>= 7;
  }
  *dst++ = static_cast<std::uint8_t>(v);
  return dst;
}

/// Reads a LEB128 varint from [p, end), advancing p. Returns false on
/// truncation, >10-byte encodings, or non-canonical encodings that would
/// overflow 64 bits — exactly the inputs ByteReader::varint throws on.
[[nodiscard]] inline bool read_varint(const std::uint8_t*& p,
                                      const std::uint8_t* end,
                                      std::uint64_t& out) noexcept {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (p == end) return false;
    const std::uint8_t b = *p++;
    v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
    if ((b & 0x80u) == 0) {
      if (shift == 63 && b > 1) return false;
      out = v;
      return true;
    }
  }
  return false;
}

}  // namespace treeaa::perf::simd
