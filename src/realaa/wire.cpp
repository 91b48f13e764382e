#include "realaa/wire.h"

#include "perf/simd.h"

namespace treeaa::realaa {

namespace simd = perf::simd;

ValueBytes encode_value_array(double v) {
  ValueBytes out;
  simd::store_f64_le(out.data(), v);
  return out;
}

Bytes encode_value(double v) {
  const ValueBytes b = encode_value_array(v);
  return Bytes(b.begin(), b.end());
}

// Batched decoder: a value message is exactly 8 bytes (the old reader-based
// parser threw on both truncation and trailing bytes, i.e. size != 8), so
// the parse is one size check, one LE load, one vectorizable finiteness
// test — no exceptions on the Byzantine-garbage path.
std::optional<double> decode_value(std::span<const std::uint8_t> b) {
  if (b.size() != 8) return std::nullopt;
  const double v = simd::load_f64_le(b.data());
  if (!simd::all_finite_f64(&v, 1)) return std::nullopt;
  return v;
}

}  // namespace treeaa::realaa
