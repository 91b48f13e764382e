// Value encoding for RealAA.
//
// RealAA gradecasts real values; gradecast treats them as opaque byte
// strings, so equality-of-bytes must coincide with equality-of-values. The
// codec therefore uses the raw IEEE-754 bit pattern and rejects non-finite
// values on decode: a Byzantine leader can gradecast perfectly consistent
// garbage (which earns grade 2!), and a NaN reaching the trimming step would
// poison the ordering. An undecodable grade-2 value exposes its leader as
// Byzantine, exactly like a low grade does.
#pragma once

#include <array>
#include <optional>
#include <span>

#include "common/bytes.h"

namespace treeaa::realaa {

/// A value's wire form: its 8-byte little-endian IEEE-754 bit pattern.
using ValueBytes = std::array<std::uint8_t, 8>;

/// The wire form as a fixed array (no allocation).
[[nodiscard]] ValueBytes encode_value_array(double v);

/// The wire form as owned bytes.
[[nodiscard]] Bytes encode_value(double v);

/// Decodes a value; nullopt if malformed or non-finite. Accepts any byte
/// view (owned Bytes convert implicitly), so decode hot paths can pass
/// payload views without materialising a copy.
[[nodiscard]] std::optional<double> decode_value(
    std::span<const std::uint8_t> b);

}  // namespace treeaa::realaa
