#include "gradecast/wire.h"

#include "common/check.h"
#include "perf/simd.h"

namespace treeaa::gradecast {

namespace simd = perf::simd;

void encode_leader_into(Bytes& out, ByteView value) {
  out.resize(1 + simd::varint_len(value.size()) + value.size());
  std::uint8_t* p = out.data();
  *p++ = kTagLeader;
  p = simd::write_varint(p, value.size());
  simd::copy_bytes(p, value.data(), value.size());
}

Bytes encode_leader(ByteView value) {
  Bytes out;
  encode_leader_into(out, value);
  return out;
}

std::optional<Bytes> decode_leader(ByteView msg) {
  const auto view = decode_leader_view(msg);
  if (!view.has_value()) return std::nullopt;
  return Bytes(view->begin(), view->end());
}

std::optional<ByteView> decode_leader_view(ByteView msg) {
  try {
    ByteReader r(msg);
    if (r.u8() != kTagLeader) return std::nullopt;
    const ByteView value = r.blob_view();
    r.expect_done();
    return value;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

namespace {

// Batched encoder: the slot-vector layout — tag, varint count, then per
// slot a presence byte followed by (varint length, bytes) — is sized
// exactly up front, so the message is written by a pointer-bump cursor
// with SIMD bulk copies for the slot bodies into the caller's buffer, which
// allocates only when it must grow. Byte output is identical to the old
// incremental ByteWriter encoder (pinned by the codec goldens). `slots`
// holds owned (Slot) or viewed (SlotView) slots; both encode alike.
template <typename Slots>
void write_slots(Bytes& out, std::uint8_t tag, const Slots& slots) {
  std::size_t total = 1 + simd::varint_len(slots.size());
  for (const auto& s : slots) {
    total += 1;
    if (s.has_value()) total += simd::varint_len(s->size()) + s->size();
  }
  out.resize(total);
  std::uint8_t* p = out.data();
  *p++ = tag;
  p = simd::write_varint(p, slots.size());
  for (const auto& s : slots) {
    if (s.has_value()) {
      *p++ = 1;
      p = simd::write_varint(p, s->size());
      simd::copy_bytes(p, s->data(), s->size());
      p += s->size();
    } else {
      *p++ = 0;
    }
  }
  TREEAA_CHECK(p == out.data() + total);
}

}  // namespace

void encode_slots_into(Bytes& out, std::uint8_t tag,
                       std::span<const SlotView> slots) {
  write_slots(out, tag, slots);
}

Bytes encode_slots(std::uint8_t tag, const std::vector<Slot>& slots) {
  Bytes out;
  write_slots(out, tag, slots);
  return out;
}

std::optional<std::vector<Slot>> decode_slots(std::uint8_t tag, ByteView msg,
                                              std::size_t n) {
  try {
    ByteReader r(msg);
    if (r.u8() != tag) return std::nullopt;
    auto slots = r.vec<Slot>(
        [](ByteReader& rd) -> Slot {
          if (rd.u8() == 0) return std::nullopt;
          return rd.blob();
        },
        /*max_len=*/n);
    r.expect_done();
    if (slots.size() != n) return std::nullopt;
    return slots;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

// Batched decoder: a noexcept raw-pointer cursor over the message instead
// of a throwing ByteReader — the hot realaa/tree-AA delivery path calls
// this once per received echo/support vector, and exception plumbing is
// pure overhead when malformed input is an expected case (Byzantine
// senders). Accepts and rejects exactly the inputs the old reader-based
// parser did, including non-canonical varints.
bool decode_slots_view(std::uint8_t tag, ByteView msg,
                       std::span<SlotView> out) {
  const std::uint8_t* p = msg.data();
  const std::uint8_t* const end = p + msg.size();
  if (p == end || *p++ != tag) return false;
  std::uint64_t count = 0;
  if (!simd::read_varint(p, end, count)) return false;
  if (count != out.size()) return false;
  for (SlotView& slot : out) {
    if (p == end) return false;
    if (*p++ == 0) {
      slot = std::nullopt;
    } else {
      std::uint64_t len = 0;
      if (!simd::read_varint(p, end, len)) return false;
      if (len > static_cast<std::uint64_t>(end - p)) return false;
      slot = ByteView(p, static_cast<std::size_t>(len));
      p += len;
    }
  }
  return p == end;
}

}  // namespace treeaa::gradecast
