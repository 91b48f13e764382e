// Wire format of the gradecast sub-rounds.
//
// Exposed as a standalone header (rather than buried in gradecast.cpp) for
// two reasons: protocol-aware Byzantine strategies must be able to craft
// syntactically valid but semantically hostile gradecast traffic, and tests
// must be able to assert on exact encodings.
//
// A gradecast batch runs n parallel instances (every party is the leader of
// its own instance) over three sub-rounds:
//   step 0  LEADER   — the leader's value, an opaque byte string;
//   step 1  ECHO     — per leader, the value received from that leader (⊥ if
//                      none / malformed);
//   step 2  SUPPORT  — per leader, the value this party supports (⊥ if no
//                      value gathered >= n - t echoes).
//
// Every message starts with a step tag byte; a message whose tag does not
// match the current sub-round is discarded (defense in depth — the engine
// already scopes delivery by round).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"

namespace treeaa::gradecast {

inline constexpr std::uint8_t kTagLeader = 0x01;
inline constexpr std::uint8_t kTagEcho = 0x02;
inline constexpr std::uint8_t kTagSupport = 0x03;

/// A non-owning view into a received message's payload. Valid only while
/// the payload buffer is alive — i.e. within the on_round_end call that
/// delivered it.
using ByteView = std::span<const std::uint8_t>;

/// A per-leader slot in an echo/support vector: ⊥ or a value.
using Slot = std::optional<Bytes>;

/// A per-leader slot decoded as a view (no copy).
using SlotView = std::optional<ByteView>;

/// Writes a LEADER message for `value` into `out`, replacing its contents.
/// `out` keeps its capacity, so a caller that reuses one buffer encodes
/// without allocating once it has grown to the message size.
void encode_leader_into(Bytes& out, ByteView value);

/// encode_leader_into a fresh buffer.
[[nodiscard]] Bytes encode_leader(ByteView value);

/// Decodes a LEADER message; nullopt if malformed.
[[nodiscard]] std::optional<Bytes> decode_leader(ByteView msg);

/// Zero-copy variant of decode_leader: the returned view aliases `msg`.
[[nodiscard]] std::optional<ByteView> decode_leader_view(ByteView msg);

/// Writes an ECHO/SUPPORT message (`tag`, then one slot per leader) into
/// `out`, replacing its contents and keeping its capacity. encode_slots
/// runs the same encoder over owned slots.
void encode_slots_into(Bytes& out, std::uint8_t tag,
                       std::span<const SlotView> slots);

/// encode_slots_into a fresh buffer, from owned slots.
[[nodiscard]] Bytes encode_slots(std::uint8_t tag,
                                 const std::vector<Slot>& slots);

/// Decodes an ECHO/SUPPORT message with the given tag; the slot vector must
/// have exactly `n` entries. nullopt if malformed.
[[nodiscard]] std::optional<std::vector<Slot>> decode_slots(
    std::uint8_t tag, ByteView msg, std::size_t n);

/// Zero-copy variant of decode_slots: writes `out.size()` slot views (each
/// aliasing `msg`) and returns true, or returns false if `msg` is malformed
/// or its slot count differs from `out.size()`. Accepts and rejects exactly
/// the same messages as decode_slots.
[[nodiscard]] bool decode_slots_view(std::uint8_t tag, ByteView msg,
                                     std::span<SlotView> out);

}  // namespace treeaa::gradecast
